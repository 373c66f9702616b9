"""Fault-tolerant sharded serving: partition, shard, scatter-gather route.

The cost model graduates from *estimating* query cost to *routing*
queries: a pivot-based partitioner
(:func:`~repro.cluster.partition.partition_objects`) splits the dataset
into shards whose exact pivot-distance profiles and per-shard RDD
histograms let the :class:`~repro.cluster.router.Router` **prove** which
shards cannot contribute to a range/k-NN answer and skip them.  Each
:class:`~repro.cluster.shard.Shard` is an independent index with its
own node quarantine; the router scatters under per-shard sub-deadlines
with bounded retry and hedged duplicate requests, quarantines shards
that are unreachable or whose fsck fails, and always gathers into a typed
:class:`~repro.cluster.router.RouterOutcome` whose object-weighted
completeness and per-shard accounting make every partial answer honest
(see ``docs/robustness.md``).
"""

from .lifecycle import ClusterLifecycle, LadderEvent
from .partition import (
    Partition,
    ShardStats,
    choose_pivots,
    partition_objects,
)
from .rebalance import (
    RebalanceOutcome,
    RebalancePlan,
    Rebalancer,
    estimate_route_cost,
    load_cluster,
    plan_rebalance,
    save_cluster,
)
from .router import (
    ClusterMembership,
    Router,
    RouterOutcome,
    RouterReport,
    ShardQuarantine,
    ShardReport,
    build_cluster,
)
from .shard import Shard

__all__ = [
    "ShardStats",
    "Partition",
    "choose_pivots",
    "partition_objects",
    "Shard",
    "ShardReport",
    "RouterOutcome",
    "RouterReport",
    "ShardQuarantine",
    "ClusterMembership",
    "Router",
    "build_cluster",
    "RebalancePlan",
    "RebalanceOutcome",
    "Rebalancer",
    "estimate_route_cost",
    "plan_rebalance",
    "save_cluster",
    "load_cluster",
    "ClusterLifecycle",
    "LadderEvent",
]
