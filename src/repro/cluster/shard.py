"""One shard: an independent vp-tree index over a slice of the dataset.

Each shard owns a slice of the dataset (assigned by
:func:`~repro.cluster.partition.partition_objects`), indexes it with a
vp-tree, and keeps its own node-level
:class:`~repro.reliability.QuarantineSet`.  A shard answers on the
caller's thread: the router already prunes, retries, hedges, carves
sub-deadlines and quarantines, so the shard adds no admission control
or circuit breaker of its own, and its library errors reach the router
as exceptions.

A :class:`~repro.reliability.ShardChaos` switch sits in the query path
to make machine-level failure modes injectable: ``dead`` raises
:class:`~repro.exceptions.IOFaultError` before any work (the router
quarantines the shard as ``unreachable``), ``slow`` stalls execution
while *cooperatively* polling the request budget, so a cancelled
straggler (a hedge won the race) stops promptly instead of sleeping
through its stall.

Local vp-tree oids are positions within the shard; every result is
remapped to **global** oids before it leaves the shard, so the router's
merge and its duplicate detection work in one id space.

A shard holds no epoch of its own: the
:class:`~repro.cluster.ClusterMembership` that lists it does.  A
rebalance builds new shards rather than changing old ones, so a query
pinned to a superseded membership still gets that epoch's exact answer
from its shards.  A shard may also be permanently folded into the
linear-scan rung (``scan_only``), the Pestov regime where rebuilding an
index for the slice can no longer beat scanning it.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..context import Context
from ..exceptions import InvalidParameterError, IOFaultError
from ..metrics import Metric
from ..reliability.faults import ShardChaos
from ..reliability.fsck import FsckReport, fsck_vptree
from ..reliability.quarantine import QuarantineSet
from ..service.service import QueryOutcome, QueryRequest
from ..vptree.tree import VPTree

__all__ = ["Shard"]

#: Stall granularity for the slow-shard chaos mode: the budget (deadline
#: or cancellation) is polled at least this often while stalled.
STALL_SLICE_S = 0.005


def _stall(delay_s: float, budget: Optional[Any]) -> None:
    """Sleep ``delay_s`` in slices, honouring the request budget.

    Raising out of here (deadline blown, context cancelled) is the
    point: a hedged-away straggler must stop burning its worker
    promptly, and the router reports the raise as a ``cancelled`` or
    ``deadline`` attempt, which never quarantines the shard.
    """
    end = time.monotonic() + delay_s
    while True:
        if budget is not None:
            budget.check("slow-shard stall")
        remaining = end - time.monotonic()
        if remaining <= 0:
            return
        time.sleep(min(STALL_SLICE_S, remaining))


class Shard:
    """A slice of the dataset behind its own vp-tree."""

    def __init__(
        self,
        shard_id: int,
        objects: Sequence[Any],
        oids: Sequence[int],
        metric: Metric,
        stats: Any = None,
        arity: int = 4,
        seed: int = 0,
        tree: Optional[VPTree] = None,
    ):
        if len(objects) != len(oids):
            raise InvalidParameterError(
                f"shard {shard_id}: {len(objects)} objects but "
                f"{len(oids)} oids"
            )
        self.shard_id = shard_id
        self.objects = list(objects)
        self.oids = [int(i) for i in oids]
        self.metric = metric
        self.stats = stats
        self.arity = arity
        self.seed = seed
        if tree is not None and len(tree) != len(self.objects):
            raise InvalidParameterError(
                f"shard {shard_id}: prebuilt tree holds {len(tree)} "
                f"objects but the shard was given {len(self.objects)}"
            )
        self.tree = tree if tree is not None else VPTree.build(
            self.objects, metric, arity=arity, seed=seed + shard_id
        )
        self.quarantine = QuarantineSet()
        self.chaos = ShardChaos()
        self._state_lock = threading.Lock()
        self._scan_only = False

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    # -- lifecycle state ---------------------------------------------------

    @property
    def scan_only(self) -> bool:
        """True once the shard is folded into the linear-scan rung."""
        with self._state_lock:
            return self._scan_only

    def fold_to_scan(self) -> None:
        """Permanently serve this shard by linear scan of its pristine
        snapshot — the last rung of the repair ladder, for damage that
        survives an index rebuild."""
        with self._state_lock:
            self._scan_only = True

    def replace_tree(self, tree: VPTree) -> None:
        """Swap in a repaired index and lift every node quarantine.

        The swap is a single reference assignment: concurrent queries
        see either the old tree (with its quarantine entries intact) or
        the new one — never a half-built hybrid.
        """
        if len(tree) != len(self.objects):
            raise InvalidParameterError(
                f"shard {self.shard_id}: replacement tree holds "
                f"{len(tree)} objects, expected {len(self.objects)}"
            )
        self.tree = tree
        self.quarantine.clear()

    def submit(
        self,
        request: QueryRequest,
        deadline: Optional[Any] = None,
        context: Optional[Context] = None,
        bound: float = math.inf,
    ) -> QueryOutcome:
        """Answer one request on this thread: chaos gate, then the
        vp-tree (or the linear scan once folded), then global oids.

        The budget is ``context`` when given, else ``deadline``.  Every
        failure raises: :class:`~repro.exceptions.IOFaultError` for a
        dead shard, the budget's own error when it runs out, and any
        other library error as the index raised it.

        ``bound`` caps a k-NN answer at that distance (see
        :meth:`~repro.vptree.VPTree.knn_query`): the router passes the
        k-th distance another shard already returned, so only items that
        can still reach the merged answer come back.  Range requests
        ignore it.
        """
        start = time.perf_counter()
        budget: Optional[Any] = context if context is not None else deadline
        mode, delay_s, slow_hedged = self.chaos.snapshot()
        if mode == "dead":
            raise IOFaultError(
                f"shard {self.shard_id} is dead (injected fault)"
            )
        if mode == "slow" and (not request.hedged or slow_hedged):
            _stall(delay_s, budget)
        if self.scan_only:
            # Folded into the linear-scan rung: the index is no longer
            # trusted, the pristine snapshot answers at linear cost.
            items, dists = self.scan(request, deadline=budget, bound=bound)
            nodes, completeness, degraded = 0, 1.0, True
        else:
            if request.kind == "range":
                result = self.tree.range_query(
                    request.query,
                    request.radius,
                    deadline=budget,
                    quarantine=self.quarantine,
                )
                local_items = result.items
            else:
                # A shard holds only its slice: a k larger than the
                # shard is legitimate (the router merges across
                # shards), so clamp.
                k = min(request.k or 1, self.n_objects)
                result = self.tree.knn_query(
                    request.query,
                    k,
                    deadline=budget,
                    quarantine=self.quarantine,
                    bound=bound,
                )
                local_items = result.neighbors
            items = [
                (self.oids[local_oid], obj, dist)
                for local_oid, obj, dist in local_items
            ]
            nodes = result.stats.nodes_accessed
            dists = result.stats.dists_computed
            completeness = result.completeness
            degraded = completeness < 1.0
        return QueryOutcome(
            request=request,
            status="ok",
            latency_s=time.perf_counter() - start,
            items=items,
            nodes=nodes,
            dists=dists,
            completeness=completeness,
            degraded=degraded,
        )

    def scan(
        self,
        request: QueryRequest,
        deadline: Optional[Any] = None,
        bound: float = math.inf,
    ) -> Tuple[List[Tuple[int, Any, float]], int]:
        """Linear scan over the shard's pristine object snapshot.

        The router's last degradation rung: index structure (and its
        quarantine state) is bypassed entirely, so the answer over this
        shard is complete by construction.  Chaos still applies — a dead
        shard cannot be scanned either — so the rung is honest about
        machine-level failure.  Returns ``(items, dists_computed)`` with
        global oids.  ``bound`` drops k-NN items farther than it, as
        :meth:`submit` does on the vp-tree.
        """
        mode, _delay_s, _slow_hedged = self.chaos.snapshot()
        if mode == "dead":
            raise IOFaultError(
                f"shard {self.shard_id} is dead (injected fault)"
            )
        if deadline is not None:
            deadline.check("shard linear scan")
        dists = np.asarray(
            self.metric.one_to_many(request.query, self.objects)
        )
        if request.kind == "range":
            hits = np.flatnonzero(dists <= request.radius)
            order = hits[np.argsort(dists[hits], kind="stable")]
        else:
            k = min(request.k or 1, self.n_objects)
            order = np.argsort(dists, kind="stable")[:k]
            order = order[dists[order] <= bound]
        if deadline is not None:
            deadline.check("shard linear scan")
        items = [
            (self.oids[i], self.objects[i], float(dists[i])) for i in order
        ]
        return items, int(dists.size)

    def fsck(self) -> FsckReport:
        """Structural verification of this shard's index."""
        return fsck_vptree(self.tree)

    def __repr__(self) -> str:
        return (
            f"Shard(id={self.shard_id}, n={self.n_objects}, "
            f"chaos={self.chaos.mode!r})"
        )
