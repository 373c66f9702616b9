"""One shard: an independent index with its own serving stack.

Each shard owns a slice of the dataset (assigned by
:func:`~repro.cluster.partition.partition_objects`), indexes it with a
vp-tree, and fronts it with the full PR 3/4 serving stack — its *own*
:class:`~repro.service.AdmissionController`,
:class:`~repro.service.CircuitBreaker`, and
:class:`~repro.reliability.QuarantineSet` — so one sick shard sheds,
trips, or degrades independently of its siblings, exactly like a real
partition living on its own machine.

A :class:`~repro.reliability.ShardChaos` switch sits in the query path
to make machine-level failure modes injectable: ``dead`` raises
:class:`~repro.exceptions.IOFaultError` before any work (trips the
breaker), ``slow`` stalls execution while *cooperatively* polling the
request budget, so a cancelled straggler (a hedge won the race) stops
promptly instead of sleeping through its stall.

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
from ..service.admission import AdmissionController
from ..service.breaker import CircuitBreaker
from ..service.service import QueryOutcome, QueryRequest, QueryService
from ..vptree.tree import VPTree

__all__ = ["Shard"]

#: Stall granularity for the slow-shard chaos mode: the budget (deadline
#: or cancellation) is polled at least this often while stalled.
STALL_SLICE_S = 0.005


class _ShardBackend:
    """Backend adapter: chaos gate → vp-tree → global-oid remap."""

    def __init__(self, shard: "Shard"):
        self.shard = shard
        self.name = f"shard-{shard.shard_id}"

    @staticmethod
    def _stall(delay_s: float, budget: Optional[Any]) -> None:
        """Sleep ``delay_s`` in slices, honouring the request budget.

        Raising out of here (deadline blown, context cancelled) is the
        point: a hedged-away straggler must stop burning its worker
        promptly, and the raise surfaces as a ``cancelled``/``deadline``
        outcome rather than tripping the breaker (see
        :class:`~repro.service.CircuitBreaker.call`).
        """
        end = time.monotonic() + delay_s
        while True:
            if budget is not None:
                budget.check("slow-shard stall")
            remaining = end - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(STALL_SLICE_S, remaining))

    def execute(
        self, request: QueryRequest, deadline: Optional[Any] = None
    ) -> QueryOutcome:
        start = time.perf_counter()
        shard = self.shard
        mode, delay_s, slow_hedged = shard.chaos.snapshot()
        if mode == "dead":
            raise IOFaultError(
                f"shard {shard.shard_id} is dead (injected fault)"
            )
        if mode == "slow" and (not request.hedged or slow_hedged):
            self._stall(delay_s, deadline)
        if shard.scan_only:
            # Folded into the linear-scan rung: the index is no longer
            # trusted, the pristine snapshot answers at linear cost.
            items, dists = shard.scan(request, deadline=deadline)
            return QueryOutcome(
                request=request,
                status="ok",
                latency_s=time.perf_counter() - start,
                items=items,
                nodes=0,
                dists=dists,
                completeness=1.0,
                degraded=True,
            )
        if request.kind == "range":
            result = shard.tree.range_query(
                request.query,
                request.radius,
                deadline=deadline,
                quarantine=shard.quarantine,
            )
            local_items = result.items
        else:
            # A shard holds only its slice: a k larger than the shard is
            # legitimate (the router merges across shards), so clamp.
            k = min(request.k or 1, shard.n_objects)
            result = shard.tree.knn_query(
                request.query,
                k,
                deadline=deadline,
                quarantine=shard.quarantine,
            )
            local_items = result.neighbors
        items = [
            (shard.oids[local_oid], obj, dist)
            for local_oid, obj, dist in local_items
        ]
        return QueryOutcome(
            request=request,
            status="ok",
            latency_s=time.perf_counter() - start,
            items=items,
            nodes=result.stats.nodes_accessed,
            dists=result.stats.dists_computed,
            completeness=result.completeness,
            degraded=result.completeness < 1.0,
        )


class Shard:
    """A slice of the dataset behind its own full serving stack."""

    def __init__(
        self,
        shard_id: int,
        objects: Sequence[Any],
        oids: Sequence[int],
        metric: Metric,
        stats: Any = None,
        arity: int = 4,
        seed: int = 0,
        max_concurrent: int = 8,
        max_queue: int = 32,
        breaker_failure_threshold: int = 3,
        breaker_recovery_timeout_s: float = 0.5,
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
        self.breaker = CircuitBreaker(
            f"shard-{shard_id}",
            failure_threshold=breaker_failure_threshold,
            recovery_timeout_s=breaker_recovery_timeout_s,
        )
        self.admission = AdmissionController(
            max_concurrent=max_concurrent, max_queue=max_queue
        )
        self.service = QueryService(
            _ShardBackend(self),
            admission=self.admission,
            breaker=self.breaker,
        )

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
    ) -> QueryOutcome:
        """One request through the shard's full pipeline (never raises
        for per-request conditions — see :meth:`QueryService.submit`)."""
        return self.service.submit(request, deadline=deadline, context=context)

    def scan(
        self, request: QueryRequest, deadline: Optional[Any] = None
    ) -> Tuple[List[Tuple[int, Any, float]], int]:
        """Linear scan over the shard's pristine object snapshot.

        The router's last degradation rung: index structure (and its
        quarantine state) is bypassed entirely, so the answer over this
        shard is complete by construction.  Chaos still applies — a dead
        shard cannot be scanned either — so the rung is honest about
        machine-level failure.  Returns ``(items, dists_computed)`` with
        global oids.
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
            f"breaker={self.breaker.state!r}, chaos={self.chaos.mode!r})"
        )
