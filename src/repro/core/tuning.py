"""Node-size tuning (Section 4.1).

The cost model turns node size into a design parameter: larger nodes mean
fewer (but costlier) page reads and, past a point, *more* distance
computations — so ``c_CPU * dists(Q; NS) + c_IO(NS) * nodes(Q; NS)`` has an
interior minimum.  :class:`NodeSizeTuner` sweeps node sizes, bulk-loads a
tree per size, evaluates N-MCM at each size and combines the predictions
with a :class:`~repro.storage.diskmodel.DiskModel`; optionally it also runs
real queries for the estimated-vs-actual comparison of Figure 5(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

import numpy as np

from ..exceptions import InvalidParameterError
from ..metrics import Metric
from ..storage.diskmodel import DiskModel
from .histogram import DistanceHistogram
from .mtree_model import NodeBasedCostModel

__all__ = ["NodeSizeSweepPoint", "NodeSizeTuner", "TuningResult"]


@dataclass
class NodeSizeSweepPoint:
    """Predicted (and optionally measured) costs at one node size."""

    node_size_kb: float
    predicted_nodes: float
    predicted_dists: float
    predicted_total_ms: float
    actual_nodes: Optional[float] = None
    actual_dists: Optional[float] = None
    actual_total_ms: Optional[float] = None
    tree_nodes: int = 0
    tree_height: int = 0


@dataclass
class TuningResult:
    """A full sweep plus the predicted-optimal node size."""

    points: List[NodeSizeSweepPoint]
    optimal_node_size_kb: float

    def predicted_curve(self) -> np.ndarray:
        return np.array([p.predicted_total_ms for p in self.points])


class NodeSizeTuner:
    """Sweep M-tree node sizes and pick the cost-minimising one.

    Parameters mirror an experiment: the indexed objects, their metric and
    distance bound, the per-object byte size (for the layout), the overall
    distance histogram and the disk model that weighs I/O against CPU.
    """

    def __init__(
        self,
        objects: Sequence[Any],
        metric: Metric,
        d_plus: float,
        object_bytes: int,
        hist: DistanceHistogram,
        disk_model: DiskModel | None = None,
        min_utilization: float = 0.3,
        seed: int = 0,
    ):
        if len(objects) < 2:
            raise InvalidParameterError(
                f"need at least 2 objects to tune, got {len(objects)}"
            )
        self.objects = objects
        self.metric = metric
        self.d_plus = d_plus
        self.object_bytes = object_bytes
        self.hist = hist
        self.disk_model = disk_model if disk_model is not None else DiskModel()
        self.min_utilization = min_utilization
        self.seed = seed

    def sweep(
        self,
        node_sizes_kb: Sequence[float],
        radius: float,
        queries: Optional[Sequence[Any]] = None,
    ) -> TuningResult:
        """Evaluate every node size for ``range(Q, radius)`` queries.

        With ``queries`` supplied, each size's tree also runs the real
        workload and the sweep records measured costs next to predictions.
        """
        from ..mtree import NodeLayout, bulk_load, collect_node_stats

        if not node_sizes_kb:
            raise InvalidParameterError("node_sizes_kb must not be empty")
        if not (radius >= 0):
            raise InvalidParameterError(f"radius must be >= 0, got {radius}")
        points: List[NodeSizeSweepPoint] = []
        for size_kb in node_sizes_kb:
            layout = NodeLayout(
                node_size_bytes=int(round(size_kb * 1024)),
                object_bytes=self.object_bytes,
                min_utilization=self.min_utilization,
            )
            tree = bulk_load(
                self.objects, self.metric, layout, seed=self.seed
            )
            stats = collect_node_stats(tree, self.d_plus)
            model = NodeBasedCostModel(self.hist, stats, len(self.objects))
            predicted_nodes = float(model.range_nodes(radius))
            predicted_dists = float(model.range_dists(radius))
            predicted_ms = self.disk_model.query_cost_ms(
                predicted_nodes, predicted_dists, size_kb
            ).total_ms
            point = NodeSizeSweepPoint(
                node_size_kb=float(size_kb),
                predicted_nodes=predicted_nodes,
                predicted_dists=predicted_dists,
                predicted_total_ms=predicted_ms,
                tree_nodes=tree.n_nodes(),
                tree_height=tree.height,
            )
            if queries is not None and len(queries) > 0:
                nodes_sum = 0
                dists_sum = 0
                for query in queries:
                    result = tree.range_query(query, radius)
                    nodes_sum += result.stats.nodes_accessed
                    dists_sum += result.stats.dists_computed
                point.actual_nodes = nodes_sum / len(queries)
                point.actual_dists = dists_sum / len(queries)
                point.actual_total_ms = self.disk_model.query_cost_ms(
                    point.actual_nodes, point.actual_dists, size_kb
                ).total_ms
            points.append(point)
        best = min(points, key=lambda p: p.predicted_total_ms)
        return TuningResult(
            points=points, optimal_node_size_kb=best.node_size_kb
        )
