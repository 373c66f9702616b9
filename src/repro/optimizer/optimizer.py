"""A cost-based optimiser for metric similarity queries.

Given a catalog of available access plans (M-tree, vp-tree, linear scan)
and a disk model, :class:`SimilarityQueryOptimizer` ranks the plans by
model-predicted cost and executes the winner — the "optimizers'
technology" application the paper's introduction promises.

The interesting behaviour is the *crossover*: for selective queries the
indexes win; as the radius grows toward the distance distribution's bulk,
every index degrades to visiting most nodes while the linear scan's cost
is flat — so past some radius the optimiser should (and does) switch to
scanning.  The extension bench locates this crossover and verifies the
optimiser's choice against the measured best plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from ..exceptions import (
    DeadlineExceededError,
    InvalidParameterError,
    MetricostError,
    OperationCancelledError,
)
from ..observability import state as _obs
from ..storage.diskmodel import DiskModel
from .plans import AccessPlan, ExecutionOutcome, PlanCostEstimate

__all__ = ["DegradedPlan", "PlanChoice", "SimilarityQueryOptimizer"]


@dataclass(frozen=True)
class DegradedPlan:
    """A plan the optimiser demoted instead of letting it fail the query.

    ``stage`` is ``"estimate"`` (its cost model raised while ranking) or
    ``"execute"`` (it was chosen but raised while running, and the next
    ranked plan took over).
    """

    plan_name: str
    stage: str
    error: str


@dataclass
class PlanChoice:
    """The optimiser's decision: ranked estimates plus the winner.

    ``degraded`` records every plan demoted along the way — a broken
    statistics artifact or a raising cost model removes that plan from the
    ranking (degradation ladder: N-MCM → L-MCM → linear scan) rather than
    failing the query.
    """

    ranked: List[PlanCostEstimate]
    degraded: List[DegradedPlan] = field(default_factory=list)

    @property
    def best(self) -> PlanCostEstimate:
        return self.ranked[0]

    def estimate_for(self, plan_name: str) -> Optional[PlanCostEstimate]:
        for estimate in self.ranked:
            if estimate.plan_name == plan_name:
                return estimate
        return None


class SimilarityQueryOptimizer:
    """Rank access plans by predicted cost; execute the cheapest."""

    def __init__(
        self, plans: Sequence[AccessPlan], disk: Optional[DiskModel] = None
    ):
        if not plans:
            raise InvalidParameterError("need at least one access plan")
        names = [plan.name for plan in plans]
        if len(set(names)) != len(names):
            raise InvalidParameterError(
                f"plan names must be unique, got {names}"
            )
        self.plans = list(plans)
        self.disk = disk if disk is not None else DiskModel()

    def _plan_by_name(self, name: str) -> AccessPlan:
        for plan in self.plans:
            if plan.name == name:
                return plan
        raise InvalidParameterError(f"no plan named {name!r}")

    def _fallback_plan(self) -> Optional[AccessPlan]:
        """The guaranteed last rung of the degradation ladder, if present."""
        for plan in self.plans:
            if plan.name == "linear-scan":
                return plan
        return None

    # ------------------------------------------------------------------

    def _choose(self, estimate_one, what: str, kind: str) -> PlanChoice:
        """Rank plans, demoting (not failing on) broken cost models.

        A plan whose estimator raises — a statistics artifact that failed
        integrity checks, a model dividing by zero in an adverse regime —
        lands in ``PlanChoice.degraded`` and the ranking proceeds without
        it.  If *every* estimator breaks, the linear scan (which needs no
        statistics) is returned as an unranked fallback so ``choose()``
        always yields an executable plan.

        Plan choices and demotions are mirrored into the registry
        (``optimizer.plans_chosen`` / ``optimizer.degraded``) when
        observability is installed.
        """
        reg = _obs.registry
        estimates: List[PlanCostEstimate] = []
        degraded: List[DegradedPlan] = []
        for plan in self.plans:
            try:
                estimate = estimate_one(plan)
            except (DeadlineExceededError, OperationCancelledError):
                # A cancelled query must not keep costing estimators.
                raise
            except Exception as exc:  # noqa: BLE001 — demote, don't fail
                degraded.append(
                    DegradedPlan(
                        plan.name, "estimate", f"{type(exc).__name__}: {exc}"
                    )
                )
                if reg is not None:
                    reg.inc(
                        "optimizer.degraded",
                        plan=plan.name,
                        stage="estimate",
                    )
                continue
            if estimate is not None:
                estimates.append(estimate)
        if not estimates:
            fallback = self._fallback_plan()
            if fallback is None or not degraded:
                raise InvalidParameterError(f"no plan supports {what}")
            # The scan's own estimator raised too; rank it at infinite
            # cost — it can still *execute* without any statistics.
            estimates = [
                PlanCostEstimate(
                    fallback.name, math.inf, math.inf, math.inf, math.inf
                )
            ]
        choice = PlanChoice(
            sorted(estimates, key=lambda e: e.total_ms), degraded
        )
        if reg is not None:
            reg.inc(
                "optimizer.plans_chosen",
                plan=choice.best.plan_name,
                kind=kind,
            )
        return choice

    def choose_range_plan(self, radius: float) -> PlanChoice:
        """Rank plans for ``range(Q, radius)`` by predicted total cost."""
        if not (radius >= 0):
            raise InvalidParameterError(f"radius must be >= 0, got {radius}")
        return self._choose(
            lambda plan: plan.estimate_range(radius, self.disk),
            "range queries",
            kind="range",
        )

    def choose_knn_plan(self, k: int) -> PlanChoice:
        """Rank plans for ``NN(Q, k)`` by predicted total cost."""
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        return self._choose(
            lambda plan: plan.estimate_knn(k, self.disk),
            "k-NN queries",
            kind="knn",
        )

    # ------------------------------------------------------------------

    def _execute_ladder(
        self, choice: PlanChoice, execute_one, deadline: Optional[Any] = None
    ) -> ExecutionOutcome:
        """Execute ranked plans in order until one succeeds.

        A chosen plan that raises at *execution* time (a faulting page
        store, a corrupted node) is demoted into ``choice.degraded`` and
        the next-cheapest plan takes over; only when every ranked plan
        fails does the last error propagate.

        With a ``deadline``, the ladder checks the remaining budget before
        each rung: a query whose budget is already spent raises
        :class:`~repro.exceptions.DeadlineExceededError` immediately
        instead of descending through plans that cannot finish either.
        """
        reg = _obs.registry
        last_error: Optional[BaseException] = None
        for estimate in choice.ranked:
            if deadline is not None:
                if last_error is None:
                    deadline.check("optimizer execution")
                else:
                    # Mid-ladder: an expired budget ends the descent with
                    # the deadline error, not the previous rung's fault.
                    deadline.check("optimizer degradation ladder")
            plan = self._plan_by_name(estimate.plan_name)
            try:
                return execute_one(plan)
            except (DeadlineExceededError, OperationCancelledError):
                # An expired budget inside a rung ends the descent: the
                # remaining rungs cannot finish in zero time either, and
                # demoting would misreport cancellation as plan failure.
                raise
            except Exception as exc:  # noqa: BLE001 — try the next rung
                choice.degraded.append(
                    DegradedPlan(
                        plan.name, "execute", f"{type(exc).__name__}: {exc}"
                    )
                )
                if reg is not None:
                    reg.inc(
                        "optimizer.degraded",
                        plan=plan.name,
                        stage="execute",
                    )
                last_error = exc
        assert last_error is not None
        if isinstance(last_error, MetricostError):
            raise last_error
        raise MetricostError(
            f"every ranked plan failed to execute "
            f"(last: {type(last_error).__name__}: {last_error})"
        ) from last_error

    def run_range(
        self, query: Any, radius: float, deadline: Optional[Any] = None
    ) -> ExecutionOutcome:
        """Choose and execute the cheapest working range plan.

        ``deadline`` (a :class:`~repro.context.Deadline` or
        :class:`~repro.context.Context`) is threaded into plan execution;
        plans that ignore the optional keyword still work when no deadline
        is given.
        """
        choice = self.choose_range_plan(radius)
        if deadline is None:
            execute = lambda plan: plan.execute_range(  # noqa: E731
                query, radius, self.disk
            )
        else:
            execute = lambda plan: plan.execute_range(  # noqa: E731
                query, radius, self.disk, deadline=deadline
            )
        return self._execute_ladder(choice, execute, deadline)

    def run_knn(
        self, query: Any, k: int, deadline: Optional[Any] = None
    ) -> ExecutionOutcome:
        """Choose and execute the cheapest working k-NN plan.

        ``deadline`` is threaded into plan execution as in
        :meth:`run_range`.
        """
        choice = self.choose_knn_plan(k)
        if deadline is None:
            execute = lambda plan: plan.execute_knn(  # noqa: E731
                query, k, self.disk
            )
        else:
            execute = lambda plan: plan.execute_knn(  # noqa: E731
                query, k, self.disk, deadline=deadline
            )
        return self._execute_ladder(choice, execute, deadline)

    def explain_range(self, radius: float) -> str:
        """EXPLAIN-style text: the ranked plans for ``range(Q, radius)``.

        What a database EXPLAIN would print for this query: each plan's
        predicted node reads, distance computations and the I/O / CPU
        split under the optimiser's disk model, cheapest first.
        """
        choice = self.choose_range_plan(radius)
        lines = [f"EXPLAIN range(Q, {radius:g})  [disk: {self.disk}]"]
        for rank, estimate in enumerate(choice.ranked, start=1):
            marker = "->" if rank == 1 else "  "
            lines.append(
                f"{marker} {rank}. {estimate.plan_name:<12} "
                f"total {estimate.total_ms:>10,.1f} ms   "
                f"(io {estimate.io_ms:,.1f} ms / cpu {estimate.cpu_ms:,.1f} ms; "
                f"{estimate.nodes:,.1f} node reads, "
                f"{estimate.dists:,.1f} distances)"
            )
        return "\n".join(lines)

    def explain_knn(self, k: int) -> str:
        """EXPLAIN-style text for ``NN(Q, k)``."""
        choice = self.choose_knn_plan(k)
        lines = [f"EXPLAIN NN(Q, {k})  [disk: {self.disk}]"]
        for rank, estimate in enumerate(choice.ranked, start=1):
            marker = "->" if rank == 1 else "  "
            lines.append(
                f"{marker} {rank}. {estimate.plan_name:<12} "
                f"total {estimate.total_ms:>10,.1f} ms   "
                f"(io {estimate.io_ms:,.1f} ms / cpu {estimate.cpu_ms:,.1f} ms)"
            )
        return "\n".join(lines)

    def range_crossover_radius(
        self,
        first: str,
        second: str,
        lo: float,
        hi: float,
        tolerance: float = 1e-3,
    ) -> Optional[float]:
        """Radius where the predicted winner flips from ``first`` to
        ``second`` (bisection); None if one plan dominates on [lo, hi]."""
        if not (0 <= lo < hi):
            raise InvalidParameterError(
                f"need 0 <= lo < hi, got ({lo}, {hi})"
            )

        def margin(radius: float) -> float:
            choice = self.choose_range_plan(radius)
            first_cost = choice.estimate_for(first)
            second_cost = choice.estimate_for(second)
            if first_cost is None or second_cost is None:
                raise InvalidParameterError(
                    f"plans {first!r}/{second!r} not both available"
                )
            return first_cost.total_ms - second_cost.total_ms

        lo_margin = margin(lo)
        hi_margin = margin(hi)
        if lo_margin == 0:
            return lo
        if (lo_margin < 0) == (hi_margin < 0):
            return None  # no sign change: one plan dominates
        while hi - lo > tolerance:
            mid = (lo + hi) / 2
            if (margin(mid) < 0) == (lo_margin < 0):
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2
