"""String metrics: edit (Levenshtein) distance and variants.

The paper's text experiments compare keywords with the *edit distance* — the
minimal number of insertions, deletions and substitutions turning one string
into the other.  On a domain of strings of length up to ``m`` the edit
distance is bounded by ``m``, giving the BRM space ``(Sigma^m, L_edit, m, S)``
of Section 2.

The implementation is the classic two-row dynamic program, with an optional
cutoff (``bounded_distance``) that abandons early when the distance provably
exceeds a threshold — handy inside range queries with a small radius.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence, Tuple

import numpy as np

from ..exceptions import InvalidParameterError
from . import kernels
from .base import Metric

__all__ = ["EditDistance", "WeightedEditDistance", "edit_distance"]


def edit_distance(a: str, b: str) -> int:
    """Return the (unit-cost) Levenshtein distance between two strings."""
    if a == b:
        return 0
    # Ensure b is the shorter string so the DP rows are minimal.
    if len(b) > len(a):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(
                    previous[j] + 1,  # deletion
                    current[j - 1] + 1,  # insertion
                    previous[j - 1] + cost,  # substitution / match
                )
            )
        previous = current
    return previous[-1]


def _check_bound(bound: float) -> None:
    """Reject a negative or NaN cutoff (NaN passes a ``bound < 0`` test)."""
    if math.isnan(bound) or bound < 0:
        raise InvalidParameterError(f"bound must be >= 0, got {bound}")


class EditDistance(Metric):
    """Unit-cost Levenshtein metric on strings."""

    name = "edit"

    def distance(self, a: str, b: str) -> float:
        return float(edit_distance(a, b))

    def bounded_distance(self, a: str, b: str, bound: int) -> float:
        """Return ``d(a, b)`` if it is ``<= bound``, else ``inf``.

        Uses the length difference lower bound and a banded DP so the cost
        is ``O(bound * max(len))`` instead of ``O(len(a) * len(b))``.
        """
        _check_bound(bound)
        if abs(len(a) - len(b)) > bound:
            return float("inf")
        if len(b) > len(a):
            a, b = b, a
        if not b:
            return float(len(a)) if len(a) <= bound else float("inf")
        inf = bound + 1
        previous = [j if j <= bound else inf for j in range(len(b) + 1)]
        for i, ca in enumerate(a, start=1):
            lo = max(1, i - bound)
            hi = min(len(b), i + bound)
            current = [i if i <= bound else inf] + [inf] * len(b)
            for j in range(lo, hi + 1):
                cb = b[j - 1]
                cost = 0 if ca == cb else 1
                current[j] = min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + cost,
                )
            if min(current[max(0, lo - 1) :]) > bound:
                return float("inf")
            previous = current
        return float(previous[-1]) if previous[-1] <= bound else float("inf")

    def pairwise(self, xs: Sequence[str], ys: Sequence[str]) -> np.ndarray:
        return kernels.levenshtein_pairwise(xs, ys)

    def one_to_many(self, x: str, ys: Sequence[str]) -> np.ndarray:
        return kernels.levenshtein_one_to_many(x, ys)

    def rowwise(self, xs: Sequence[str], ys: Sequence[str]) -> np.ndarray:
        return kernels.levenshtein_rowwise(xs, ys)

    def one_to_many_bounded(
        self, x: str, ys: Sequence[str], bound: float
    ) -> np.ndarray:
        """Batched :meth:`bounded_distance`: exact where ``<= bound``,
        ``inf`` elsewhere, via the banded early-exit kernel when native."""
        _check_bound(bound)
        return kernels.levenshtein_one_to_many_bounded(x, ys, bound)

    @staticmethod
    def domain_bound(max_length: int) -> float:
        """``d_plus`` for strings of length up to ``max_length``."""
        if max_length < 0:
            raise InvalidParameterError(
                f"max_length must be >= 0, got {max_length}"
            )
        return float(max_length)


class WeightedEditDistance(Metric):
    """Edit distance with per-operation costs.

    ``insert_cost`` and ``delete_cost`` must be equal for the function to be
    symmetric (hence a metric); substitution costs may vary per character
    pair via ``substitution_costs`` but must themselves be symmetric and
    satisfy ``cost <= insert_cost + delete_cost`` for the triangle
    inequality to hold.  The constructor enforces the symmetry requirements.
    """

    def __init__(
        self,
        indel_cost: float = 1.0,
        substitution_cost: float = 1.0,
        substitution_costs: Mapping[Tuple[str, str], float] | None = None,
    ):
        if indel_cost <= 0:
            raise InvalidParameterError(
                f"indel_cost must be > 0, got {indel_cost}"
            )
        if substitution_cost <= 0:
            raise InvalidParameterError(
                f"substitution_cost must be > 0, got {substitution_cost}"
            )
        self.indel_cost = float(indel_cost)
        self.substitution_cost = float(substitution_cost)
        self._sub_costs: dict[Tuple[str, str], float] = {}
        if substitution_costs:
            for (ca, cb), cost in substitution_costs.items():
                if cost < 0:
                    raise InvalidParameterError(
                        f"substitution cost for {(ca, cb)!r} is negative"
                    )
                self._sub_costs[(ca, cb)] = float(cost)
                self._sub_costs[(cb, ca)] = float(cost)
        self.name = "weighted-edit"

    def _sub(self, ca: str, cb: str) -> float:
        if ca == cb:
            return 0.0
        return self._sub_costs.get((ca, cb), self.substitution_cost)

    def distance(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        if len(b) > len(a):
            a, b = b, a
        if not b:
            return len(a) * self.indel_cost
        previous = [j * self.indel_cost for j in range(len(b) + 1)]
        for i, ca in enumerate(a, start=1):
            current = [i * self.indel_cost]
            for j, cb in enumerate(b, start=1):
                current.append(
                    min(
                        previous[j] + self.indel_cost,
                        current[j - 1] + self.indel_cost,
                        previous[j - 1] + self._sub(ca, cb),
                    )
                )
            previous = current
        return previous[-1]

    def domain_bound(self, max_length: int) -> float:
        """``d_plus`` for strings of length up to ``max_length``."""
        worst_sub = max(
            [self.substitution_cost, *self._sub_costs.values()],
            default=self.substitution_cost,
        )
        return max_length * min(worst_sub, 2 * self.indel_cost)
