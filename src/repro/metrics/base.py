"""Metric abstractions.

A *metric* here is an object with a ``distance(a, b)`` method satisfying the
metric axioms (non-negativity, identity of indiscernibles, symmetry and the
triangle inequality).  Everything in the library — trees, histograms, cost
models — talks to metrics through this interface, so vector metrics, string
metrics and user-supplied callables are interchangeable.

The paper's "CPU cost" is the *number of distance computations*, so the
module also provides :class:`CountingMetric`, a transparent wrapper that
counts calls.  The M-tree and vp-tree count their distance evaluations
through it, which is what the validation experiments compare against the
model's ``dists(...)`` estimates.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, Callable, Sequence

import numpy as np

from ..exceptions import InvalidParameterError

__all__ = ["Metric", "CountingMetric", "FunctionMetric"]


def _check_bound(bound: float) -> None:
    """Reject a negative or NaN cutoff (NaN passes a ``bound < 0`` test)."""
    if math.isnan(bound) or bound < 0:
        raise InvalidParameterError(f"bound must be >= 0, got {bound}")


class Metric(ABC):
    """Abstract distance function over some domain.

    Subclasses implement :meth:`distance`.  ``pairwise`` has a generic
    (loop-based) default and is overridden with vectorised code where the
    domain allows it (see :class:`~repro.metrics.minkowski.MinkowskiMetric`).
    """

    #: Human-readable name, used in reports and ``repr``.
    name: str = "metric"

    @abstractmethod
    def distance(self, a: Any, b: Any) -> float:
        """Return ``d(a, b)``."""

    def __call__(self, a: Any, b: Any) -> float:
        return self.distance(a, b)

    def pairwise(self, xs: Sequence[Any], ys: Sequence[Any]) -> np.ndarray:
        """Return the ``len(xs) x len(ys)`` matrix of distances.

        The default implementation loops over :meth:`distance`; subclasses
        override it when a vectorised formulation exists.
        """
        out = np.empty((len(xs), len(ys)), dtype=np.float64)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                out[i, j] = self.distance(x, y)
        return out

    def one_to_many(self, x: Any, ys: Sequence[Any]) -> np.ndarray:
        """Return the vector of distances from ``x`` to each of ``ys``."""
        return self.pairwise([x], ys)[0]

    def encode(self, ys: Sequence[Any]) -> Sequence[Any]:
        """Return ``ys`` in this metric's kernel input form (a *block*).

        The contract: ``one_to_many(x, encode(ys))`` and
        ``one_to_many_bounded(x, encode(ys), b)`` equal the same calls on
        ``ys``, and ``len(encode(ys)) == len(ys)``.  A caller that asks
        many queries of the same objects (an M-tree node) encodes them
        once and passes the block instead.  The default is a plain list;
        :class:`~repro.metrics.minkowski.MinkowskiMetric` returns a
        read-only float64 matrix and
        :class:`~repro.metrics.strings.EditDistance` a
        :class:`~repro.metrics.kernels.encode.StringBlock`.
        """
        return list(ys)

    def join(self, blocks: Sequence[Sequence[Any]]) -> Sequence[Any]:
        """One block holding every block's objects, in order.

        ``one_to_many(x, join(bs))`` equals the concatenation of
        ``one_to_many(x, b)`` over ``bs`` (and likewise for the bounded
        call), so a caller can answer several blocks with one kernel
        call and split the result by the blocks' lengths.  ``blocks``
        must come from :meth:`encode`.  The default concatenates lists;
        :class:`~repro.metrics.minkowski.MinkowskiMetric` stacks its
        matrices and :class:`~repro.metrics.strings.EditDistance`
        concatenates its string blocks' arrays.
        """
        return [y for block in blocks for y in block]

    def take(self, block: Sequence[Any], indices: np.ndarray) -> Sequence[Any]:
        """The block of ``block``'s objects at ``indices`` (an int
        array), in that order.

        ``one_to_many(x, take(b, i))`` equals ``one_to_many(x, b)[i]``
        (and likewise for the bounded call), so a caller that filters a
        cached block's objects needs no new :meth:`encode`.  The default
        picks list items; :class:`~repro.metrics.minkowski.MinkowskiMetric`
        picks matrix rows and :class:`~repro.metrics.strings.EditDistance`
        a string block's strings with their codepoints.
        """
        return [block[i] for i in indices.tolist()]

    def rowwise(self, xs: Sequence[Any], ys: Sequence[Any]) -> np.ndarray:
        """Return element-wise distances between aligned sequences.

        ``xs`` and ``ys`` must have equal length; the result is the vector
        ``[d(xs[i], ys[i])]``.  Used by the pair-sampling estimator of the
        distance distribution.
        """
        if len(xs) != len(ys):
            raise InvalidParameterError(
                f"rowwise needs equal lengths, got {len(xs)} and {len(ys)}"
            )
        out = np.empty(len(xs), dtype=np.float64)
        for i, (x, y) in enumerate(zip(xs, ys)):
            out[i] = self.distance(x, y)
        return out

    def one_to_many_bounded(
        self, x: Any, ys: Sequence[Any], bound: float
    ) -> np.ndarray:
        """Distances from ``x`` to each of ``ys`` where ``<= bound``,
        ``inf`` where greater.

        Every returned finite value is the *exact* distance, so callers may
        use the result wherever they would have used :meth:`one_to_many`
        followed by a radius filter.  The default computes exact distances
        and masks the fresh array in place; metrics with an early-exit
        bounded kernel (see
        :class:`~repro.metrics.strings.EditDistance`) override it.  Each
        element still counts as one distance computation for accounting
        purposes regardless of early exit.  A negative or NaN ``bound``
        raises :class:`~repro.exceptions.InvalidParameterError`.
        """
        _check_bound(bound)
        exact = self.one_to_many(x, ys)
        exact[exact > bound] = np.inf
        return exact

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class FunctionMetric(Metric):
    """Adapt a plain callable ``f(a, b) -> float`` into a :class:`Metric`.

    The caller promises that ``f`` satisfies the metric axioms; the library
    does not (and cannot cheaply) verify this at runtime.
    """

    def __init__(self, func: Callable[[Any, Any], float], name: str = "custom"):
        self._func = func
        self.name = name

    def distance(self, a: Any, b: Any) -> float:
        return float(self._func(a, b))


class CountingMetric(Metric):
    """Wrap a metric and count how many times a distance is computed.

    ``pairwise``/``one_to_many`` are counted element-wise, so a bulk call on
    an ``n x m`` grid adds ``n * m`` to :attr:`calls` — the count reflects
    abstract distance computations, not Python function calls.
    """

    def __init__(self, inner: Metric):
        self.inner = inner
        self.name = f"counting({inner.name})"
        self.calls = 0

    def distance(self, a: Any, b: Any) -> float:
        self.calls += 1
        return self.inner.distance(a, b)

    def pairwise(self, xs: Sequence[Any], ys: Sequence[Any]) -> np.ndarray:
        self.calls += len(xs) * len(ys)
        return self.inner.pairwise(xs, ys)

    def one_to_many(self, x: Any, ys: Sequence[Any]) -> np.ndarray:
        self.calls += len(ys)
        return self.inner.one_to_many(x, ys)

    def encode(self, ys: Sequence[Any]) -> Sequence[Any]:
        """The inner metric's block; encoding computes no distance."""
        return self.inner.encode(ys)

    def join(self, blocks: Sequence[Sequence[Any]]) -> Sequence[Any]:
        """The inner metric's join; joining computes no distance."""
        return self.inner.join(blocks)

    def take(self, block: Sequence[Any], indices: np.ndarray) -> Sequence[Any]:
        """The inner metric's take; taking computes no distance."""
        return self.inner.take(block, indices)

    def rowwise(self, xs: Sequence[Any], ys: Sequence[Any]) -> np.ndarray:
        self.calls += len(xs)
        return self.inner.rowwise(xs, ys)

    def one_to_many_bounded(
        self, x: Any, ys: Sequence[Any], bound: float
    ) -> np.ndarray:
        _check_bound(bound)
        self.calls += len(ys)
        return self.inner.one_to_many_bounded(x, ys, bound)

    def reset(self) -> None:
        """Zero the call counter."""
        self.calls = 0
