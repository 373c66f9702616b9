"""Batched distance kernels with capability-probing backend dispatch.

Three backends compute identical answers:

* ``"native"`` — the optional ``repro.metrics._ckernels`` C extension
  (built via ``python setup.py build_ext --inplace`` or
  ``scripts/build_native.py``).  Releases the GIL for the whole batch,
  so ``QueryService`` worker threads scale with cores.
* ``"numpy"`` — always-available vectorised fallback
  (:mod:`~repro.metrics.kernels.fallback`).
* ``"scalar"`` — independently-coded pure-Python reference
  (:mod:`~repro.metrics.kernels.scalar`), used by the conformance
  harness as a third oracle.

Selection: ``REPRO_NO_NATIVE=1`` (read once at import) disables the
extension entirely; otherwise ``native`` is used when the extension
imports, else ``numpy``.  Tests pin a backend with
:func:`use_backend`.

Integer-valued metrics (edit distance, un-normalised Hamming) and
max-based L∞ are bit-exact across all three backends.  The numpy
Minkowski one-to-many sums coordinates in the C loop's order, so its
L1/L2 answers are bit-equal to the native ones; other L1/L2/L_p float
sums may differ in the last ulp between backends (numpy pairwise
summation, Python's ``**``); the conformance suite bounds this at
``rtol=1e-9``.
"""

from __future__ import annotations

import importlib
import math
import os
from contextlib import contextmanager
from types import ModuleType
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from ...exceptions import InvalidParameterError
from . import fallback, scalar
from .encode import (
    as_f64_matrix,
    as_f64_vector,
    as_string_block,
    hamming_code_matrix,
)

__all__ = [
    "native_available",
    "active_backend",
    "use_backend",
    "minkowski_one_to_many",
    "minkowski_pairwise",
    "minkowski_rowwise",
    "hamming_one_to_many",
    "hamming_pairwise",
    "hamming_rowwise",
    "jaccard_one_to_many",
    "jaccard_pairwise",
    "jaccard_rowwise",
    "levenshtein_one_to_many",
    "levenshtein_pairwise",
    "levenshtein_rowwise",
    "levenshtein_one_to_many_bounded",
]

_BACKENDS = ("native", "numpy", "scalar")

# ``native`` is the wrapper module when the C extension imported, else
# None; typed as a plain module so dispatch sites stay untyped-by-design
# (the wrappers validate shapes/dtypes before every C call).
native: Optional[ModuleType] = None
if os.environ.get("REPRO_NO_NATIVE", "") in ("", "0"):
    try:
        # By dotted name: ``from . import native`` would read this
        # module's already-bound ``native`` attribute (None) instead of
        # importing the submodule.
        native = importlib.import_module("repro.metrics.kernels.native")
    except ImportError:
        native = None

_forced: Optional[str] = None


def native_available() -> bool:
    """True when the C extension imported (and wasn't disabled)."""
    return native is not None


def active_backend() -> str:
    """The backend the next kernel call will use."""
    if _forced is not None:
        return _forced
    return "native" if native is not None else "numpy"


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Force a specific backend within the ``with`` block (test hook)."""
    global _forced
    if name not in _BACKENDS:
        raise InvalidParameterError(
            f"unknown kernel backend {name!r}; expected one of {_BACKENDS}"
        )
    if name == "native" and native is None:
        raise InvalidParameterError(
            "native kernel backend requested but the extension is not built "
            "(or REPRO_NO_NATIVE is set)"
        )
    previous = _forced
    _forced = name
    try:
        yield
    finally:
        _forced = previous


def _check_dims(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape[1] != y.shape[1]:
        raise InvalidParameterError(
            f"vector dimensions differ: {x.shape[1]} vs {y.shape[1]}"
        )


def _check_rowwise(n_left: int, n_right: int) -> None:
    if n_left != n_right:
        raise InvalidParameterError(
            f"rowwise needs equal-length sequences, got {n_left} and {n_right}"
        )


# ---------------------------------------------------------------- Minkowski


def minkowski_pairwise(
    xs: Sequence[Any], ys: Sequence[Any], p: float
) -> np.ndarray:
    """``(len(xs), len(ys))`` matrix of L_p distances."""
    x = as_f64_matrix(xs)
    y = as_f64_matrix(ys)
    if not (x.shape[0] and y.shape[0]):
        return np.empty((x.shape[0], y.shape[0]), dtype=np.float64)
    _check_dims(x, y)
    backend = active_backend()
    if backend == "native" and native is not None:
        return native.minkowski_pairwise(x, y, p)
    if backend == "scalar":
        out = np.empty((x.shape[0], y.shape[0]), dtype=np.float64)
        for i in range(x.shape[0]):
            for j in range(y.shape[0]):
                out[i, j] = scalar.minkowski(x[i], y[j], p)
        return out
    return fallback.minkowski_pairwise(x, y, p)


def minkowski_one_to_many(
    x: Sequence[float], ys: Sequence[Any], p: float
) -> np.ndarray:
    """L_p distances from one vector to each row of ``ys``.

    An encoded block is read as it is (:func:`as_f64_matrix` makes no
    copy of one); any other ``ys`` is converted like
    :func:`minkowski_pairwise`'s inputs.
    """
    y = as_f64_matrix(ys)
    q = as_f64_vector(x)
    if not y.shape[0]:
        return np.empty(0, dtype=np.float64)
    if q.shape[0] != y.shape[1]:
        raise InvalidParameterError(
            f"vector dimensions differ: {q.shape[0]} vs {y.shape[1]}"
        )
    backend = active_backend()
    if backend == "native" and native is not None:
        return native.minkowski_one_to_many(q, y, p)
    if backend == "scalar":
        return np.array(
            [scalar.minkowski(q, row, p) for row in y], dtype=np.float64
        )
    return fallback.minkowski_one_to_many(q, y, p)


def minkowski_rowwise(
    xs: Sequence[Any], ys: Sequence[Any], p: float
) -> np.ndarray:
    """Aligned L_p distances ``d(xs[i], ys[i])``."""
    x = as_f64_matrix(xs)
    y = as_f64_matrix(ys)
    _check_rowwise(x.shape[0], y.shape[0])
    if not x.shape[0]:
        return np.empty(0, dtype=np.float64)
    _check_dims(x, y)
    backend = active_backend()
    if backend == "native" and native is not None:
        return native.minkowski_rowwise(x, y, p)
    if backend == "scalar":
        out = np.empty(x.shape[0], dtype=np.float64)
        for i in range(x.shape[0]):
            out[i] = scalar.minkowski(x[i], y[i], p)
        return out
    return fallback.minkowski_rowwise(x, y, p)


# ------------------------------------------------------------------ Hamming


def _hamming_encode_pair(
    xs: Sequence[Any], ys: Sequence[Any]
) -> tuple[np.ndarray, np.ndarray]:
    """Encode both sides through one shared vocabulary so codes agree."""
    nx = len(xs)
    combined = hamming_code_matrix(list(xs) + list(ys))
    return combined[:nx], combined[nx:]


def hamming_pairwise(
    xs: Sequence[Any], ys: Sequence[Any], normalized: bool = False
) -> np.ndarray:
    """``(len(xs), len(ys))`` matrix of Hamming distances."""
    if len(xs) == 0 or len(ys) == 0:
        return np.empty((len(xs), len(ys)), dtype=np.float64)
    x, y = _hamming_encode_pair(xs, ys)
    _check_dims(x, y)
    backend = active_backend()
    if (
        backend == "native"
        and native is not None
        and x.dtype == np.int64
        and y.dtype == np.int64
    ):
        return native.hamming_pairwise(x, y, normalized)
    if backend == "scalar":
        out = np.empty((x.shape[0], y.shape[0]), dtype=np.float64)
        for i in range(x.shape[0]):
            for j in range(y.shape[0]):
                out[i, j] = scalar.hamming(x[i], y[j], normalized)
        return out
    return fallback.hamming_pairwise(x, y, normalized)


def hamming_one_to_many(
    x: Any, ys: Sequence[Any], normalized: bool = False
) -> np.ndarray:
    """Hamming distances from one item to each item in ``ys``."""
    return hamming_pairwise([x], ys, normalized)[0]


def hamming_rowwise(
    xs: Sequence[Any], ys: Sequence[Any], normalized: bool = False
) -> np.ndarray:
    """Aligned Hamming distances ``d(xs[i], ys[i])``."""
    _check_rowwise(len(xs), len(ys))
    if len(xs) == 0:
        return np.empty(0, dtype=np.float64)
    x, y = _hamming_encode_pair(xs, ys)
    _check_dims(x, y)
    backend = active_backend()
    if (
        backend == "native"
        and native is not None
        and x.dtype == np.int64
        and y.dtype == np.int64
    ):
        return native.hamming_rowwise(x, y, normalized)
    if backend == "scalar":
        out = np.empty(x.shape[0], dtype=np.float64)
        for i in range(x.shape[0]):
            out[i] = scalar.hamming(x[i], y[i], normalized)
        return out
    return fallback.hamming_rowwise(x, y, normalized)


# ------------------------------------------------------------------ Jaccard


def jaccard_pairwise(
    xs: Sequence[Sequence[Any]], ys: Sequence[Sequence[Any]]
) -> np.ndarray:
    """``(len(xs), len(ys))`` matrix of Jaccard distances between sets."""
    backend = active_backend()
    if backend == "native" and native is not None:
        return native.jaccard_pairwise(xs, ys)
    pair = scalar.jaccard if backend == "scalar" else fallback.jaccard_scalar
    out = np.empty((len(xs), len(ys)), dtype=np.float64)
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            out[i, j] = pair(a, b)
    return out


def jaccard_one_to_many(x: Sequence[Any], ys: Sequence[Sequence[Any]]) -> np.ndarray:
    """Jaccard distances from one set to each set in ``ys``."""
    return jaccard_pairwise([x], ys)[0]


def jaccard_rowwise(
    xs: Sequence[Sequence[Any]], ys: Sequence[Sequence[Any]]
) -> np.ndarray:
    """Aligned Jaccard distances ``d(xs[i], ys[i])``."""
    _check_rowwise(len(xs), len(ys))
    backend = active_backend()
    if backend == "native" and native is not None:
        return native.jaccard_rowwise(xs, ys)
    pair = scalar.jaccard if backend == "scalar" else fallback.jaccard_scalar
    out = np.empty(len(xs), dtype=np.float64)
    for i, (a, b) in enumerate(zip(xs, ys)):
        out[i] = pair(a, b)
    return out


# -------------------------------------------------------------- Levenshtein


def levenshtein_one_to_many(query: str, ys: Sequence[str]) -> np.ndarray:
    """Edit distances from ``query`` to each string in ``ys``."""
    backend = active_backend()
    if backend == "native" and native is not None:
        return native.levenshtein_one_to_many(query, ys)
    if backend == "scalar":
        return np.array(
            [scalar.levenshtein(query, y) for y in ys], dtype=np.float64
        )
    return fallback.levenshtein_one_to_many(query, ys)


def levenshtein_pairwise(
    xs: Sequence[str], ys: Sequence[str]
) -> np.ndarray:
    """``(len(xs), len(ys))`` matrix of edit distances."""
    backend = active_backend()
    if backend == "native" and native is not None:
        return native.levenshtein_pairwise(xs, ys)
    if backend == "scalar":
        out = np.empty((len(xs), len(ys)), dtype=np.float64)
        for i, a in enumerate(xs):
            for j, b in enumerate(ys):
                out[i, j] = scalar.levenshtein(a, b)
        return out
    return fallback.levenshtein_pairwise(xs, ys)


def levenshtein_rowwise(
    xs: Sequence[str], ys: Sequence[str]
) -> np.ndarray:
    """Aligned edit distances ``d(xs[i], ys[i])``."""
    _check_rowwise(len(xs), len(ys))
    backend = active_backend()
    if backend == "native" and native is not None:
        return native.levenshtein_rowwise(xs, ys)
    if backend == "scalar":
        return np.array(
            [scalar.levenshtein(a, b) for a, b in zip(xs, ys)],
            dtype=np.float64,
        )
    return fallback.levenshtein_rowwise(xs, ys)


def levenshtein_one_to_many_bounded(
    query: str, ys: Sequence[str], bound: float
) -> np.ndarray:
    """Edit distances where ``<= bound``, ``inf`` elsewhere.

    The native backend runs a banded two-row DP per candidate that
    abandons it as soon as every band cell exceeds the bound; the numpy
    backend drops candidates whose length differs from the query's by
    more than the bound and runs one banded DP over the rest of the
    block.  The range query's answer (and the ``dists_computed``
    accounting, which counts *evaluations*, not full DPs) is unchanged.
    The scalar backend has no band: it computes the exact distances and
    masks those above the bound.

    No edit distance exceeds ``len(query)`` plus the longest
    candidate's length, so for the native and numpy backends a larger
    bound is clamped to that sum: it changes no answer, keeps the bound
    a C ``long`` for the native kernel and keeps the numpy band inside
    the codepoint matrix.
    """
    if math.isinf(bound):
        return levenshtein_one_to_many(query, ys)
    ibound = math.floor(bound)
    if ibound < 0:
        return np.full(len(ys), np.inf)
    backend = active_backend()
    if backend == "scalar":
        exact = levenshtein_one_to_many(query, ys)
        return np.where(exact <= ibound, exact, np.inf)
    block = as_string_block(ys)
    ibound = min(ibound, len(query) + int(block.lengths.max(initial=0)))
    if backend == "native" and native is not None:
        return native.levenshtein_one_to_many_bounded(query, block, ibound)
    return fallback.levenshtein_one_to_many_bounded(query, block, ibound)
