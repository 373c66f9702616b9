"""Thin Python wrappers over the ``_ckernels`` C extension.

Each wrapper encodes its inputs with :mod:`.encode` (a
:class:`~.encode.StringBlock` is read as it is), allocates the
output array, and hands contiguous buffers to the extension, which
releases the GIL for the whole batch.  Importing this module raises
``ImportError`` when the extension is not built — the dispatch layer in
``repro.metrics.kernels`` catches that and falls back to numpy.
"""

from __future__ import annotations

import importlib
from typing import Any, Sequence

import numpy as np

from .encode import as_string_block, codepoints, encode_id_sets

# Imported by dotted name so a missing extension raises plain
# ImportError here (the dispatch layer's probe) without needing stubs.
_ckernels = importlib.import_module("repro.metrics._ckernels")

__all__ = [
    "minkowski_one_to_many",
    "minkowski_pairwise",
    "minkowski_rowwise",
    "hamming_pairwise",
    "hamming_rowwise",
    "jaccard_pairwise",
    "jaccard_rowwise",
    "levenshtein_one_to_many",
    "levenshtein_pairwise",
    "levenshtein_rowwise",
    "levenshtein_one_to_many_bounded",
]


def minkowski_pairwise(x: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    m, d = x.shape
    n = y.shape[0]
    out = np.empty((m, n), dtype=np.float64)
    if m and n:
        _ckernels.minkowski_pairwise(x, y, out, float(p), m, n, d)
    return out


def minkowski_one_to_many(x: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    """``x`` a C-contiguous float64 vector, ``y`` a non-empty matrix."""
    n, d = y.shape
    out = np.empty(n, dtype=np.float64)
    _ckernels.minkowski_pairwise(x, y, out, float(p), 1, n, d)
    return out


def minkowski_rowwise(x: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    n, d = x.shape
    out = np.empty(n, dtype=np.float64)
    if n:
        _ckernels.minkowski_rowwise(x, y, out, float(p), n, d)
    return out


def hamming_pairwise(
    x: np.ndarray, y: np.ndarray, normalized: bool
) -> np.ndarray:
    m, d = x.shape
    n = y.shape[0]
    out = np.empty((m, n), dtype=np.float64)
    if m and n:
        _ckernels.hamming_pairwise(x, y, out, m, n, d, bool(normalized))
    return out


def hamming_rowwise(
    x: np.ndarray, y: np.ndarray, normalized: bool
) -> np.ndarray:
    n, d = x.shape
    out = np.empty(n, dtype=np.float64)
    if n:
        _ckernels.hamming_rowwise(x, y, out, n, d, bool(normalized))
    return out


def jaccard_pairwise(
    xs: Sequence[Sequence[Any]], ys: Sequence[Sequence[Any]]
) -> np.ndarray:
    m, n = len(xs), len(ys)
    out = np.empty((m, n), dtype=np.float64)
    if m and n:
        (xdata, xoffsets), (ydata, yoffsets) = encode_id_sets([xs, ys])
        _ckernels.jaccard_pairwise(xdata, xoffsets, ydata, yoffsets, out, m, n)
    return out


def jaccard_rowwise(
    xs: Sequence[Sequence[Any]], ys: Sequence[Sequence[Any]]
) -> np.ndarray:
    n = len(xs)
    out = np.empty(n, dtype=np.float64)
    if n:
        (xdata, xoffsets), (ydata, yoffsets) = encode_id_sets([xs, ys])
        _ckernels.jaccard_rowwise(xdata, xoffsets, ydata, yoffsets, out, n)
    return out


def levenshtein_one_to_many(query: str, ys: Sequence[str]) -> np.ndarray:
    return levenshtein_pairwise([query], ys)[0]


def levenshtein_pairwise(
    xs: Sequence[str], ys: Sequence[str]
) -> np.ndarray:
    m, n = len(xs), len(ys)
    out = np.empty((m, n), dtype=np.float64)
    if m and n:
        x, y = as_string_block(xs), as_string_block(ys)
        _ckernels.levenshtein_pairwise(
            x.data, x.offsets, y.data, y.offsets, out, m, n
        )
    return out


def levenshtein_rowwise(
    xs: Sequence[str], ys: Sequence[str]
) -> np.ndarray:
    n = len(xs)
    out = np.empty(n, dtype=np.float64)
    if n:
        x, y = as_string_block(xs), as_string_block(ys)
        _ckernels.levenshtein_rowwise(
            x.data, x.offsets, y.data, y.offsets, out, n
        )
    return out


def levenshtein_one_to_many_bounded(
    query: str, ys: Sequence[str], bound: int
) -> np.ndarray:
    """Exact distances where ``<= bound``; ``inf`` where the banded DP
    proves the distance exceeds the bound.  ``bound`` must fit a C
    ``long`` (the dispatcher clamps it)."""
    n = len(ys)
    out = np.empty(n, dtype=np.float64)
    if n:
        y = as_string_block(ys)
        _ckernels.levenshtein_one_to_many_bounded(
            codepoints(query), y.data, y.offsets, out, n, int(bound)
        )
    return out
