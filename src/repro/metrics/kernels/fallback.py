"""NumPy fallback kernels: always available, no compiled code required.

These are the batch formulations the dispatch layer uses when the
native extension is absent (or disabled via ``REPRO_NO_NATIVE=1``).
They hold the GIL but amortise Python-level dispatch over whole
batches:

* Minkowski reduces a column-major difference matrix one coordinate at
  a time, in the C kernels' order (see :func:`minkowski_norms`);
* Hamming is a plain broadcast reduction;
* Levenshtein runs the DP *across the entire batch at once*, over a
  :class:`~repro.metrics.kernels.encode.StringBlock`: the CSR encoder
  shared with the native wrappers (one join, one UTF-32 encode) feeds
  one masked scatter into a zero-padded ``(width, n)`` codepoint
  matrix, which a block keeps, so a cached block skips the encode.
  The only Python loop iterates over the left string's characters;
  each step compares that character with the matrix rows it needs and
  updates one DP row for every pair in place on preallocated buffers.
  The in-row dependency ``cur[j] = min(t[j], cur[j-1] + 1)`` is
  resolved with the prefix-minimum identity
  ``cur[j] = min_{k<=j} (t[k] + (j - k))``: the row is kept shifted by
  ``-j``, so one ``np.minimum.accumulate`` finishes it.  The bounded
  one-to-many is banded, not exact-then-mask: candidates whose length
  differs from the query's by more than the bound are dropped, and
  each row updates only the ``2 * bound + 1`` cells around the
  diagonal.
* Jaccard loops over Python's C-implemented set intersection (there is
  no profitable dense formulation for sparse sets).

All integer-valued results are exact — the conformance suite asserts
bit-equality against both the scalar reference and the native kernels.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, Optional, Sequence, Set

import numpy as np

from .encode import as_string_block, codepoints

__all__ = [
    "minkowski_norms",
    "minkowski_one_to_many",
    "minkowski_pairwise",
    "minkowski_rowwise",
    "hamming_pairwise",
    "hamming_rowwise",
    "jaccard_scalar",
    "levenshtein_one_to_many",
    "levenshtein_one_to_many_bounded",
    "levenshtein_rowwise",
]


def minkowski_norms(diff: np.ndarray, p: float) -> np.ndarray:
    """L_p norms of the rows of the difference matrix ``diff``, which
    must be column-major (Fortran order); it is overwritten.

    numpy reduces a column-major matrix one coordinate (column) at a
    time over all rows: no inner loop per row, and each sum runs over
    the coordinates in order from the first, as the C loop's does, so
    L1 and L2 are bit-equal to the native kernel.  One row is contiguous
    either way and numpy would sum it pairwise, so it is accumulated
    explicitly.  Every Minkowski path (and ``MinkowskiMetric.distance``)
    reduces through here, so a distance a tree stores and the one a
    search computes for the same pair agree to the last bit.
    """
    n, d = diff.shape
    if not d:
        return np.zeros(n)
    inf = math.isinf(p)
    if p == 2.0:
        np.multiply(diff, diff, out=diff)
    else:
        np.abs(diff, out=diff)
        if not inf and p != 1.0:
            np.power(diff, p, out=diff)
    if inf:
        return np.maximum.reduce(diff, 1)
    acc = np.add.reduce(diff, 1) if n > 1 else np.add.accumulate(diff, 1)[:, -1]
    if p == 2.0:
        return np.sqrt(acc, out=acc)
    if p != 1.0:
        return np.power(acc, 1.0 / p, out=acc)
    return acc


def minkowski_one_to_many(x: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    """L_p distances from vector ``x`` to each row of float64 matrix ``y``."""
    return minkowski_norms(np.subtract(y, x, order="F"), p)


def minkowski_pairwise(x: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    """``(m, n)`` matrix of L_p distances between float64 matrix rows."""
    m, n = x.shape[0], y.shape[0]
    diff = np.subtract(x[:, None, :], y[None, :, :], order="F")
    norms = minkowski_norms(diff.reshape(m * n, x.shape[1], order="F"), p)
    return norms.reshape(m, n, order="F")


def minkowski_rowwise(x: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    """Aligned L_p distances between float64 matrix rows."""
    return minkowski_norms(np.subtract(x, y, order="F"), p)


def hamming_pairwise(
    x: np.ndarray, y: np.ndarray, normalized: bool
) -> np.ndarray:
    """``(m, n)`` Hamming distances between code-matrix rows."""
    diff = (x[:, None, :] != y[None, :, :]).sum(axis=2).astype(np.float64)
    if normalized and x.shape[1]:
        diff /= x.shape[1]
    return diff


def hamming_rowwise(
    x: np.ndarray, y: np.ndarray, normalized: bool
) -> np.ndarray:
    """Aligned Hamming distances between code-matrix rows."""
    diff = (x != y).sum(axis=1).astype(np.float64)
    if normalized and x.shape[1]:
        diff /= x.shape[1]
    return diff


def jaccard_scalar(a: Any, b: Any) -> float:
    """One Jaccard distance via Python's C-implemented set operations."""
    sa: Set[Any] = set(a)
    sb: Set[Any] = set(b)
    union = len(sa | sb)
    if union == 0:
        return 0.0
    return 1.0 - len(sa & sb) / union


# ``np.minimum.accumulate`` along the DP row runs element by element
# (~6 ns per cell); one ``np.minimum`` per row cell runs over all pairs
# at once but costs ~1.5 us per call.  Past this many pairs the per-cell
# loop wins.
_ROW_LOOP_MIN_PAIRS = 256


def _edit_dp(
    match: Callable[[int, int, int], np.ndarray],
    left_len: np.ndarray,
    right_len: np.ndarray,
    width: int,
    band: Optional[int] = None,
) -> np.ndarray:
    """Edit distances of ``n`` string pairs, one DP row per left character.

    ``match(i, lo, hi)`` returns a ``(hi - lo, n)`` matrix holding 1
    (or True) where character ``i`` of the left string equals character
    ``j + 1`` of the right string, for ``lo <= j < hi``.  The row is
    kept shifted, ``state[j] = D[i][j] - j``, so the recurrence reads

        state'[j] = min_{k <= j} t[k],  t[0] = i,
        t[j] = min(state[j - 1] - match[j - 1], state[j] + 1),

    which is a subtract, an add, a minimum and one prefix-minimum, all
    in place on preallocated buffers (the prefix-minimum is one
    ``np.minimum.accumulate`` for a small batch, one ``np.minimum`` per
    cell of the row for a large one).  Pair ``r`` is read off at row
    ``left_len[r]``, column ``right_len[r]``; zero padding never reaches
    a cell that is read, because ``D[i][j]`` depends only on
    ``D[:i+1][:j+1]``.

    With ``band = k`` each row updates only the cells with
    ``|i - j| <= k``.  A cell outside the band keeps a stale or initial
    value that is at least ``k + 1``, or is not read at all, and a path
    of cost at most ``k`` never leaves the band, so every distance at
    most ``k`` is exact and every larger one reads above ``k``.  Pairs
    whose lengths differ by more than ``k`` must not be passed.
    """
    n = len(left_len)
    rows = int(left_len.max(initial=0))
    reach = band if band is not None else rows + width
    state = np.zeros((width + 1, n), dtype=np.int64)
    t = np.empty_like(state)
    deletion = np.empty_like(state)
    finishing = {
        i: np.flatnonzero(left_len == i)
        for i in np.flatnonzero(np.bincount(left_len)).tolist()
    }
    out = np.empty(n, dtype=np.float64)

    def read_off(i: int) -> None:
        rows_done = finishing.get(i)
        if rows_done is not None:
            cols = right_len[rows_done]
            out[rows_done] = state[cols, rows_done] + cols

    read_off(0)
    for i in range(1, rows + 1):
        lo = max(i - reach, 0)
        hi = min(i + reach, width)
        first = max(lo, 1)
        if first <= hi:
            cells = slice(first, hi + 1)
            np.subtract(
                state[first - 1 : hi], match(i, first - 1, hi), out=t[cells]
            )
            np.add(state[cells], 1, out=deletion[cells])
            np.minimum(t[cells], deletion[cells], out=t[cells])
        if lo == 0:
            t[0] = i
        if n < _ROW_LOOP_MIN_PAIRS:
            np.minimum.accumulate(
                t[lo : hi + 1], axis=0, out=state[lo : hi + 1]
            )
        else:
            state[lo] = t[lo]
            for j in range(lo + 1, hi + 1):
                np.minimum(state[j - 1], t[j], out=state[j])
        read_off(i)
    return out


def _query_dp(
    query: str, codes: np.ndarray, lengths: np.ndarray, band: Optional[int]
) -> np.ndarray:
    """:func:`_edit_dp` of ``query`` against the columns of ``codes``."""
    q = codepoints(query)
    return _edit_dp(
        lambda i, lo, hi: codes[lo:hi] == q[i - 1],
        np.full(len(lengths), len(query), dtype=np.int64),
        lengths,
        codes.shape[0],
        band,
    )


def levenshtein_one_to_many(query: str, ys: Sequence[str]) -> np.ndarray:
    """Edit distances from ``query`` to each candidate, batched in numpy
    over the block's padded codepoint matrix."""
    block = as_string_block(ys)
    return _query_dp(query, block.codes, block.lengths, None)


def levenshtein_one_to_many_bounded(
    query: str, ys: Sequence[str], bound: int
) -> np.ndarray:
    """Edit distances from ``query`` where ``<= bound``, ``inf`` elsewhere:
    one banded DP over the block.

    Candidates whose length differs from the query's by more than
    ``bound`` are dropped before the DP (their distance exceeds it);
    the rest run through :func:`_edit_dp` with ``band=bound``, which
    updates only the cells within ``bound`` of the diagonal.  No match
    tensor is built: each row compares one query character with the
    band's rows of the codepoint matrix.
    """
    block = as_string_block(ys)
    out = np.full(len(block), np.inf)
    keep = np.flatnonzero(np.abs(block.lengths - len(query)) <= bound)
    if keep.size:
        lengths = block.lengths[keep]
        codes = block.codes[: int(lengths.max())]
        if keep.size < len(block):
            codes = codes[:, keep]
        dists = _query_dp(query, codes, lengths, bound)
        out[keep] = np.where(dists <= bound, dists, np.inf)
    return out


def levenshtein_rowwise(
    xs: Sequence[str], ys: Sequence[str]
) -> np.ndarray:
    """Aligned edit distances, batched: one DP row per character of the
    longest left string, each pair read off at its own length.

    Each row compares one left character per pair with the right
    strings' codepoint matrix: the histogram sampler passes thousands
    of pairs, and a whole match tensor would cost
    ``8 * width_x * width_y`` bytes per pair.
    """
    left = as_string_block(xs)
    right = as_string_block(ys)
    left_codes, right_codes = left.codes, right.codes
    return _edit_dp(
        lambda i, lo, hi: right_codes[lo:hi] == left_codes[i - 1],
        left.lengths,
        right.lengths,
        right_codes.shape[0],
    )


def levenshtein_pairwise(
    xs: Sequence[str], ys: Sequence[str]
) -> np.ndarray:
    """``(m, n)`` edit distances: one batched one-to-many per left string."""
    if len(xs) == 0 or len(ys) == 0:
        return np.empty((len(xs), len(ys)), dtype=np.float64)
    block = as_string_block(ys)
    rows: List[np.ndarray] = [levenshtein_one_to_many(x, block) for x in xs]
    return np.vstack(rows)
