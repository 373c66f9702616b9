"""NumPy fallback kernels: always available, no compiled code required.

These are the batch formulations the dispatch layer uses when the
native extension is absent (or disabled via ``REPRO_NO_NATIVE=1``).
They hold the GIL but amortise Python-level dispatch over whole
batches:

* Minkowski / Hamming are plain broadcast reductions;
* Levenshtein runs the DP *across the entire batch at once*.  A batch
  is encoded in one pass: the CSR encoder shared with the native
  wrappers (one join, one UTF-32 encode) feeds one masked scatter into
  a zero-padded ``(width, n)`` codepoint matrix.  For one-to-many, one
  comparison then builds the whole ``(len(query), width, n)`` match
  tensor.  The only Python loop iterates over the left string's
  characters; each step updates one DP row for every pair in place on
  preallocated buffers.  The in-row dependency
  ``cur[j] = min(t[j], cur[j-1] + 1)`` is resolved with the
  prefix-minimum identity ``cur[j] = min_{k<=j} (t[k] + (j - k))``:
  the row is kept shifted by ``-j``, so one ``np.minimum.accumulate``
  finishes it.  A call over 100 words costs ~``len(query)`` steps of
  four vector operations each.
* Jaccard loops over Python's C-implemented set intersection (there is
  no profitable dense formulation for sparse sets).

All integer-valued results are exact — the conformance suite asserts
bit-equality against both the scalar reference and the native kernels.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence, Set, Tuple

import numpy as np

from .encode import codepoints, encode_strings

__all__ = [
    "minkowski_pairwise",
    "minkowski_rowwise",
    "hamming_pairwise",
    "hamming_rowwise",
    "jaccard_scalar",
    "levenshtein_one_to_many",
    "levenshtein_rowwise",
]


def minkowski_pairwise(x: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    """``(m, n)`` matrix of L_p distances between float64 matrix rows."""
    diff = np.abs(x[:, None, :] - y[None, :, :])
    if np.isinf(p):
        return diff.max(axis=2, initial=0.0)
    if p == 1.0:
        return diff.sum(axis=2)
    if p == 2.0:
        return np.sqrt((diff * diff).sum(axis=2))
    return (diff**p).sum(axis=2) ** (1.0 / p)


def minkowski_rowwise(x: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    """Aligned L_p distances between float64 matrix rows."""
    diff = np.abs(x - y)
    if np.isinf(p):
        return diff.max(axis=1, initial=0.0)
    if p == 1.0:
        return diff.sum(axis=1)
    if p == 2.0:
        return np.sqrt((diff * diff).sum(axis=1))
    return (diff**p).sum(axis=1) ** (1.0 / p)


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


def _code_matrix(strings: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """The strings' codepoints as a ``(width, n)`` uint32 matrix, one
    string per column, zero-padded, plus the int64 lengths.

    One CSR encode and one masked scatter: the mask is taken through the
    ``(n, width)`` transpose, so its row-major order is the CSR order.
    """
    data, offsets = encode_strings(strings)
    lengths = np.diff(offsets)
    width = int(lengths.max(initial=0))
    codes = np.zeros((width, len(strings)), dtype=np.uint32)
    codes.T[np.arange(width) < lengths[:, None]] = data
    return codes, lengths


def _edit_dp(
    matches: Iterable[np.ndarray],
    left_len: np.ndarray,
    right_len: np.ndarray,
    width: int,
) -> np.ndarray:
    """Edit distances of ``n`` string pairs, one DP row per left character.

    ``matches`` yields, for left characters ``i = 1, 2, ...``, a
    ``(width, n)`` int64 matrix holding 1 where character ``i`` of the
    left string equals character ``j`` of the right string.  The row is
    kept shifted, ``state[j] = D[i][j] - j``, so the recurrence reads

        state'[j] = min_{k <= j} t[k],  t[0] = i,
        t[j] = min(state[j - 1] - match[j - 1], state[j] + 1),

    which is a subtract, an add, a minimum and one prefix-minimum, all
    in place on preallocated buffers.  Pair ``r`` is read off at row
    ``left_len[r]``, column ``right_len[r]``; zero padding never reaches
    a cell that is read, because ``D[i][j]`` depends only on
    ``D[:i+1][:j+1]``.
    """
    n = len(left_len)
    state = np.zeros((width + 1, n), dtype=np.int64)
    t = np.empty_like(state)
    deletion = np.empty((width, n), dtype=np.int64)
    head, tail, t_tail = state[:-1], state[1:], t[1:]
    finishing = {
        i: np.flatnonzero(left_len == i)
        for i in np.flatnonzero(np.bincount(left_len)).tolist()
    }
    out = np.empty(n, dtype=np.float64)

    def read_off(i: int) -> None:
        rows = finishing.get(i)
        if rows is not None:
            cols = right_len[rows]
            out[rows] = state[cols, rows] + cols

    read_off(0)
    for i, match in enumerate(matches, 1):
        np.subtract(head, match, out=t_tail)
        np.add(tail, 1, out=deletion)
        np.minimum(t_tail, deletion, out=t_tail)
        t[0] = i
        np.minimum.accumulate(t, axis=0, out=state)
        read_off(i)
    return out


def levenshtein_one_to_many(query: str, ys: Sequence[str]) -> np.ndarray:
    """Edit distances from ``query`` to each candidate, batched in numpy.

    The ``(len(query), width, n)`` match tensor is built in one
    comparison before the DP runs.
    """
    codes, lengths = _code_matrix(ys)
    q = codepoints(query)
    matches = (q[:, None, None] == codes[None]).astype(np.int64)
    left_len = np.full(len(ys), len(query), dtype=np.int64)
    return _edit_dp(matches, left_len, lengths, codes.shape[0])


def levenshtein_rowwise(
    xs: Sequence[str], ys: Sequence[str]
) -> np.ndarray:
    """Aligned edit distances, batched: one DP row per character of the
    longest left string, each pair read off at its own length.

    The match matrices are made one left character at a time: the
    histogram sampler passes thousands of pairs, and the whole tensor
    would cost ``8 * width_x * width_y`` bytes per pair.
    """
    left, left_len = _code_matrix(xs)
    right, right_len = _code_matrix(ys)
    matches = ((right == row).astype(np.int64) for row in left)
    return _edit_dp(matches, left_len, right_len, right.shape[0])


def levenshtein_pairwise(
    xs: Sequence[str], ys: Sequence[str]
) -> np.ndarray:
    """``(m, n)`` edit distances: one batched one-to-many per left string."""
    if len(xs) == 0 or len(ys) == 0:
        return np.empty((len(xs), len(ys)), dtype=np.float64)
    rows: List[np.ndarray] = [levenshtein_one_to_many(x, ys) for x in xs]
    return np.vstack(rows)
