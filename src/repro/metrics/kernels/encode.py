"""Input encoding for the batched kernels.

The native extension speaks three wire formats, all C-contiguous:

* **float64 matrices** for Minkowski vectors (a 1-D input is one row);
* **int64 code matrices** for Hamming (integers and booleans pass
  through; equal-length strings are decomposed into per-character
  codepoint columns; arbitrary token sequences are mapped through a
  shared vocabulary);
* **CSR pairs** ``(data, offsets)`` for variable-length payloads —
  uint32 codepoints for Levenshtein, sorted unique int64 ids for
  Jaccard.  ``offsets`` has ``len(items) + 1`` entries with
  ``data[offsets[i]:offsets[i+1]]`` the i-th payload.

A :class:`StringBlock` keeps strings together with their CSR pair (and
the numpy kernels' padded codepoint matrix), so a caller that asks many
queries of the same strings encodes them once.

Everything here is shared by the native wrappers and the numpy
fallback so the two paths see byte-identical inputs.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ...exceptions import InvalidParameterError

__all__ = [
    "as_f64_matrix",
    "as_f64_vector",
    "as_string_block",
    "codepoints",
    "encode_strings",
    "encode_id_sets",
    "hamming_code_matrix",
    "StringBlock",
]


def as_f64_matrix(xs: Sequence[Any]) -> np.ndarray:
    """A C-contiguous ``(n, d)`` float64 matrix; 1-D input becomes one row.

    An empty sequence has no rows: it becomes ``(0, 0)``.  A read-only
    C-contiguous float64 matrix (a :meth:`MinkowskiMetric.encode` block)
    is returned as is, without a copy.
    """
    arr = np.ascontiguousarray(np.asarray(xs, dtype=np.float64))
    if arr.ndim == 1:
        arr = arr.reshape(1, -1) if arr.size else arr.reshape(0, 0)
    if arr.ndim != 2:
        raise InvalidParameterError(
            f"expected a vector or a matrix of vectors, got ndim={arr.ndim}"
        )
    return arr


def as_f64_vector(x: Any) -> np.ndarray:
    """A C-contiguous 1-D float64 vector."""
    arr = np.ascontiguousarray(np.asarray(x, dtype=np.float64)).reshape(-1)
    return arr


def codepoints(s: str) -> np.ndarray:
    """The string's codepoints as a uint32 array (UTF-32-LE view)."""
    if not s:
        return np.empty(0, dtype=np.uint32)
    return np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)


def encode_strings(strings: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """CSR-encode strings as ``(uint32 codepoint data, int64 offsets)``."""
    offsets = np.zeros(len(strings) + 1, dtype=np.int64)
    if strings:
        offsets[1:] = np.cumsum([len(s) for s in strings])
    joined = "".join(strings)
    if joined:
        data = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
    else:
        data = np.empty(0, dtype=np.uint32)
    return data, offsets


class StringBlock(tuple):
    """Strings in the edit-distance kernels' input form.

    Still a tuple of the original strings, so ``len``, iteration,
    indexing and the scalar backend see plain strings.  It also carries
    the CSR pair ``data`` / ``offsets`` of :func:`encode_strings` (what
    the native kernels read), the ``lengths`` vector and, built on first
    use, ``codes``: the zero-padded ``(width, n)`` uint32 codepoint
    matrix, one string per column (what the numpy kernels read).  All
    arrays are read-only.  Two threads that build ``codes`` at the same
    time build equal matrices and keep one, so the race is harmless.
    """

    data: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray

    def __new__(cls, strings: Iterable[str] = ()) -> "StringBlock":
        block = super().__new__(cls, strings)
        data, offsets = encode_strings(block)
        block._set_csr(data, offsets)
        return block

    def _set_csr(self, data: np.ndarray, offsets: np.ndarray) -> None:
        self.data = data
        self.offsets = offsets
        self.lengths = np.diff(offsets)
        for array in (self.data, self.offsets, self.lengths):
            array.flags.writeable = False
        self._codes: Any = None
        self._parts: Sequence[StringBlock] = ()

    @property
    def codes(self) -> np.ndarray:
        codes = self._codes
        if codes is None:
            width = int(self.lengths.max(initial=0))
            codes = np.zeros((width, len(self)), dtype=np.uint32)
            if self._parts:
                # A join: copy each part's (cached) matrix into place.
                start = 0
                for part in self._parts:
                    part_codes = part.codes
                    end = start + len(part)
                    codes[: part_codes.shape[0], start:end] = part_codes
                    start = end
            else:
                # One masked scatter: the mask is taken through the
                # ``(n, width)`` transpose, so its row-major order is
                # the CSR order.
                codes.T[np.arange(width) < self.lengths[:, None]] = self.data
            codes.flags.writeable = False
            self._codes = codes
        return codes

    def take(self, indices: np.ndarray) -> "StringBlock":
        """The strings at ``indices`` (an int array) in one block: the
        CSR arrays are gathered, nothing is re-encoded."""
        indices = np.asarray(indices, dtype=np.int64)
        block = super().__new__(
            type(self), map(self.__getitem__, indices.tolist())
        )
        lengths = self.lengths[indices]
        offsets = np.zeros(len(block) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        # Character t of the gathered data comes from its string's start
        # in the old data plus its position within the string.
        shift = np.repeat(self.offsets[indices] - offsets[:-1], lengths)
        block._set_csr(
            self.data[shift + np.arange(int(offsets[-1]))], offsets
        )
        return block

    @classmethod
    def join(cls, blocks: Sequence[Sequence[str]]) -> "StringBlock":
        """One block holding every block's strings in order: the CSR
        arrays are concatenated, nothing is re-encoded, and ``codes`` is
        built from the parts' matrices."""
        parts = [as_string_block(block) for block in blocks]
        if len(parts) == 1:
            return parts[0]
        block = super().__new__(cls, itertools.chain.from_iterable(parts))
        offsets = np.zeros(len(block) + 1, dtype=np.int64)
        if parts:
            np.cumsum(
                np.concatenate([part.lengths for part in parts]),
                out=offsets[1:],
            )
        data = np.concatenate(
            [part.data for part in parts] or [np.empty(0, dtype=np.uint32)]
        )
        block._set_csr(data, offsets)
        block._parts = parts
        return block


def as_string_block(strings: Sequence[str]) -> StringBlock:
    """``strings`` as a :class:`StringBlock` (a block is returned as is)."""
    if isinstance(strings, StringBlock):
        return strings
    return StringBlock(strings)


def encode_id_sets(
    groups: Sequence[Sequence[Any]],
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """CSR-encode several collections of sets through one shared vocabulary.

    Elements only need to be hashable; each element is assigned an
    arbitrary (but consistent) int64 id, and each set becomes a sorted
    id run.  Consistency across *all* groups is what makes intersection
    counts on the ids equal intersection counts on the elements.
    """
    vocab: Dict[Any, int] = {}
    encoded: List[Tuple[np.ndarray, np.ndarray]] = []
    for sets in groups:
        runs: List[List[int]] = []
        for members in sets:
            ids = [vocab.setdefault(element, len(vocab)) for element in members]
            ids.sort()
            runs.append(ids)
        offsets = np.zeros(len(runs) + 1, dtype=np.int64)
        if runs:
            offsets[1:] = np.cumsum([len(run) for run in runs])
        total = int(offsets[-1])
        data = np.empty(total, dtype=np.int64)
        position = 0
        for run in runs:
            data[position : position + len(run)] = run
            position += len(run)
        encoded.append((data, offsets))
    return encoded


def _char_matrix(arr: np.ndarray) -> np.ndarray:
    """Decompose an array of equal-length strings into codepoint columns."""
    lengths = {len(s) for s in arr.tolist()}
    if len(lengths) > 1:
        raise InvalidParameterError(
            f"Hamming distance needs equal lengths, got lengths {sorted(lengths)}"
        )
    width = lengths.pop() if lengths else 0
    n = arr.shape[0]
    if width == 0:
        return np.empty((n, 0), dtype=np.int64)
    data = np.frombuffer(
        "".join(arr.tolist()).encode("utf-32-le"), dtype=np.uint32
    )
    return data.reshape(n, width).astype(np.int64)


def hamming_code_matrix(xs: Sequence[Any]) -> np.ndarray:
    """An ``(n, d)`` matrix whose element-wise ``!=`` matches the scalar
    Hamming semantics.

    Integers and booleans become int64 codes (native-eligible); strings
    are decomposed into per-character codepoint columns (the scalar
    ``distance`` compares characters, so the batch paths must too);
    floats stay float64 (so ``-0.0 == 0.0`` and ``nan != nan`` keep
    IEEE semantics); everything else stays an object matrix for the
    fallback's element-wise comparison.
    """
    arr = np.asarray(xs)
    if arr.ndim == 1 and arr.dtype.kind == "U":
        return _char_matrix(arr)
    if arr.ndim == 1 and arr.dtype.kind == "O":
        # Ragged or token-sequence input: stack rows (raises naturally on
        # genuinely ragged data, mirroring the scalar length check).
        rows = [np.asarray(row) for row in xs]
        widths = {row.shape[0] if row.ndim else 1 for row in rows}
        if len(widths) > 1:
            raise InvalidParameterError(
                "Hamming distance needs equal lengths, got lengths "
                f"{sorted(widths)}"
            )
        arr = np.stack([row.reshape(-1) for row in rows]) if rows else arr
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise InvalidParameterError(
            f"expected a sequence of equal-length sequences, got ndim={arr.ndim}"
        )
    if arr.dtype.kind in "ib":
        return np.ascontiguousarray(arr, dtype=np.int64)
    if arr.dtype.kind == "u":
        if arr.dtype.itemsize < 8:
            return np.ascontiguousarray(arr, dtype=np.int64)
        return np.ascontiguousarray(arr)
    if arr.dtype.kind == "U":
        # 2-D array of single characters (or longer tokens): map through
        # a per-call vocabulary so equality is preserved exactly.
        flat = arr.reshape(-1)
        _uniques, codes = np.unique(flat, return_inverse=True)
        return np.ascontiguousarray(
            codes.reshape(arr.shape).astype(np.int64)
        )
    if arr.dtype.kind == "f":
        return np.ascontiguousarray(arr, dtype=np.float64)
    return arr


def iter_all_strings(items: Iterable[Any]) -> bool:
    """True when every item is a plain ``str``."""
    return all(isinstance(item, str) for item in items)
