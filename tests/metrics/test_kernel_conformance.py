"""Differential kernel-conformance harness.

The batched kernels swap the innermost layer of the whole stack, so this
suite is the safety net: for every metric with a batch kernel it asserts
that the **native** C backend, the **numpy** fallback, and the
independently-coded **scalar** reference (``kernels.scalar``, written
separately from the production ``distance()`` paths) all agree with each
other *and* with the production scalar ``Metric.distance`` — exactly for
integer-valued metrics, within ``rtol=1e-9`` for float-summing ones.

When the extension isn't built, the native backend is skipped per-case
(the numpy/scalar/production comparisons still run), so the suite is
meaningful with the extension both present and absent.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    CountingMetric,
    EditDistance,
    HammingDistance,
    JaccardDistance,
    L1,
    L2,
    LInf,
    MinkowskiMetric,
    kernels,
)
from repro.metrics.kernels import fallback
from repro.metrics.kernels.encode import StringBlock, codepoints, encode_strings
from repro.mtree import MTree, NodeLayout

# BMP (é, €) and astral (𝔸) characters exercise the UTF-32 encoding.
WORD = st.text(alphabet="abcdefgé€𝔸", min_size=0, max_size=16)
WORDS = st.lists(WORD, min_size=0, max_size=12)
VEC = st.lists(
    st.floats(
        min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
    ),
    min_size=3,
    max_size=3,
)
VECS = st.lists(VEC, min_size=1, max_size=8)
CODE = st.lists(st.integers(min_value=0, max_value=5), min_size=4, max_size=4)
CODES = st.lists(CODE, min_size=1, max_size=8)
IDSET = st.frozensets(st.integers(min_value=0, max_value=20), max_size=8)
IDSETS = st.lists(IDSET, min_size=1, max_size=8)


def backends():
    names = ["numpy", "scalar"]
    if kernels.native_available():
        names.insert(0, "native")
    return names


def all_backends(fn):
    """Evaluate ``fn`` under every available backend, keyed by name."""
    out = {}
    for name in backends():
        with kernels.use_backend(name):
            out[name] = fn()
    return out


def assert_agree(results, exact):
    names = list(results)
    ref = results[names[0]]
    for name in names[1:]:
        if exact:
            assert np.array_equal(ref, results[name]), (names[0], name)
        else:
            np.testing.assert_allclose(
                ref, results[name], rtol=1e-9, err_msg=f"{names[0]} vs {name}"
            )


# --------------------------------------------------------- edit distance


@given(q=WORD, ys=WORDS)
def test_levenshtein_one_to_many_conformance(q, ys):
    results = all_backends(lambda: kernels.levenshtein_one_to_many(q, ys))
    assert_agree(results, exact=True)
    metric = EditDistance()
    expected = np.array([metric.distance(q, y) for y in ys])
    assert np.array_equal(results["numpy"], expected)


@given(q=WORD, ys=WORDS, bound=st.integers(min_value=0, max_value=12))
def test_levenshtein_bounded_conformance(q, ys, bound):
    results = all_backends(
        lambda: kernels.levenshtein_one_to_many_bounded(q, ys, bound)
    )
    assert_agree(results, exact=True)
    metric = EditDistance()
    expected = np.array(
        [metric.bounded_distance(q, y, bound) for y in ys]
    )
    assert np.array_equal(results["numpy"], expected)


@pytest.mark.parametrize("bound", [0.5, 1.5, 2.999, math.inf, 1e20])
@given(q=WORD, ys=WORDS)
@settings(max_examples=25)
def test_levenshtein_scalar_and_batched_bounded_agree(bound, q, ys):
    """The scalar ``bounded_distance`` and the batched kernels answer
    alike at fractional, infinite and huge bounds: a finite bound is
    floored on both paths."""
    metric = EditDistance()
    expected = np.array([metric.bounded_distance(q, y, bound) for y in ys])
    results = all_backends(
        lambda: kernels.levenshtein_one_to_many_bounded(q, ys, bound)
    )
    assert_agree(results, exact=True)
    assert np.array_equal(results["numpy"], expected)
    exact = np.array([metric.distance(q, y) for y in ys])
    assert np.array_equal(expected, np.where(exact <= bound, exact, np.inf))


@pytest.mark.parametrize("bound", [2**62, 2**63 - 1, 1e20])
@given(q=WORD, ys=WORDS)
@settings(max_examples=25)
def test_levenshtein_bounded_at_huge_bounds(bound, q, ys):
    """A bound past every possible distance answers exactly, on every
    backend: it is clamped to ``len(q)`` plus the longest candidate, so
    it neither overflows a C ``long`` nor ``bound + 1``."""
    metric = EditDistance()
    expected = np.array([metric.distance(q, y) for y in ys])
    results = all_backends(
        lambda: kernels.levenshtein_one_to_many_bounded(q, ys, bound)
    )
    assert_agree(results, exact=True)
    assert np.array_equal(results["numpy"], expected)
    assert np.array_equal(
        metric.one_to_many_bounded(q, metric.encode(ys), bound), expected
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_levenshtein_large_batches_conformance(seed):
    """Batches past the numpy DP's row-loop threshold (an M-tree level
    joins thousands of words) agree with the scalar reference."""
    rng = np.random.default_rng(seed)
    alphabet = list("abcdefgé€𝔸")

    def word():
        return "".join(rng.choice(alphabet, size=rng.integers(0, 14)))

    q = word()
    xs = [word() for _ in range(400)]
    ys = [word() for _ in range(400)]
    assert len(ys) >= fallback._ROW_LOOP_MIN_PAIRS
    block = EditDistance().encode(ys)
    for bound in (0, 2, 5, 40):
        results = all_backends(
            lambda: kernels.levenshtein_one_to_many_bounded(q, block, bound)
        )
        assert_agree(results, exact=True)
    results = all_backends(lambda: kernels.levenshtein_one_to_many(q, block))
    assert_agree(results, exact=True)
    results = all_backends(lambda: kernels.levenshtein_rowwise(xs, ys))
    assert_agree(results, exact=True)


@given(xs=WORDS, ys=WORDS)
def test_levenshtein_pairwise_and_rowwise_conformance(xs, ys):
    results = all_backends(lambda: kernels.levenshtein_pairwise(xs, ys))
    assert_agree(results, exact=True)
    n = min(len(xs), len(ys))
    rw = all_backends(lambda: kernels.levenshtein_rowwise(xs[:n], ys[:n]))
    assert_agree(rw, exact=True)
    if n:
        assert np.array_equal(
            rw["numpy"], results["numpy"][np.arange(n), np.arange(n)][:n]
        )


# ------------------------------------------------------------- Minkowski


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf, 2.5])
@given(xs=VECS, ys=VECS)
@settings(max_examples=25)
def test_minkowski_conformance(p, xs, ys):
    results = all_backends(lambda: kernels.minkowski_pairwise(xs, ys, p))
    # L_inf is a max of |diffs| — identical in any evaluation order — so
    # it must be bit-exact; summing norms agree to 1e-9.
    assert_agree(results, exact=math.isinf(p))
    metric = MinkowskiMetric(p)
    expected = np.array(
        [[metric.distance(x, y) for y in ys] for x in xs]
    )
    np.testing.assert_allclose(results["numpy"], expected, rtol=1e-9)


@given(xs=VECS)
def test_minkowski_one_to_many_matches_scalar_distance(xs):
    metric = L2()
    results = all_backends(
        lambda: kernels.minkowski_one_to_many(xs[0], xs, 2.0)
    )
    assert_agree(results, exact=False)
    expected = np.array([metric.distance(xs[0], y) for y in xs])
    np.testing.assert_allclose(results["numpy"], expected, rtol=1e-9)


# Row counts where the numpy one-to-many could change its summation
# order: one row (summed explicitly; numpy would sum a lone contiguous
# row pairwise), two rows (the column-major reduction), numpy's pairwise
# block size either side, and about 3,000 (a leaf level of the e2e tree).
ONE_TO_MANY_ROWS = [1, 2, 127, 128, 3000]


@pytest.mark.parametrize("rows", ONE_TO_MANY_ROWS)
@pytest.mark.parametrize("d", [3, 8])
@pytest.mark.parametrize("p", [1.0, 2.0, 2.5, math.inf])
def test_minkowski_one_to_many_on_large_blocks(rows, d, p):
    """The one-to-many kernel over an encoded block, on every backend:
    L-inf bit-equal across all three, numpy L1/L2 bit-equal to native
    (both sum the coordinates in order), and every backend within
    ``rtol=1e-9`` of ``Metric.distance``."""
    rng = np.random.default_rng([rows, d])
    # Magnitudes spread over 12 decades, so a changed summation order
    # shows in the last bits.
    ys = rng.uniform(-1, 1, (rows, d)) * 10.0 ** rng.integers(-6, 6, (rows, d))
    x = rng.uniform(-1, 1, d)
    metric = MinkowskiMetric(p)
    block = metric.encode(ys)
    results = all_backends(lambda: kernels.minkowski_one_to_many(x, block, p))
    assert_agree(results, exact=math.isinf(p))
    if "native" in results and p in (1.0, 2.0):
        assert np.array_equal(results["numpy"], results["native"])
    # A plain (unencoded) input takes the same kernel.
    with kernels.use_backend("numpy"):
        assert np.array_equal(
            kernels.minkowski_one_to_many(list(x), ys.tolist(), p),
            results["numpy"],
        )
    expected = np.array([metric.distance(x, y) for y in ys])
    for name, got in results.items():
        np.testing.assert_allclose(got, expected, rtol=1e-9, err_msg=name)


def test_numpy_minkowski_sums_coordinates_in_order():
    """Every numpy Minkowski path against a column-by-column running sum
    in Python: the order the C loop uses, checked without the extension.
    A tree stores distances from ``pairwise``, ``one_to_many`` and
    ``distance`` and a search recomputes them with ``one_to_many``, so
    all of them must agree to the last bit."""
    rng = np.random.default_rng(5)
    for rows in ONE_TO_MANY_ROWS:
        ys = rng.uniform(-1, 1, (rows, 8)) * 10.0 ** rng.integers(
            -6, 6, (rows, 8)
        )
        xs = rng.uniform(-1, 1, (3, 8))
        x = xs[0]
        for p in (1.0, 2.0):
            acc = np.zeros((len(xs), rows))
            for j in range(8):
                gap = np.abs(ys[:, j] - xs[:, j, None])
                acc = acc + (gap * gap if p == 2.0 else gap)
            want = np.sqrt(acc) if p == 2.0 else acc
            metric = MinkowskiMetric(p)
            got = {
                "one_to_many": fallback.minkowski_one_to_many(x, ys, p),
                "pairwise": fallback.minkowski_pairwise(xs, ys, p),
                "pairwise, one row": fallback.minkowski_pairwise(
                    xs[:1], ys, p
                )[0],
                "rowwise": fallback.minkowski_rowwise(
                    np.broadcast_to(x, ys.shape), ys, p
                ),
                "distance": np.array([metric.distance(x, y) for y in ys]),
            }
            for name, values in got.items():
                expect = want if name == "pairwise" else want[0]
                assert np.array_equal(values, expect), (rows, p, name)


@pytest.mark.skipif(
    not kernels.native_available(), reason="native extension not built"
)
@pytest.mark.parametrize("p", [2.5, 3.0])
def test_native_lp_distance_equals_the_search(p):
    """numpy's power and the C kernel's pow differ in the last bit for
    some rows, so on native ``distance`` must sum with the kernel: an
    inserted tree stores parent distances from ``distance`` and a
    search recomputes them with ``one_to_many``.  Every stored object
    is then found at radius zero, with and without parent pruning."""
    rng = np.random.default_rng(11)
    points = rng.uniform(-1, 1, (300, 8)) * 10.0 ** rng.integers(
        -3, 3, (300, 8)
    )
    metric = MinkowskiMetric(p)
    layout = NodeLayout(node_size_bytes=256, object_bytes=32)
    with kernels.use_backend("native"):
        for x in points[:20]:
            assert np.array_equal(
                [metric.distance(x, y) for y in points],
                metric.one_to_many(x, points),
            )
        tree = MTree(metric, layout, seed=1)
        tree.insert_many(points)
        for i, point in enumerate(points):
            for pruning in (False, True):
                found = tree.range_query(point, 0.0, use_parent_pruning=pruning)
                assert i in found.oids(), (i, pruning)


# --------------------------------------------------------------- Hamming


@pytest.mark.parametrize("normalized", [False, True])
@given(xs=CODES, ys=CODES)
@settings(max_examples=25)
def test_hamming_conformance_ints(normalized, xs, ys):
    results = all_backends(
        lambda: kernels.hamming_pairwise(xs, ys, normalized)
    )
    assert_agree(results, exact=not normalized)
    metric = HammingDistance(normalized=normalized)
    expected = np.array([[metric.distance(x, y) for y in ys] for x in xs])
    np.testing.assert_allclose(results["numpy"], expected, rtol=1e-9)


@given(
    xs=st.lists(
        st.text(alphabet="abc", min_size=5, max_size=5),
        min_size=1,
        max_size=6,
    )
)
def test_hamming_strings_match_scalar_distance(xs):
    # The scalar distance() compares *characters*; the batch paths must
    # decompose strings the same way (regression for the historical
    # whole-string comparison bug in the vectorised path).
    metric = HammingDistance()
    results = all_backends(lambda: kernels.hamming_pairwise(xs, xs, False))
    assert_agree(results, exact=True)
    expected = np.array([[metric.distance(a, b) for b in xs] for a in xs])
    assert np.array_equal(results["numpy"], expected)


# --------------------------------------------------------------- Jaccard


@given(xs=IDSETS, ys=IDSETS)
def test_jaccard_conformance(xs, ys):
    results = all_backends(lambda: kernels.jaccard_pairwise(xs, ys))
    # intersection/union are small-int ratios: correctly-rounded double
    # division is identical in C and Python, so exact equality holds.
    assert_agree(results, exact=True)
    metric = JaccardDistance()
    expected = np.array([[metric.distance(x, y) for y in ys] for x in xs])
    assert np.array_equal(results["numpy"], expected)


# ----------------------------------------------------- metric-class paths


@given(q=WORD, ys=WORDS)
def test_editdistance_class_batches_match_distance(q, ys):
    metric = EditDistance()
    om = metric.one_to_many(q, ys)
    assert np.array_equal(om, [metric.distance(q, y) for y in ys])
    pw = metric.pairwise([q], ys)
    assert np.array_equal(pw[0], om)


def test_one_to_many_bounded_default_masks():
    metric = L2()
    ys = [[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]]
    out = metric.one_to_many_bounded([0.0, 0.0], ys, 5.0)
    assert out.tolist() == [0.0, 5.0, float("inf")]


# ------------------------------------------------------- encoded blocks


ENCODE_CASES = [
    (EditDistance(), WORD, WORDS),
    (L1(), VEC, st.lists(VEC, max_size=8)),
    (L2(), VEC, st.lists(VEC, max_size=8)),
    (LInf(), VEC, st.lists(VEC, max_size=8)),
    (MinkowskiMetric(2.5), VEC, st.lists(VEC, max_size=8)),
    (HammingDistance(), CODE, st.lists(CODE, max_size=8)),
    (JaccardDistance(), IDSET, st.lists(IDSET, max_size=8)),
]


@pytest.mark.parametrize(
    "metric,item,items", ENCODE_CASES, ids=[c[0].name for c in ENCODE_CASES]
)
@settings(max_examples=25)
@given(data=st.data())
def test_encoded_block_is_bit_equal_to_plain_input(metric, item, items, data):
    """``Metric.encode``'s and ``Metric.join``'s contracts, on every
    backend: a block, and 2–3 joined blocks (empty ones included), give
    the plain input's one-to-many and bounded answers bit for bit,
    empty ``ys`` included."""
    x = data.draw(item)
    groups = data.draw(st.lists(items, min_size=2, max_size=3))
    ys = [y for group in groups for y in group]
    bound = data.draw(st.sampled_from([0.0, 1.0, 2.5, 50.0]))
    block = metric.encode(ys)
    joined = metric.join([metric.encode(group) for group in groups])
    assert len(block) == len(joined) == len(ys)
    for name in backends():
        with kernels.use_backend(name):
            plain = metric.one_to_many(x, ys)
            plain_bounded = metric.one_to_many_bounded(x, ys, bound)
            for form in (block, joined):
                assert np.array_equal(metric.one_to_many(x, form), plain), name
                assert np.array_equal(
                    metric.one_to_many_bounded(x, form, bound), plain_bounded
                ), name


@given(ys=WORDS)
def test_edit_distance_block_carries_both_kernel_forms(ys):
    """The block is still the strings, plus the CSR pair the native
    kernels read and the padded matrix the numpy kernels read."""
    block = EditDistance().encode(ys)
    assert isinstance(block, StringBlock)
    assert list(block) == ys
    data, offsets = encode_strings(ys)
    assert np.array_equal(block.data, data)
    assert np.array_equal(block.offsets, offsets)
    assert block.codes.shape == (max(map(len, ys), default=0), len(ys))
    for column, word in enumerate(ys):
        assert np.array_equal(
            block.codes[: len(word), column], codepoints(word)
        )
        assert not block.codes[len(word) :, column].any()
    for array in (block.data, block.offsets, block.lengths, block.codes):
        assert not array.flags.writeable


def test_counting_metric_join_counts_nothing():
    metric = CountingMetric(EditDistance())
    joined = metric.join([metric.encode(["ab"]), metric.encode(["abc", ""])])
    assert metric.calls == 0
    assert list(joined) == ["ab", "abc", ""]
    assert metric.one_to_many("ab", joined).tolist() == [0.0, 1.0, 2.0]
    assert metric.calls == 3


# ------------------------------------------------------- metric axioms


AXIOM_CASES = [
    (EditDistance(), ["", "a", "ab", "abc", "cba", "abab", "zzzz"]),
    (L1(), [[0.0, 0.0], [1.0, -2.0], [3.5, 0.25], [-1.0, -1.0]]),
    (L2(), [[0.0, 0.0], [1.0, -2.0], [3.5, 0.25], [-1.0, -1.0]]),
    (LInf(), [[0.0, 0.0], [1.0, -2.0], [3.5, 0.25], [-1.0, -1.0]]),
    (HammingDistance(), [[0, 1, 2], [0, 1, 3], [4, 1, 2], [0, 0, 0]]),
    (
        JaccardDistance(),
        [frozenset(), frozenset({1}), frozenset({1, 2}), frozenset({3, 4})],
    ),
]


@pytest.mark.parametrize(
    "metric,points", AXIOM_CASES, ids=[m.name for m, _ in AXIOM_CASES]
)
def test_metric_axioms_via_batch_kernels(metric, points):
    """Identity, symmetry and the triangle inequality, computed through
    the batch path (``pairwise``) for every registered metric."""
    d = metric.pairwise(points, points)
    n = len(points)
    assert np.all(d >= 0.0)
    assert np.allclose(np.diag(d), 0.0)
    np.testing.assert_allclose(d, d.T, rtol=1e-9, atol=1e-12)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


# ------------------------------------------------------ dispatch surface


def test_use_backend_rejects_unknown():
    from repro.exceptions import InvalidParameterError

    with pytest.raises(InvalidParameterError):
        with kernels.use_backend("fortran"):
            pass


def test_use_backend_restores_previous():
    before = kernels.active_backend()
    with kernels.use_backend("scalar"):
        assert kernels.active_backend() == "scalar"
        with kernels.use_backend("numpy"):
            assert kernels.active_backend() == "numpy"
        assert kernels.active_backend() == "scalar"
    assert kernels.active_backend() == before


def test_native_backend_unavailable_raises_cleanly(monkeypatch):
    from repro.exceptions import InvalidParameterError
    from repro.metrics import kernels as kmod

    monkeypatch.setattr(kmod, "native", None)
    assert not kmod.native_available()
    assert kmod.active_backend() == "numpy"
    with pytest.raises(InvalidParameterError):
        with kmod.use_backend("native"):
            pass


def test_rowwise_length_mismatch_raises():
    from repro.exceptions import InvalidParameterError

    with pytest.raises(InvalidParameterError):
        kernels.levenshtein_rowwise(["a"], ["a", "b"])
    with pytest.raises(InvalidParameterError):
        kernels.minkowski_rowwise([[1.0]], [[1.0], [2.0]], 2.0)
    with pytest.raises(InvalidParameterError):
        kernels.jaccard_rowwise([{1}], [{1}, {2}])
