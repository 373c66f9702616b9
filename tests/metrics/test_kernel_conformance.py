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
    EditDistance,
    HammingDistance,
    JaccardDistance,
    L1,
    L2,
    LInf,
    MinkowskiMetric,
    kernels,
)

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
