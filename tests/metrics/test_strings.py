"""Unit and property tests for the edit-distance metrics."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError
from repro.metrics import EditDistance, WeightedEditDistance, edit_distance

short_words = st.text(alphabet="abcde", min_size=0, max_size=8)


class TestEditDistanceKnown:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("a", "", 1),
            ("", "abc", 3),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("gumbo", "gambol", 2),
            ("casa", "cassa", 1),
            ("casa", "cosa", 1),
            ("saturday", "sunday", 3),
            ("abc", "abc", 0),
            ("abc", "cba", 2),
        ],
    )
    def test_known_pairs(self, a, b, expected):
        assert edit_distance(a, b) == expected
        assert EditDistance().distance(a, b) == float(expected)

    def test_pairwise(self, words):
        metric = EditDistance()
        matrix = metric.pairwise(words[:5], words[:5])
        for i in range(5):
            for j in range(5):
                assert matrix[i, j] == edit_distance(words[i], words[j])

    def test_domain_bound(self):
        assert EditDistance.domain_bound(25) == 25.0
        with pytest.raises(InvalidParameterError):
            EditDistance.domain_bound(-1)


class TestBoundedDistance:
    @pytest.mark.parametrize(
        "a,b,bound",
        [
            ("kitten", "sitting", 3),
            ("kitten", "sitting", 2),
            ("casa", "cosa", 1),
            ("casa", "cassone", 2),
            ("", "abcdef", 3),
        ],
    )
    def test_matches_exact_when_within(self, a, b, bound):
        metric = EditDistance()
        exact = edit_distance(a, b)
        bounded = metric.bounded_distance(a, b, bound)
        if exact <= bound:
            assert bounded == exact
        else:
            assert bounded == float("inf")

    def test_negative_bound_rejected(self):
        with pytest.raises(InvalidParameterError):
            EditDistance().bounded_distance("a", "b", -1)

    def test_nan_bound_rejected(self):
        metric = EditDistance()
        with pytest.raises(InvalidParameterError):
            metric.one_to_many_bounded("abc", ["abd"], float("nan"))
        with pytest.raises(InvalidParameterError):
            metric.bounded_distance("abc", "abd", float("nan"))

    @given(short_words, short_words, st.integers(min_value=0, max_value=6))
    def test_bounded_agrees_with_exact(self, a, b, bound):
        exact = edit_distance(a, b)
        bounded = EditDistance().bounded_distance(a, b, bound)
        if exact <= bound:
            assert bounded == exact
        else:
            assert bounded == float("inf")


class TestEditDistanceAxioms:
    @given(short_words, short_words)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(short_words, short_words)
    def test_identity(self, a, b):
        assert edit_distance(a, a) == 0
        if a != b:
            assert edit_distance(a, b) >= 1

    @given(short_words, short_words, short_words)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, b) <= edit_distance(a, c) + edit_distance(c, b)

    @given(short_words, short_words)
    def test_length_bounds(self, a, b):
        dist = edit_distance(a, b)
        assert dist >= abs(len(a) - len(b))
        assert dist <= max(len(a), len(b))


class TestWeightedEditDistance:
    def test_defaults_match_unit_cost(self, words):
        weighted = WeightedEditDistance()
        for a in words[:6]:
            for b in words[:6]:
                assert weighted.distance(a, b) == edit_distance(a, b)

    def test_custom_substitution_table(self):
        metric = WeightedEditDistance(
            substitution_costs={("a", "o"): 0.25}
        )
        assert metric.distance("casa", "cosa") == pytest.approx(0.25)
        # Symmetric by construction.
        assert metric.distance("cosa", "casa") == pytest.approx(0.25)

    def test_indel_scaling(self):
        metric = WeightedEditDistance(indel_cost=2.0)
        assert metric.distance("abc", "abcd") == pytest.approx(2.0)
        assert metric.distance("", "xy") == pytest.approx(4.0)

    @pytest.mark.parametrize("kwargs", [
        {"indel_cost": 0.0},
        {"indel_cost": -1.0},
        {"substitution_cost": 0.0},
        {"substitution_costs": {("a", "b"): -0.5}},
    ])
    def test_invalid_costs_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            WeightedEditDistance(**kwargs)

    @given(short_words, short_words, short_words)
    def test_triangle_inequality_with_cheap_substitution(self, a, b, c):
        metric = WeightedEditDistance(
            substitution_costs={("a", "b"): 0.5, ("c", "d"): 0.25}
        )
        d_ab = metric.distance(a, b)
        d_ac = metric.distance(a, c)
        d_cb = metric.distance(c, b)
        assert d_ab <= d_ac + d_cb + 1e-9

    def test_domain_bound(self):
        assert WeightedEditDistance().domain_bound(10) == pytest.approx(10.0)
        assert WeightedEditDistance(indel_cost=0.25).domain_bound(
            10
        ) == pytest.approx(5.0)
