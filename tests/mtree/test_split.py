"""Tests for M-tree split policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.metrics import L2
from repro.mtree.entries import LeafEntry, RoutingEntry
from repro.mtree.node import Node
from repro.mtree.split import split_entries


def make_leaf_entries(points):
    return [LeafEntry(np.asarray(p, dtype=float), oid=i) for i, p in enumerate(points)]


class TestSplitBasics:
    def test_partition_is_complete_and_disjoint(self, rng):
        entries = make_leaf_entries(rng.random((20, 2)))
        outcome = split_entries(entries, L2(), min_entries=6)
        first_ids = {e.oid for e in outcome.first_entries}
        second_ids = {e.oid for e in outcome.second_entries}
        assert first_ids | second_ids == set(range(20))
        assert first_ids & second_ids == set()

    def test_min_fill_respected(self, rng):
        entries = make_leaf_entries(rng.random((20, 2)))
        outcome = split_entries(entries, L2(), min_entries=6)
        assert len(outcome.first_entries) >= 6
        assert len(outcome.second_entries) >= 6

    def test_radii_cover_members(self, rng):
        entries = make_leaf_entries(rng.random((30, 3)))
        outcome = split_entries(entries, L2(), min_entries=5)
        metric = L2()
        for entry in outcome.first_entries:
            assert metric.distance(outcome.first_obj, entry.obj) <= (
                outcome.first_radius + 1e-9
            )
        for entry in outcome.second_entries:
            assert metric.distance(outcome.second_obj, entry.obj) <= (
                outcome.second_radius + 1e-9
            )

    def test_promoted_objects_come_from_entries(self, rng):
        points = rng.random((12, 2))
        entries = make_leaf_entries(points)
        outcome = split_entries(entries, L2(), min_entries=3)
        all_points = {tuple(p) for p in points}
        assert tuple(outcome.first_obj) in all_points
        assert tuple(outcome.second_obj) in all_points

    def test_routing_entries_account_for_child_radii(self, rng):
        """Splitting internal entries must add child covering radii."""
        child = Node(is_leaf=True)
        entries = [
            RoutingEntry(np.array([float(i), 0.0]), radius=0.5, child=child)
            for i in range(8)
        ]
        outcome = split_entries(entries, L2(), min_entries=2)
        metric = L2()
        for entry in outcome.first_entries:
            bound = metric.distance(outcome.first_obj, entry.obj) + entry.radius
            assert bound <= outcome.first_radius + 1e-9

    @pytest.mark.parametrize("radius", [-0.1, float("nan")])
    def test_routing_entry_rejects_invalid_radius(self, radius):
        with pytest.raises(InvalidParameterError):
            RoutingEntry(np.zeros(2), radius=radius, child=Node(is_leaf=True))

    def test_cannot_split_single_entry(self):
        entries = make_leaf_entries([[0.0, 0.0]])
        with pytest.raises(InvalidParameterError):
            split_entries(entries, L2(), min_entries=1)

    def test_unknown_policy_rejected(self, rng):
        entries = make_leaf_entries(rng.random((6, 2)))
        with pytest.raises(InvalidParameterError):
            split_entries(entries, L2(), min_entries=1, policy="magic")


class TestPolicies:
    def test_mm_rad_beats_random_on_average(self, rng):
        """mM_RAD minimises the max covering radius; over several draws it
        should do at least as well as a random promotion."""
        wins = 0
        trials = 10
        for t in range(trials):
            points = rng.random((24, 2))
            entries = make_leaf_entries(points)
            mm = split_entries(
                entries, L2(), min_entries=7, policy="mm_rad",
                rng=np.random.default_rng(t),
            )
            rnd = split_entries(
                entries, L2(), min_entries=7, policy="random",
                rng=np.random.default_rng(t),
            )
            if max(mm.first_radius, mm.second_radius) <= max(
                rnd.first_radius, rnd.second_radius
            ) + 1e-12:
                wins += 1
        assert wins >= 8

    def test_large_node_uses_sampled_pairs(self, rng):
        """Above the exhaustive limit the split still works and fills."""
        entries = make_leaf_entries(rng.random((120, 2)))
        outcome = split_entries(entries, L2(), min_entries=36)
        assert len(outcome.first_entries) + len(outcome.second_entries) == 120
        assert len(outcome.first_entries) >= 36
        assert len(outcome.second_entries) >= 36

    def test_duplicate_points_split(self):
        """All-identical entries must still split into two non-empty groups."""
        entries = make_leaf_entries([[0.5, 0.5]] * 10)
        outcome = split_entries(entries, L2(), min_entries=3)
        assert len(outcome.first_entries) >= 3
        assert len(outcome.second_entries) >= 3
        assert outcome.first_radius == 0.0
        assert outcome.second_radius == 0.0
