"""Tests for the byte-accurate node layout."""

from __future__ import annotations

import pytest

from repro.exceptions import CapacityError, InvalidParameterError
from repro.metrics import EditDistance
from repro.mtree import MTree, NodeLayout, bulk_load, string_layout, vector_layout
from repro.mtree.layout import NODE_HEADER_BYTES

# 35 words, BMP and astral characters included.
WORDS = [a + b for a in "abcdefg" for b in "xyz€𝔸"]


class TestNodeLayout:
    def test_entry_sizes(self):
        layout = NodeLayout(node_size_bytes=4096, object_bytes=80)
        assert layout.leaf_entry_bytes == 80 + 4 + 4
        assert layout.internal_entry_bytes == 80 + 4 + 4 + 4

    def test_capacities(self):
        layout = NodeLayout(node_size_bytes=4096, object_bytes=80)
        assert layout.leaf_capacity == (4096 - NODE_HEADER_BYTES) // 88
        assert layout.internal_capacity == (4096 - NODE_HEADER_BYTES) // 92

    def test_min_entries(self):
        layout = NodeLayout(
            node_size_bytes=4096, object_bytes=80, min_utilization=0.3
        )
        assert layout.leaf_min_entries == int(layout.leaf_capacity * 0.3)
        assert layout.internal_min_entries >= 1

    def test_node_size_kb(self):
        assert NodeLayout(4096, 40).node_size_kb == 4.0
        assert NodeLayout(512, 20).node_size_kb == 0.5

    def test_too_small_node_rejected(self):
        with pytest.raises(CapacityError):
            NodeLayout(node_size_bytes=64, object_bytes=100)

    def test_internal_capacity_of_two_rejected_with_the_size_needed(self):
        # 64 bytes hold 3 leaf entries but only 2 internal ones: a split
        # of 3 routing entries would leave a 1-entry node.
        with pytest.raises(CapacityError, match="at least 68B"):
            string_layout(8, node_size_bytes=64)
        layout = string_layout(8, node_size_bytes=68)
        assert (layout.leaf_capacity, layout.internal_capacity) == (3, 3)

    @pytest.mark.parametrize("node_size_bytes", [68, 72, 80, 96])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_smallest_layouts_build_valid_trees(self, node_size_bytes, seed):
        layout = string_layout(8, node_size_bytes=node_size_bytes)
        assert 3 <= layout.internal_capacity <= 4
        bulk_load(WORDS, EditDistance(), layout, seed=seed).validate()
        tree = MTree(EditDistance(), layout, seed=seed)
        for word in WORDS:
            tree.insert(word)
        tree.validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"node_size_bytes": 0, "object_bytes": 10},
            {"node_size_bytes": 1024, "object_bytes": 0},
            {"node_size_bytes": 1024, "object_bytes": 10, "min_utilization": 0.9},
            {"node_size_bytes": 1024, "object_bytes": 10, "min_utilization": -0.1},
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(InvalidParameterError):
            NodeLayout(**kwargs)


class TestHelpers:
    def test_vector_layout(self):
        layout = vector_layout(20, node_size_bytes=4096)
        assert layout.object_bytes == 80

    def test_vector_layout_custom_width(self):
        layout = vector_layout(10, bytes_per_coordinate=8)
        assert layout.object_bytes == 80

    def test_string_layout(self):
        layout = string_layout(25)
        assert layout.object_bytes == 25
        # 4 KB of 33-byte leaf entries.
        assert layout.leaf_capacity == (4096 - NODE_HEADER_BYTES) // 33

    def test_invalid_helper_params(self):
        with pytest.raises(InvalidParameterError):
            vector_layout(0)
        with pytest.raises(InvalidParameterError):
            vector_layout(4, bytes_per_coordinate=0)
        with pytest.raises(InvalidParameterError):
            string_layout(0)

    def test_paper_fanout_sanity(self):
        """D = 20 float32 vectors in 4 KB pages: fanout in the tens."""
        layout = vector_layout(20, node_size_bytes=4096)
        assert 30 <= layout.leaf_capacity <= 60
