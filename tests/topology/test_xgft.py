"""Tests for the XGFT topology model (paper Sec. II / Table I)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import XGFT, kary_ntree, parse_xgft
from tests.helpers import xgft_examples


class TestConstruction:
    def test_paper_topology_counts(self, paper_full_tree):
        assert paper_full_tree.num_leaves == 256
        assert paper_full_tree.num_nodes(1) == 16
        assert paper_full_tree.num_nodes(2) == 16
        assert paper_full_tree.num_switches == 32

    def test_slimmed_counts(self, paper_slimmed_tree):
        assert paper_slimmed_tree.num_nodes(1) == 16
        assert paper_slimmed_tree.num_nodes(2) == 10
        assert paper_slimmed_tree.num_switches == 26

    def test_kary_ntree_formula(self):
        # N = k^n leaves, n * k^(n-1) switches (paper Sec. II)
        for k, n in [(2, 2), (2, 3), (4, 2), (4, 3), (3, 3)]:
            topo = kary_ntree(k, n)
            assert topo.num_leaves == k**n
            assert topo.num_switches == n * k ** (n - 1)
            assert topo.is_kary_ntree
            assert not topo.is_slimmed

    def test_mismatched_vectors_rejected(self):
        with pytest.raises(ValueError):
            XGFT((4, 4), (1,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            XGFT((), ())

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            XGFT((4, 0), (1, 2))
        with pytest.raises(ValueError):
            XGFT((4, 4), (1, -1))

    def test_one_based_accessors(self, deep_tree):
        assert deep_tree.m_(1) == 4
        assert deep_tree.m_(3) == 3
        assert deep_tree.w_(2) == 2
        with pytest.raises(IndexError):
            deep_tree.m_(0)
        with pytest.raises(IndexError):
            deep_tree.w_(4)

    def test_spec_round_trip(self, deep_tree):
        assert parse_xgft(deep_tree.spec()) == deep_tree

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_xgft("GFT(2;4,4;1,4)")  # repro: noqa[REP011] deliberately malformed
        with pytest.raises(ValueError):
            parse_xgft("XGFT(3;4,4;1,4)")  # repro: noqa[REP011] height mismatch

    def test_equality_and_hash(self):
        assert XGFT((4, 4), (1, 4)) == XGFT((4, 4), (1, 4))
        assert XGFT((4, 4), (1, 4)) != XGFT((4, 4), (1, 3))
        assert hash(XGFT((4, 4), (1, 4))) == hash(XGFT((4, 4), (1, 4)))

    def test_is_slimmed(self):
        assert XGFT((16, 16), (1, 10)).is_slimmed
        assert not XGFT((16, 16), (1, 16)).is_slimmed


class TestLabels:
    def test_leaf_labels_are_base_m_expansion(self, small_tree):
        # For a 4-ary 2-tree, label of leaf n is (n//4, n%4) MSB-first.
        for n in range(16):
            assert small_tree.label(0, n) == (n // 4, n % 4)

    def test_root_labels(self, small_tree):
        # roots labelled <W2, W1> with w1 = 1
        for n in range(4):
            assert small_tree.label(2, n) == (n, 0)

    def test_label_round_trip_all_levels(self, deep_tree):
        for level in range(deep_tree.h + 1):
            for node in range(deep_tree.num_nodes(level)):
                lbl = deep_tree.label(level, node)
                assert deep_tree.node_from_label(level, lbl) == node

    def test_label_digit_ranges(self, slimmed_deep_tree):
        topo = slimmed_deep_tree
        for level in range(topo.h + 1):
            # label MSB-first: (M_h..M_{level+1}, W_level..W_1)
            bases = [topo.m_(j) for j in range(topo.h, level, -1)] + [
                topo.w_(j) for j in range(level, 0, -1)
            ]
            for node in range(topo.num_nodes(level)):
                lbl = topo.label(level, node)
                assert len(lbl) == topo.h
                assert all(0 <= d < b for d, b in zip(lbl, bases))


class TestAdjacency:
    def test_parents_children_inverse(self, deep_tree):
        topo = deep_tree
        for level in range(topo.h):
            for node in range(topo.num_nodes(level)):
                for port, parent in enumerate(topo.parents(level, node)):
                    assert node in topo.children(level + 1, parent)
                    assert topo.up_port_to(level, node, parent) == port
                    down = topo.down_port_to(level + 1, parent, node)
                    assert topo.down_neighbor(level + 1, parent, down) == node

    def test_parent_count_is_w(self, slimmed_deep_tree):
        topo = slimmed_deep_tree
        for level in range(topo.h):
            for node in range(topo.num_nodes(level)):
                assert len(topo.parents(level, node)) == topo.w[level]

    def test_child_count_is_m(self, slimmed_deep_tree):
        topo = slimmed_deep_tree
        for level in range(1, topo.h + 1):
            for node in range(topo.num_nodes(level)):
                assert len(topo.children(level, node)) == topo.m[level - 1]

    def test_roots_have_no_parents(self, small_tree):
        assert small_tree.parents(small_tree.h, 0) == []
        with pytest.raises(ValueError):
            small_tree.up_neighbor(small_tree.h, 0, 0)

    def test_leaves_have_no_children(self, small_tree):
        assert small_tree.children(0, 0) == []
        with pytest.raises(ValueError):
            small_tree.down_neighbor(0, 0, 0)

    def test_port_out_of_range(self, small_tree):
        with pytest.raises(ValueError):
            small_tree.up_neighbor(1, 0, 4)
        with pytest.raises(ValueError):
            small_tree.down_neighbor(1, 0, 4)

    def test_adjacent_labels_agree_on_shared_digits(self, deep_tree):
        """The Table-I adjacency rule: shared digits identical."""
        topo = deep_tree
        for level in range(topo.h):
            for node in range(topo.num_nodes(level)):
                lbl = list(reversed(topo.label(level, node)))  # LSB first
                for port in range(topo.w[level]):
                    parent = topo.up_neighbor(level, node, port)
                    plbl = list(reversed(topo.label(level + 1, parent)))
                    # digits 1..level (W) and level+2..h (M) must match
                    for j in range(level):
                        assert lbl[j] == plbl[j]
                    for j in range(level + 1, topo.h):
                        assert lbl[j] == plbl[j]
                    assert plbl[level] == port


class TestNCA:
    def test_nca_level_identity(self, small_tree):
        for n in range(small_tree.num_leaves):
            assert small_tree.nca_level(n, n) == 0

    def test_nca_level_same_switch(self, paper_full_tree):
        assert paper_full_tree.nca_level(0, 15) == 1
        assert paper_full_tree.nca_level(0, 16) == 2

    def test_nca_level_symmetry(self, deep_tree):
        topo = deep_tree
        for s in range(topo.num_leaves):
            for d in range(topo.num_leaves):
                assert topo.nca_level(s, d) == topo.nca_level(d, s)

    def test_nca_level_array_matches_scalar(self, slimmed_deep_tree):
        topo = slimmed_deep_tree
        n = topo.num_leaves
        src, dst = np.divmod(np.arange(n * n), n)
        arr = topo.nca_level_array(src, dst)
        for i in range(0, n * n, 7):
            assert arr[i] == topo.nca_level(int(src[i]), int(dst[i]))
        assert (arr == 0).sum() == n  # only the diagonal

    def test_num_ncas(self, paper_slimmed_tree):
        assert paper_slimmed_tree.num_ncas(0) == 1
        assert paper_slimmed_tree.num_ncas(1) == 1  # w1 = 1
        assert paper_slimmed_tree.num_ncas(2) == 10

    def test_subtree_node_is_common_ancestor(self, deep_tree):
        """Walking up from the leaf through the given ports lands on subtree_node."""
        topo = deep_tree
        rng = np.random.default_rng(42)
        for _ in range(50):
            leaf = int(rng.integers(topo.num_leaves))
            ports = [int(rng.integers(topo.w[i])) for i in range(topo.h)]
            node, level = leaf, 0
            for i in range(topo.h):
                node = topo.up_neighbor(i, node, ports[i])
                level = i + 1
                assert topo.subtree_node(leaf, ports, level) == node

    def test_subtree_node_validates_ports(self, small_tree):
        with pytest.raises(ValueError):
            small_tree.subtree_node(0, [0, 99], 2)
        with pytest.raises(ValueError):
            small_tree.subtree_node(0, [0], 2)


class TestLinkIndexing:
    def test_link_count(self, paper_full_tree):
        # 256 host links + 256 switch-to-root links, per direction
        assert paper_full_tree.num_links_per_direction == 512
        assert paper_full_tree.num_directed_links == 1024

    def test_indices_unique_and_dense(self, deep_tree):
        topo = deep_tree
        seen = set()
        for level in range(topo.h):
            for node in range(topo.num_nodes(level)):
                for port in range(topo.w[level]):
                    up = topo.up_link_index(level, node, port)
                    down = topo.down_link_index(level, node, port)
                    assert up not in seen
                    assert down not in seen
                    seen.add(up)
                    seen.add(down)
        assert seen == set(range(topo.num_directed_links))

    def test_describe_link_inverse(self, slimmed_deep_tree):
        topo = slimmed_deep_tree
        for idx in range(topo.num_directed_links):
            direction, level, node, port = topo.describe_link(idx)
            if direction == "up":
                assert topo.up_link_index(level, node, port) == idx
            else:
                assert topo.down_link_index(level, node, port) == idx

    def test_describe_link_range_check(self, small_tree):
        with pytest.raises(ValueError):
            small_tree.describe_link(small_tree.num_directed_links)


@given(topo=xgft_examples(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_property_up_down_inverse(topo, data):
    """up_neighbor and down_neighbor are mutually inverse everywhere."""
    level = data.draw(st.integers(0, topo.h - 1))
    node = data.draw(st.integers(0, topo.num_nodes(level) - 1))
    port = data.draw(st.integers(0, topo.w[level] - 1))
    parent = topo.up_neighbor(level, node, port)
    child_port = topo.down_port_to(level + 1, parent, node)
    assert topo.down_neighbor(level + 1, parent, child_port) == node


@given(topo=xgft_examples(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_property_nca_level_consistent_with_subtrees(topo, data):
    """nca_level(s, d) == smallest level whose subtree contains both."""
    n = topo.num_leaves
    s = data.draw(st.integers(0, n - 1))
    d = data.draw(st.integers(0, n - 1))
    lvl = topo.nca_level(s, d)
    assert s // topo.mprod(lvl) == d // topo.mprod(lvl)
    if lvl > 0:
        assert s // topo.mprod(lvl - 1) != d // topo.mprod(lvl - 1)


@given(topo=xgft_examples())
@settings(max_examples=30, deadline=None)
def test_property_level_populations_sum(topo):
    """Total node count equals leaves + Eq.-1 switches."""
    total = sum(topo.num_nodes(level) for level in range(topo.h + 1))
    assert total == topo.num_leaves + topo.num_switches
