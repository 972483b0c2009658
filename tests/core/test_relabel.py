"""Tests for the per-subtree balanced relabeling engine (paper Sec. VIII)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RelabelMaps, balanced_random_map, mod_map
from tests.helpers import xgft_examples, xgft_strategy


class TestBalancedRandomMap:
    def test_balance(self):
        rng = np.random.default_rng(0)
        for m, w in [(16, 16), (16, 10), (16, 3), (5, 7), (1, 1), (7, 7)]:
            mapping = balanced_random_map(m, w, rng)
            assert mapping.shape == (m,)
            assert mapping.min() >= 0 and mapping.max() < w
            counts = np.bincount(mapping, minlength=w)
            used = counts[counts > 0]
            assert used.max() - max(used.min(), 0) <= 1 or counts.min() >= m // w
            # every image receives floor(m/w) or ceil(m/w) preimages
            assert set(counts[: min(m, w)]).issubset({m // w, -(-m // w)})

    def test_permutation_when_square(self):
        rng = np.random.default_rng(1)
        mapping = balanced_random_map(12, 12, rng)
        assert sorted(mapping) == list(range(12))

    def test_randomness(self):
        rng = np.random.default_rng(2)
        maps = {tuple(balanced_random_map(16, 10, rng)) for _ in range(10)}
        assert len(maps) > 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            balanced_random_map(0, 4, np.random.default_rng(0))


class TestModMap:
    def test_values(self):
        np.testing.assert_array_equal(mod_map(6, 4), [0, 1, 2, 3, 0, 1])


class TestRelabelMaps:
    def test_mod_kind_is_identity_of_modk(self, paper_slimmed_tree):
        """kind='mod' reproduces the raw digit mod w rule exactly."""
        maps = RelabelMaps(paper_slimmed_tree, seed=0, kind="mod")
        leaves = np.arange(256)
        for level in range(paper_slimmed_tree.h):
            digit_index = max(level, 1)
            digit = (leaves // paper_slimmed_tree.mprod(digit_index - 1)) % paper_slimmed_tree.m[
                digit_index - 1
            ]
            expected = digit % paper_slimmed_tree.w[level]
            np.testing.assert_array_equal(maps.port_array(level, leaves), expected)

    def test_ports_in_range(self, slimmed_deep_tree):
        maps = RelabelMaps(slimmed_deep_tree, seed=3)
        leaves = np.arange(slimmed_deep_tree.num_leaves)
        for level in range(slimmed_deep_tree.h):
            ports = maps.port_array(level, leaves)
            assert ports.min() >= 0
            assert ports.max() < slimmed_deep_tree.w[level]

    def test_balanced_within_each_subtree(self, paper_slimmed_tree):
        """Within every level-1 subtree, the 16 digits map onto the 10 roots
        with loads ceil/floor (the Sec. VII-D imbalance is repaired)."""
        maps = RelabelMaps(paper_slimmed_tree, seed=5)
        leaves = np.arange(256)
        ports = maps.port_array(1, leaves)
        for switch in range(16):
            local = ports[switch * 16 : (switch + 1) * 16]
            counts = np.bincount(local, minlength=10)
            assert set(counts).issubset({1, 2})

    def test_per_subtree_independence(self, paper_full_tree):
        """Different subtrees draw different scrambles (w.h.p.)."""
        maps = RelabelMaps(paper_full_tree, seed=9)
        table = maps.table(1)
        assert table.shape == (16, 16)
        assert any(
            not np.array_equal(table[0], table[c]) for c in range(1, 16)
        )

    def test_global_kind_shares_scramble(self, paper_full_tree):
        maps = RelabelMaps(paper_full_tree, seed=9, kind="global-random")
        table = maps.table(1)
        for c in range(1, 16):
            np.testing.assert_array_equal(table[0], table[c])

    def test_seed_determinism(self, paper_full_tree):
        a = RelabelMaps(paper_full_tree, seed=4)
        b = RelabelMaps(paper_full_tree, seed=4)
        c = RelabelMaps(paper_full_tree, seed=5)
        np.testing.assert_array_equal(a.table(1), b.table(1))
        assert (a.table(1) != c.table(1)).any()

    def test_neighbourhood_preservation(self, paper_full_tree):
        """Leaves in the same subtree keep identical relabeled digits above it
        (the paper's requirement that relabeling preserve topological
        neighbourhoods)."""
        maps = RelabelMaps(paper_full_tree, seed=2)
        leaves = np.arange(256)
        # digit at level 1 depends only on (context=leaf//16**1, digit M_1):
        ports = maps.port_array(1, leaves)
        for leaf in range(0, 256, 37):
            context = leaf // 16
            digit = leaf % 16
            same = [x for x in range(256) if x // 16 == context and x % 16 == digit]
            assert all(ports[x] == ports[leaf] for x in same)

    def test_new_label_shape(self, paper_full_tree):
        maps = RelabelMaps(paper_full_tree, seed=1)
        label = maps.new_label(37)
        assert label[0] == -1
        assert len(label) == paper_full_tree.h

    @given(topo=xgft_examples(), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_property_all_kinds_in_range(self, topo, seed):
        for kind in ("balanced-random", "mod", "global-random"):
            maps = RelabelMaps(topo, seed=seed, kind=kind)
            leaves = np.arange(topo.num_leaves)
            for level in range(topo.h):
                ports = maps.port_array(level, leaves)
                assert ports.min() >= 0
                assert ports.max() < topo.w[level]

    @given(
        topo=xgft_strategy(max_h=3),
        kind=st.sampled_from(["balanced-random", "mod", "global-random"]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_port_gather_matches_digit_arithmetic(self, topo, kind, seed):
        """The per-leaf port table gives what the maps give per endpoint:
        ``table(level)[leaf // P_digit, M_digit(leaf)]``."""
        maps = RelabelMaps(topo, seed=seed, kind=kind)
        endpoints = np.random.default_rng(seed).integers(0, topo.num_leaves, size=64)
        for level in range(topo.h):
            digit_index = max(level, 1)
            digit = (endpoints // topo.mprod(digit_index - 1)) % topo.m[digit_index - 1]
            context = endpoints // topo.mprod(digit_index)
            ports = maps.port_array(level, endpoints)
            assert ports.dtype == np.int64
            np.testing.assert_array_equal(ports, maps.table(level)[context, digit])
