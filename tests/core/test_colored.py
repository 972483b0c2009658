"""Tests for the pattern-aware Colored baseline and bipartite edge coloring."""

from __future__ import annotations

import numpy as np
import pytest
from collections import Counter
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Colored, bipartite_edge_coloring
from repro.topology import XGFT


def _assert_proper(edges, colors):
    at_left: dict = {}
    at_right: dict = {}
    for (u, v), c in zip(edges, colors):
        assert (u, c) not in at_left
        assert (v, c) not in at_right
        at_left[(u, c)] = True
        at_right[(v, c)] = True


class TestEdgeColoring:
    def test_empty(self):
        assert bipartite_edge_coloring([], 0, 0) == []

    def test_perfect_matching(self):
        edges = [(i, i) for i in range(5)]
        colors = bipartite_edge_coloring(edges, 5, 5)
        assert set(colors) == {0}

    def test_complete_bipartite(self):
        edges = [(u, v) for u in range(4) for v in range(4)]
        colors = bipartite_edge_coloring(edges, 4, 4)
        _assert_proper(edges, colors)
        assert max(colors) == 3  # Δ = 4 colors suffice (König)

    def test_multigraph(self):
        edges = [(0, 0), (0, 0), (0, 0), (0, 1), (1, 0)]
        colors = bipartite_edge_coloring(edges, 2, 2)
        _assert_proper(edges, colors)
        assert max(colors) <= 3  # Δ = 4

    def test_star(self):
        edges = [(0, v) for v in range(6)]
        colors = bipartite_edge_coloring(edges, 1, 6)
        assert sorted(colors) == list(range(6))

    @given(
        num_left=st.integers(1, 6),
        num_right=st.integers(1, 6),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_uses_delta_colors(self, num_left, num_right, data):
        edges = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, num_left - 1), st.integers(0, num_right - 1)
                ),
                min_size=1,
                max_size=30,
            )
        )
        colors = bipartite_edge_coloring(edges, num_left, num_right)
        _assert_proper(edges, colors)
        degree = Counter(u for u, _ in edges)
        degree.update((("R", v) for _, v in edges))
        delta = max(degree.values())
        assert max(colors) < delta  # exactly Δ colors: König's theorem


class TestColoredOnPaperPatterns:
    def test_cg_phase5_contention_free_on_full_tree(self):
        """Fig. 2(b) at w2=16: Colored routes CG's 5th phase without network
        contention (while D-mod-k suffers contention level 8)."""
        from repro.contention import max_network_contention

        topo = XGFT((16, 16), (1, 16))
        # the non-local CG exchange on 128 processors (see patterns tests)
        from repro.patterns import cg_transpose_exchange

        pairs = [(s, d) for s, d in cg_transpose_exchange(128) if s != d]
        alg = Colored(topo, seed=0)
        table = alg.build_table(pairs)
        assert max_network_contention(table) == 1

    def test_permutation_on_slimmed_tree_balanced(self):
        """On a w2=4 slimmed tree a 16-flow inter-switch permutation must fit
        ceil(Delta/w2) flows per link and Colored achieves it."""
        from repro.contention import max_network_contention

        topo = XGFT((4, 4), (1, 2))
        # a permutation sending each leaf of switch b to switch (b+1) mod 4
        pairs = [(s, (s + 4) % 16) for s in range(16)]
        table = Colored(topo, seed=0).build_table(pairs)
        # Δ = 4 flows out of each switch over w2 = 2 middle switches -> 2
        assert max_network_contention(table) == 2

    def test_wrf_exchange_contention_free(self):
        """WRF's ±16 exchange has only endpoint contention on the full tree;
        Colored must find a zero-network-contention assignment."""
        from repro.contention import max_network_contention
        from repro.patterns import wrf_exchange

        topo = XGFT((16, 16), (1, 16))
        pairs = list(wrf_exchange(256))
        table = Colored(topo, seed=0).build_table(pairs)
        assert max_network_contention(table) == 1


class TestEndpointAwareObjective:
    def test_objective_predicts_the_phase_time(self):
        """Endpoint-aware mode (default) counts the host links, so its
        objective (max flows per link) equals the fluid time of an
        equal-size phase in message units.  The blind ablation sees only
        switch-to-switch links: on a many-to-one pattern it reports a
        near-balanced network while the phase serializes at the hot
        node's ejection — the misjudgment the paper's Sec.-IV
        endpoint/network separation avoids."""
        from repro.contention import link_flow_counts
        from repro.sim import simulate_phase_fluid

        topo = XGFT((16, 16), (1, 16))
        # 48 sources on switches 2..4, all to node 0: pure endpoint contention
        pairs = [(s, 0) for s in range(32, 80)]
        msg = 256 * 1024
        host_up = topo.num_up_links(0)
        base = topo.num_links_per_direction
        out = {}
        for aware in (True, False):
            table = Colored(topo, endpoint_aware=aware).build_table(pairs)
            counts = link_flow_counts(table)
            if not aware:
                counts[:host_up] = 0
                counts[base : base + host_up] = 0
            actual = simulate_phase_fluid(table, [msg] * len(table))
            out[aware] = (int(counts.max()), actual / (msg / 0.25e9))
        (pred_aware, actual_aware), (pred_blind, actual_blind) = out[True], out[False]
        assert pred_aware == pytest.approx(actual_aware, rel=1e-6)
        assert pred_blind <= 4
        assert actual_blind == pytest.approx(48.0, rel=1e-6)


class TestColoredMechanics:
    def test_routes_valid(self):
        topo = XGFT((4, 4), (1, 3))
        pairs = [(s, (s + 5) % 16) for s in range(16)]
        table = Colored(topo, seed=1).build_table(pairs)
        table.validate()

    def test_fallback_for_unprepared_pairs(self):
        topo = XGFT((4, 4), (1, 4))
        alg = Colored(topo, seed=0)
        alg.build_table([(0, 5)])
        # pair never seen: falls back to a valid D-mod-k-style route
        route = alg.route(1, 14)
        route.validate(topo)

    def test_deterministic_for_seed(self):
        topo = XGFT((4, 4), (1, 2))
        pairs = [(s, (s + 4) % 16) for s in range(16)]
        t1 = Colored(topo, seed=3).build_table(pairs)
        t2 = Colored(topo, seed=3).build_table(pairs)
        np.testing.assert_array_equal(t1.ports, t2.ports)

    def test_three_level_topology(self):
        """The optimizer also runs (greedy path) on h=3 trees."""
        from repro.contention import max_network_contention

        topo = XGFT((2, 2, 2), (1, 2, 2))
        pairs = [(s, (s + 4) % 8) for s in range(8)]
        table = Colored(topo, seed=0).build_table(pairs)
        table.validate()
        assert max_network_contention(table) == 1

    def test_beats_or_matches_dmodk(self):
        """On random permutations Colored is never worse than D-mod-k."""
        from repro.contention import max_network_contention
        from repro.core import DModK

        topo = XGFT((8, 8), (1, 4))
        rng = np.random.default_rng(0)
        for trial in range(3):
            perm = rng.permutation(64)
            pairs = [(s, int(perm[s])) for s in range(64) if s != perm[s]]
            c = max_network_contention(Colored(topo, seed=trial).build_table(pairs))
            d = max_network_contention(DModK(topo).build_table(pairs))
            assert c <= d
