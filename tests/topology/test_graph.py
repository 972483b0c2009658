"""Tests for the networkx export — an independent structural cross-check."""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings

from repro.topology import ascii_art, degree_histogram, to_networkx
from tests.helpers import xgft_examples


class TestExport:
    def test_node_and_edge_counts(self, small_tree):
        g = to_networkx(small_tree)
        assert g.number_of_nodes() == small_tree.num_leaves + small_tree.num_switches
        assert g.number_of_edges() == small_tree.num_links_per_direction

    def test_connected(self, deep_tree):
        assert nx.is_connected(to_networkx(deep_tree))

    def test_kinds(self, small_tree):
        g = to_networkx(small_tree)
        hosts = [n for n, d in g.nodes(data=True) if d["kind"] == "host"]
        assert len(hosts) == small_tree.num_leaves

    def test_edge_attributes_consistent(self, small_tree):
        g = to_networkx(small_tree)
        for (lu, nu), (lv, nv), data in g.edges(data=True):
            lo = (lu, nu) if lu < lv else (lv, nv)
            hi = (lv, nv) if lu < lv else (lu, nu)
            assert small_tree.up_neighbor(lo[0], lo[1], data["up_port"]) == hi[1]
            assert small_tree.down_neighbor(hi[0], hi[1], data["down_port"]) == lo[1]

    @given(topo=xgft_examples())
    @settings(max_examples=20, deadline=None)
    def test_property_graph_is_levelled_tree_dag(self, topo):
        """Edges only connect adjacent levels; graph is connected."""
        g = to_networkx(topo)
        for (lu, _), (lv, _) in g.edges():
            assert abs(lu - lv) == 1
        assert nx.is_connected(g)

    def test_shortest_path_length_matches_nca(self, small_tree):
        """Graph distance between two leaves is 2 * NCA level."""
        g = to_networkx(small_tree)
        for s in range(0, small_tree.num_leaves, 3):
            for d in range(0, small_tree.num_leaves, 5):
                expected = 2 * small_tree.nca_level(s, d)
                actual = nx.shortest_path_length(g, (0, s), (0, d))
                assert actual == expected


class TestRendering:
    def test_ascii_art_mentions_spec(self, small_tree):
        art = ascii_art(small_tree)
        assert "XGFT(2;4,4;1,4)" in art
        assert art.count("\n") == small_tree.h + 1

    def test_ascii_art_elides_large(self, paper_full_tree):
        assert "elided" in ascii_art(paper_full_tree)

    def test_degree_histogram(self, small_tree):
        hist = degree_histogram(small_tree)
        assert hist[0] == {1: 16}   # hosts: one uplink
        assert hist[1] == {8: 4}    # edge switches: 4 down + 4 up
        assert hist[2] == {4: 4}    # roots: 4 down
