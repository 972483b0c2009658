"""Tests for the Route representation and its link/node expansion."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Route, RouteError
from tests.helpers import xgft_examples


class TestValidation:
    def test_valid_route(self, small_tree):
        Route(0, 5, (0, 2)).validate(small_tree)

    def test_wrong_length_rejected(self, small_tree):
        with pytest.raises(RouteError):
            Route(0, 5, (0,)).validate(small_tree)  # NCA level is 2

    def test_self_route_is_empty(self, small_tree):
        Route(3, 3, ()).validate(small_tree)
        with pytest.raises(RouteError):
            Route(3, 3, (0,)).validate(small_tree)

    def test_port_out_of_range(self, small_tree):
        with pytest.raises(RouteError):
            Route(0, 5, (0, 4)).validate(small_tree)

    def test_endpoints_out_of_range(self, small_tree):
        with pytest.raises(RouteError):
            Route(-1, 5, (0, 0)).validate(small_tree)
        with pytest.raises(RouteError):
            Route(0, 16, (0, 0)).validate(small_tree)


class TestExpansion:
    def test_node_path_structure(self, paper_full_tree):
        route = Route(3, 200, (0, 8))
        path = route.node_path(paper_full_tree)
        assert path[0] == (0, 3)
        assert path[-1] == (0, 200)
        # levels go up 0..2 then down 1..0
        assert [lvl for lvl, _ in path] == [0, 1, 2, 1, 0]

    def test_nca(self, paper_full_tree):
        level, node = Route(3, 200, (0, 8)).nca(paper_full_tree)
        assert level == 2
        assert node == 8

    def test_intra_switch_route(self, paper_full_tree):
        route = Route(3, 5, (0,))
        path = route.node_path(paper_full_tree)
        assert path == [(0, 3), (1, 0), (0, 5)]

    def test_hop_count(self, paper_full_tree):
        assert Route(3, 200, (0, 8)).hop_count() == 4
        assert Route(3, 5, (0,)).hop_count() == 2
        assert Route(3, 3, ()).hop_count() == 0

    def test_links_count(self, paper_full_tree):
        links = list(Route(3, 200, (0, 8)).links(paper_full_tree))
        assert len(links) == 4
        assert len(set(links)) == 4

    def test_links_connect_node_path(self, deep_tree):
        """Every link of the route joins consecutive nodes of node_path."""
        topo = deep_tree
        route = Route(0, topo.num_leaves - 1, (0, 1, 1))
        path = route.node_path(topo)
        links = list(route.links(topo))
        assert len(links) == len(path) - 1
        for (l1, n1), (l2, n2), link in zip(path, path[1:], links):
            direction, level, node, port = topo.describe_link(link)
            if l2 > l1:  # ascending hop
                assert direction == "up"
                assert (level, node) == (l1, n1)
                assert topo.up_neighbor(level, node, port) == n2
            else:  # descending hop
                assert direction == "down"
                assert (level, node) == (l2, n2)
                assert topo.up_neighbor(level, node, port) == n1


@given(topo=xgft_examples(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_property_route_expansion_well_formed(topo, data):
    """Any in-range port vector yields a valid connected up*/down* path."""
    n = topo.num_leaves
    s = data.draw(st.integers(0, n - 1))
    d = data.draw(st.integers(0, n - 1))
    lvl = topo.nca_level(s, d)
    ports = tuple(data.draw(st.integers(0, topo.w[i] - 1)) for i in range(lvl))
    route = Route(s, d, ports)
    route.validate(topo)
    path = route.node_path(topo)
    levels = [l for l, _ in path]
    # strictly up then strictly down: deadlock-free up*/down*
    assert levels == list(range(lvl + 1)) + list(range(lvl - 1, -1, -1))
    assert path[0] == (0, s)
    assert path[-1] == (0, d)
    # links are unique (no link is crossed twice)
    links = list(route.links(topo))
    assert len(links) == len(set(links))
