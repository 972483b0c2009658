"""Tests for the algorithm registry and the RouteTable batch machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ALGORITHMS,
    DETERMINISTIC_ALGORITHMS,
    RANDOMIZED_ALGORITHMS,
    RouteTable,
    RoutingAlgorithm,
    available_algorithms,
    make_algorithm,
    register_algorithm,
)
from repro.topology import XGFT


@pytest.fixture
def topo():
    return XGFT((4, 4), (1, 4))


class TestFactory:
    def test_all_paper_algorithms_available(self):
        names = available_algorithms()
        for expected in ("s-mod-k", "d-mod-k", "random", "r-nca-u", "r-nca-d", "colored"):
            assert expected in names

    def test_make_each(self, topo):
        for name in available_algorithms():
            alg = make_algorithm(name, topo, seed=1)
            if hasattr(alg, "pair_arcs"):
                # path-emitting graph schemes route arcs, not port digits
                alg.build_table([(0, 5)]).validate()
            else:
                alg.route(0, 5).validate(topo)

    def test_unknown_name(self, topo):
        with pytest.raises(ValueError, match="unknown algorithm"):
            make_algorithm("dijkstra", topo)  # repro: noqa[REP010] deliberately unknown: error-path test

    def test_kwargs_forwarded(self, topo):
        alg = make_algorithm("r-nca-u", topo, seed=2, map_kind="mod")
        assert alg.map_kind == "mod"

    def test_register_custom(self, topo):
        class Leftmost(RoutingAlgorithm):
            name = "leftmost"

            def up_ports(self, src, dst):
                return tuple(0 for _ in range(self.topo.nca_level(src, dst)))

        register_algorithm("leftmost", lambda t, seed=0, **kw: Leftmost(t))
        try:
            alg = make_algorithm("leftmost", topo)
            assert alg.route(0, 15).up_ports == (0, 0)
        finally:
            ALGORITHMS.unregister("leftmost")

    def test_register_duplicate_rejected(self):
        with pytest.raises(ValueError):
            register_algorithm("s-mod-k", lambda t, seed=0: None)

    def test_classification_lists(self):
        assert set(DETERMINISTIC_ALGORITHMS).isdisjoint(RANDOMIZED_ALGORITHMS)


class TestRouteTable:
    def test_shape_validation(self, topo):
        with pytest.raises(ValueError):
            RouteTable(
                topo,
                np.asarray([0]),
                np.asarray([5]),
                np.asarray([2]),
                np.zeros((1, 5), dtype=np.int64),
            )

    def test_concat(self, topo):
        alg = make_algorithm("d-mod-k", topo)
        t1 = alg.build_table([(0, 5)])
        t2 = alg.build_table([(1, 9), (2, 13)])
        both = t1.concat(t2)
        assert len(both) == 3
        assert both.route(2).src == 2

    def test_concat_topology_mismatch(self, topo):
        other = XGFT((4, 4), (1, 2))
        t1 = make_algorithm("d-mod-k", topo).build_table([(0, 5)])
        t2 = make_algorithm("d-mod-k", other).build_table([(0, 5)])
        with pytest.raises(ValueError):
            t1.concat(t2)

    def test_empty_table(self, topo):
        table = make_algorithm("d-mod-k", topo).build_table([])
        assert len(table) == 0
        flows, links = table.flow_links()
        assert len(flows) == 0 and len(links) == 0
        assert len(table.nca_nodes()) == 0

    def test_flow_links_matches_route_links(self, topo):
        """The vectorized expansion equals the per-route scalar expansion."""
        alg = make_algorithm("random", topo, seed=5)
        pairs = [(s, d) for s in range(16) for d in range(16) if s != d]
        table = alg.build_table(pairs)
        flows, links = table.flow_links()
        got: dict[int, set[int]] = {}
        for f, l in zip(flows.tolist(), links.tolist()):
            got.setdefault(f, set()).add(l)
        for f in range(len(table)):
            expected = set(table.route(f).links(topo))
            assert got.get(f, set()) == expected

    def test_nca_nodes_match_scalar(self, topo):
        alg = make_algorithm("random", topo, seed=6)
        pairs = [(s, (s + 5) % 16) for s in range(16)]
        table = alg.build_table(pairs)
        nodes = table.nca_nodes()
        for f in range(len(table)):
            level, node = table.route(f).nca(topo)
            assert nodes[f] == node

    def test_all_pairs_include_self(self, topo):
        alg = make_algorithm("d-mod-k", topo)
        with_self = alg.all_pairs_table(include_self=True)
        without = alg.all_pairs_table()
        assert len(with_self) == 256
        assert len(without) == 240
