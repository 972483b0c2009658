"""Graph-general routing schemes: behavior, obliviousness, cross-validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Scenario, open_table
from repro.contention.link_load import link_flow_counts
from repro.core.factory import is_oblivious, make_algorithm
from repro.graphs import (
    GeneralGraph,
    GraphError,
    PathTable,
    RackeTreeRouting,
    RandomWalkRouting,
    XGFTPathRouting,
    leafspine,
)
from repro.graphs.contention import arc_loads, competitive_ratio
from repro.patterns.registry import resolve_pattern
from repro.topology.registry import resolve_topology

TOPOLOGIES = [
    "XGFT(2;4,4;1,2)",
    "leafspine(leaves=4,spines=2,hosts=2)",
    "random-regular(switches=8,degree=4,hosts=1,seed=3)",
]


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(s, d) for s in range(n) for d in range(n) if s != d]


class TestRandomWalk:
    @pytest.mark.parametrize("spec", TOPOLOGIES)
    def test_all_pairs_paths_are_valid(self, spec):
        alg = make_algorithm("random-walk", resolve_topology(spec), seed=1)
        table = alg.build_table(all_pairs(alg.topo.num_leaves))
        assert isinstance(table, PathTable)
        table.validate()

    def test_seeded_determinism(self):
        g = leafspine(leaves=4, spines=2, hosts=2)
        a = RandomWalkRouting(g, seed=3).build_table(all_pairs(8))
        b = RandomWalkRouting(g, seed=3).build_table(all_pairs(8))
        assert np.array_equal(a.arcs, b.arcs)
        c = RandomWalkRouting(g, seed=4).build_table(all_pairs(8))
        assert not np.array_equal(a.arcs, c.arcs)

    def test_subset_agrees_with_all_pairs(self):
        """Per-pair seeding: batch composition cannot change a route."""
        g = leafspine(leaves=4, spines=2, hosts=2)
        alg = RandomWalkRouting(g, seed=0)
        full = alg.build_table(all_pairs(8))
        sub = alg.build_table([(2, 5), (7, 0)])
        lookup = {(int(s), int(d)): i for i, (s, d) in enumerate(zip(full.src, full.dst))}
        assert np.array_equal(sub.path_arcs(0), full.path_arcs(lookup[(2, 5)]))
        assert np.array_equal(sub.path_arcs(1), full.path_arcs(lookup[(7, 0)]))

    def test_is_structurally_oblivious(self):
        alg = RandomWalkRouting(leafspine(leaves=2, spines=2, hosts=1))
        assert is_oblivious(alg)

    def test_cap_parameter(self):
        g = leafspine(leaves=2, spines=2, hosts=1)
        # cap=1 cannot reach anything: every path falls back to the
        # shortest host->leaf->spine->leaf->host route (4 arcs)
        alg = RandomWalkRouting(g, seed=0, cap=1)
        table = alg.build_table(all_pairs(2))
        table.validate()
        assert (table.hop_counts() == 4).all()
        with pytest.raises(ValueError, match="cap"):
            RandomWalkRouting(g, cap=-1)

    def test_up_ports_rejected(self):
        alg = RandomWalkRouting(leafspine(leaves=2, spines=2, hosts=1))
        with pytest.raises(TypeError, match="arc paths"):
            alg.up_ports(0, 1)

    def test_rejects_foreign_topology_type(self):
        with pytest.raises(TypeError, match="GeneralGraph or XGFT"):
            RandomWalkRouting(object())


class TestRackeTree:
    @pytest.mark.parametrize("spec", TOPOLOGIES)
    def test_all_pairs_paths_are_valid(self, spec):
        alg = make_algorithm("racke-tree", resolve_topology(spec), seed=1)
        table = alg.build_table(all_pairs(alg.topo.num_leaves))
        assert isinstance(table, PathTable)
        table.validate()

    def test_seeded_determinism(self):
        g = leafspine(leaves=4, spines=2, hosts=2)
        a = RackeTreeRouting(g, seed=3).build_table(all_pairs(8))
        b = RackeTreeRouting(g, seed=3).build_table(all_pairs(8))
        assert np.array_equal(a.arcs, b.arcs)

    def test_trees_spread_load(self):
        g = leafspine(leaves=8, spines=4, hosts=2)
        one = RackeTreeRouting(g, seed=0, trees=1).build_table(all_pairs(16))
        many = RackeTreeRouting(g, seed=0, trees=8).build_table(all_pairs(16))
        assert arc_loads(many).max() <= arc_loads(one).max()
        with pytest.raises(ValueError, match="trees"):
            RackeTreeRouting(g, trees=0)

    def test_needs_a_switch(self):
        g = GeneralGraph(2, [(0, 1)], [True, True], "pair()")
        with pytest.raises(GraphError, match="switch"):
            RackeTreeRouting(g)

    def test_competitive_ratio_is_at_least_one(self):
        for spec in TOPOLOGIES:
            alg = make_algorithm("racke-tree", resolve_topology(spec), seed=0)
            table = alg.build_table(all_pairs(alg.topo.num_leaves))
            assert competitive_ratio(table) >= 1.0


class TestXGFTPathBridge:
    @pytest.mark.parametrize("xgft", ["XGFT(2;4,4;1,2)", "XGFT(2;8,8;1,4)", "XGFT(3;2,2,2;1,2,2)"])
    @pytest.mark.parametrize("scheme", ["d-mod-k", "s-mod-k"])
    def test_link_loads_bit_exact(self, xgft, scheme):
        """The regression pin: graph-path loads == XGFT census, per link."""
        topo = resolve_topology(xgft)
        pairs = all_pairs(topo.num_leaves)
        native = link_flow_counts(make_algorithm(scheme, topo).build_table(pairs))
        bridge = make_algorithm(f"xgft-path(scheme={scheme})", topo)
        mapped = arc_loads(bridge.build_table(pairs))[bridge.topo.xgft_link_map]
        assert np.array_equal(native, mapped.astype(np.int64))

    def test_pattern_traffic_bit_exact(self):
        topo = resolve_topology("XGFT(2;8,8;1,4)")
        pairs = resolve_pattern("bit-reversal", topo.num_leaves).pairs()
        native = link_flow_counts(make_algorithm("d-mod-k", topo).build_table(pairs))
        bridge = make_algorithm("xgft-path(scheme=d-mod-k)", topo)
        table = bridge.build_table(pairs)
        table.validate()
        mapped = arc_loads(table)[bridge.topo.xgft_link_map]
        assert np.array_equal(native, mapped.astype(np.int64))

    @pytest.mark.parametrize("xgft", ["XGFT(2;8,8;1,4)", "XGFT(3;4,4,4;2,2,2)"])
    @pytest.mark.parametrize("scheme", ["d-mod-k", "r-nca-u"])
    def test_arcs_follow_the_route_links(self, xgft, scheme):
        """The batch gives every pair, self-pairs and repeats included,
        the arcs of its ``Route.links`` in path order, and
        ``pair_arcs`` answers the same."""
        topo = resolve_topology(xgft)
        n = topo.num_leaves
        pairs = [(s, d) for s in range(n) for d in range(n)]
        pairs += [(3, 9), (3, 9)]
        bridge = make_algorithm(f"xgft-path(scheme={scheme})", topo, seed=5)
        table = bridge.build_table(pairs)
        table.validate()
        link_map = bridge.topo.xgft_link_map
        for f, (s, d) in enumerate(pairs):
            want = [int(link_map[link]) for link in bridge.inner.route(s, d).links(topo)]
            assert table.path_arcs(f).tolist() == want, (s, d)
        for s, d in [(0, 1), (0, n - 1), (5, 5), (n - 1, 2)]:
            want = [int(link_map[link]) for link in bridge.inner.route(s, d).links(topo)]
            assert bridge.pair_arcs(s, d) == want

    def test_requires_xgft_provenance(self):
        with pytest.raises(GraphError, match="lowered from an XGFT"):
            XGFTPathRouting(leafspine(leaves=2, spines=2, hosts=1))

    def test_rejects_pattern_aware_inner(self):
        topo = resolve_topology("XGFT(2;4,4;1,2)")
        with pytest.raises(ValueError, match="oblivious"):
            XGFTPathRouting(topo, scheme="colored")


class TestFactoryGuard:
    def test_nca_schemes_rejected_on_graphs(self):
        g = leafspine(leaves=2, spines=2, hosts=1)
        with pytest.raises(ValueError, match="only on XGFT"):
            make_algorithm("d-mod-k", g)

    def test_graph_schemes_accept_both(self):
        for spec in TOPOLOGIES:
            alg = make_algorithm("random-walk", resolve_topology(spec))
            assert isinstance(alg.topo, GeneralGraph)


class TestScenarioIntegration:
    @pytest.mark.parametrize("algorithm", ["random-walk", "racke-tree"])
    def test_phase_evaluation_on_graph(self, algorithm):
        s = Scenario("leafspine(leaves=4,spines=2,hosts=2)", "shift", algorithm)
        result = s.evaluate(
            metrics=(
                "max_link_load",
                "max_congestion",
                "congestion_lower_bound",
                "competitive_ratio",
            )
        )
        assert result.metrics["max_link_load"] >= 1
        assert result.metrics["max_congestion"] >= result.metrics["congestion_lower_bound"]

    @pytest.mark.parametrize(
        "topology", ["random-regular(switches=16,degree=4,hosts=4,seed=3)", "XGFT(2;4,4;1,2)"]
    )
    @pytest.mark.parametrize("algorithm", ["random-walk", "racke-tree"])
    def test_replay_on_path_tables_equals_the_phase_model(self, topology, algorithm):
        """The replay reads each transfer's arcs from the scheme's path
        table, in the arc space of the graph the scheme routes (an XGFT
        spec is lowered); at the parent it asked for XGFT port digits."""
        s = Scenario(topology, "bit-reversal", algorithm)
        phase = s.evaluate(metrics=("sim_time", "slowdown"))
        replay = s.evaluate(metrics=("sim_time", "slowdown"), engine="replay")
        for metric in ("sim_time", "slowdown"):
            assert replay[metric] == pytest.approx(phase[metric], rel=1e-9)

    def test_graph_metrics_skip_on_xgft_port_tables(self):
        s = Scenario("XGFT(2;4,4;1,2)", "shift", "d-mod-k")
        result = s.evaluate(metrics=("max_link_load", "max_congestion"))
        assert "max_congestion" not in result.metrics

    def test_routes_per_nca_skips_on_path_tables(self):
        s = Scenario("XGFT(2;4,4;1,2)", "shift", "random-walk")
        result = s.evaluate(metrics=("max_link_load", "routes_per_nca"))
        assert "routes_per_nca" not in result.metrics

    @pytest.mark.parametrize(
        "topology", ["leafspine(leaves=4,spines=2,hosts=2)", "XGFT(2;4,4;1,2)"]
    )
    def test_path_tables_are_not_stored(self, topology, tmp_path):
        with pytest.raises(ValueError, match="path tables"):
            open_table(topology, "random-walk", store=tmp_path / "store")
        assert not (tmp_path / "store").exists()

    def test_faults_rejected_on_graph_topologies(self):
        s = Scenario(
            "leafspine(leaves=4,spines=2,hosts=2)",
            "shift",
            "random-walk",
            faults="links:count=1",
        )
        with pytest.raises(ValueError, match="XGFT-only"):
            s.evaluate(metrics=("max_link_load",))

    def test_faults_rejected_for_path_schemes_on_xgft(self):
        s = Scenario("XGFT(2;4,4;1,2)", "shift", "random-walk", faults="links:count=1")
        with pytest.raises(ValueError, match="XGFT-only"):
            s.evaluate(metrics=("max_link_load",))

    def test_dynamic_workload_on_graph(self):
        s = Scenario(
            "leafspine(leaves=4,spines=2,hosts=2)",
            "none",
            "random-walk",
            workload="poisson(load=0.3,flows=50)",
        )
        result = s.evaluate()
        assert result.dynamic is not None
        assert result.metrics["fct_mean"] > 0

    def test_fluid_sim_on_graph_matches_contention_bound(self):
        s = Scenario("leafspine(leaves=4,spines=2,hosts=2)", "shift", "racke-tree")
        result = s.evaluate(metrics=("max_link_load", "sim_time", "slowdown"))
        # the fluid engine's slowdown equals the max contention on a
        # single-phase permutation (the paper's Eq. 1 carried to graphs)
        assert result.metrics["slowdown"] == result.metrics["max_link_load"]
