"""The repro.api scenario facade: public surface, evaluation, comparison."""

from __future__ import annotations

import numpy as np
import pytest

import repro
import repro.api
from repro.api import Comparison, RouteTableCache, Scenario, compare, open_table
from repro.core import make_algorithm
from repro.faults import parse_fault_spec
from repro.patterns.registry import resolve_pattern
from repro.topology import XGFT


class TestPublicSurface:
    def test_api_all_names_import_cleanly(self):
        assert repro.api.__all__, "repro.api must declare a public surface"
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None, name

    def test_package_all_names_import_cleanly(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_facade_reexported_at_top_level(self):
        assert repro.Scenario is Scenario
        assert repro.compare is compare


class TestScenarioResolution:
    def test_spec_strings(self):
        s = Scenario("xgft:2;4,4;1,2", "bit-reversal", "d-mod-k")
        assert s.topo == XGFT((4, 4), (1, 2))
        assert s.traffic.num_ranks == 16
        assert s.routing.name == "d-mod-k"
        assert s.fault_spec.kind == "none"

    def test_live_objects(self):
        topo = XGFT((4, 4), (1, 2))
        pattern = resolve_pattern("shift-1", 16)
        algorithm = make_algorithm("s-mod-k", topo)
        faults = parse_fault_spec("links:count=1")
        s = Scenario(topo, pattern, algorithm, faults=faults, seed=2)
        assert s.topo is topo
        assert s.traffic is pattern
        assert s.routing is algorithm
        assert s.topology_spec == "XGFT(2;4,4;1,2)"
        assert s.pattern_spec == "shift-1"
        assert s.algorithm_spec == "s-mod-k"
        assert s.faults_spec == "links:count=1"

    def test_algorithm_topology_mismatch_rejected(self):
        algorithm = make_algorithm("s-mod-k", XGFT((4, 4), (1, 4)))
        s = Scenario("XGFT(2;4,4;1,2)", "shift-1", algorithm)
        with pytest.raises(ValueError, match="different topology"):
            s.routing

    def test_run_id_matches_sweep_format(self):
        s = Scenario("XGFT(2;4,4;1,2)", "shift-1", "d-mod-k", seed=3)
        assert s.run_id == "XGFT(2;4,4;1,2)/shift-1/d-mod-k@3"
        faulted = s.with_(faults="links:rate=0.05")
        assert faulted.run_id.endswith("@3+links:rate=0.05")

    def test_with_replaces_axes(self):
        s = Scenario("XGFT(2;4,4;1,2)", "shift-1", "d-mod-k")
        t = s.with_(algorithm="s-mod-k", seed=5)
        assert (t.algorithm, t.seed) == ("s-mod-k", 5)
        assert (s.algorithm, s.seed) == ("d-mod-k", 0)  # original untouched


class TestScenarioEvaluation:
    def test_acceptance_scenario_end_to_end(self):
        """The issue's acceptance criterion, verbatim."""
        result = Scenario(
            "xgft:2;4,4;1,2", "bit-reversal", "r-nca-u(r=2)",
            faults="links:rate=0.05", seed=0,
        ).evaluate()
        assert set(result.metrics) == {
            "max_link_load",
            "mean_link_load",
            "max_network_contention",
            "sim_time",
            "slowdown",
        }
        assert result.metrics["slowdown"] >= 1.0
        assert result.fault_info["failed_cables"] >= 1
        assert result.run_id.endswith("+links:rate=0.05")

    def test_matches_sweep_execute_run(self):
        """Facade evaluation and the sweep engine agree bit-for-bit."""
        from repro.experiments.sweep import RunSpec, execute_run

        run = RunSpec("XGFT(2;4,4;1,2)", "bit-reversal", "r-nca-d", 1, "links:rate=0.1")
        record = execute_run(run, ("max_link_load", "slowdown", "disconnected_fraction"))
        result = Scenario(
            run.topology, run.pattern, run.algorithm, faults=run.faults, seed=run.seed
        ).evaluate(metrics=("max_link_load", "slowdown", "disconnected_fraction"))
        got = result.to_record()
        for key in ("topology", "pattern", "algorithm", "seed", "faults", "metrics",
                    "load_histogram", "fault_info"):
            assert got.get(key) == record.get(key), key

    def test_route_table_cached_and_reused(self, routing_calls):
        s = Scenario("XGFT(2;4,4;1,2)", "bit-reversal", "r-nca-d", seed=0)
        table = s.route_table()
        assert s.route_table() is table
        assert len(table) == len([p for p in s.traffic.pairs() if p[0] != p[1]])
        # a phase scenario routes its own pairs, once: no all-pairs table
        s.evaluate(metrics=("max_link_load",))
        assert routing_calls == {"pairs": [len(table)], "all_pairs": 0, "route": 0}

    @pytest.mark.parametrize("first", ["route_table", "degraded"])
    def test_evaluate_reuses_the_scenario_routes(self, routing_calls, first):
        """Regression: evaluate() routed a phase scenario again after
        route_table() or an adversarial degraded() had routed it."""
        faults = "worst-links:count=2" if first == "degraded" else "none"
        s = Scenario("XGFT(2;4,4;1,4)", "bit-reversal", "d-mod-k", faults=faults)
        getattr(s, first)()
        s.evaluate(metrics=("max_link_load",))
        assert routing_calls["pairs"] == [12]

    def test_degraded_none_when_pristine(self):
        s = Scenario("XGFT(2;4,4;1,2)", "shift-1", "d-mod-k")
        assert s.degraded() is None

    def test_degraded_realizes_against_own_routes(self):
        s = Scenario(
            "XGFT(2;4,4;1,2)", "shift-1", "d-mod-k", faults="worst-links:count=2"
        )
        degraded = s.degraded()
        assert degraded is not None
        assert degraded.num_failed_cables == 2
        assert s.degraded() is degraded  # cached

    def test_random_faults_route_nothing(self, routing_calls):
        """A traffic-blind spec is realized without routing the pattern."""
        s = Scenario("XGFT(2;4,4;1,2)", "shift-1", "d-mod-k", faults="links:count=2,seed=1")
        assert s.degraded().num_failed_cables == 2
        assert routing_calls == {"pairs": [], "all_pairs": 0, "route": 0}

    def test_dynamic_worst_links_realized_against_its_arrivals(self, routing_calls):
        """A dynamic cell's adversary watches the routes of its own
        arrivals.  Regression: it watched the scheme's all-pairs table,
        so on sub-tree-local traffic it cut cables 128 and 129, which no
        arrival crosses, and the run equalled the pristine one."""
        workload = "poisson(load=3.0,sizes=uniform,spread=0.5,flows=300,locality=1.0,group=8)"
        pristine = Scenario("XGFT(2;8,16;1,4)", "none", "d-mod-k", workload=workload)
        s = pristine.with_(faults="worst-links:count=2")
        result = s.evaluate()
        degraded = s.degraded()
        assert s.degraded() is degraded
        assert result.fault_info["failed_cables"] == degraded.num_failed_cables == 2
        routes = s.route_table()
        assert len(routes) == 300 and routing_calls["all_pairs"] == 0
        # every cut cable carries at least one arrival's route (a cable
        # is an up link and its down twin in the directed link space)
        _, links = routes.flow_links()
        crossed = set((links % s.topo.num_links_per_direction).tolist())
        cut = np.nonzero(~degraded.cable_alive)[0].tolist()
        assert len(cut) == 2 and set(cut) <= crossed
        assert result.dynamic.num_rejected > 0
        assert result.metrics != pristine.evaluate().metrics
        # the adversary's routes are the ones the driver ran: one routing
        # for this cell, one for the pristine one
        assert routing_calls["pairs"] == [300, 300]

    @pytest.mark.parametrize("faults", ["none", "worst-links:count=2"])
    def test_dynamic_evaluate_twice_routes_once(self, routing_calls, faults):
        """A second evaluate() reuses the scenario's stream and routes and
        gives the first one's result."""
        s = Scenario(
            "XGFT(2;4,4;1,4)", "none", "d-mod-k", faults=faults,
            workload="poisson(load=0.9,flows=60)", seed=3,
        )
        first, second = s.evaluate(), s.evaluate()
        assert second.metrics == first.metrics
        assert second.fault_info == first.fault_info
        assert second.dynamic.util == first.dynamic.util
        assert second.dynamic.stats.engine == first.dynamic.stats.engine
        assert routing_calls["pairs"] == [60]

    def test_metrics_default_and_custom_selection(self):
        s = Scenario("XGFT(2;4,4;1,2)", "shift-1", "d-mod-k")
        assert set(s.evaluate().metrics) == {
            "max_link_load", "mean_link_load", "max_network_contention",
            "sim_time", "slowdown",
        }
        only = s.evaluate(metrics=("max_link_load",))
        assert set(only.metrics) == {"max_link_load"}
        assert only["max_link_load"] == only.metrics["max_link_load"]

    def test_unknown_metric_rejected(self):
        s = Scenario("XGFT(2;4,4;1,2)", "shift-1", "d-mod-k")
        with pytest.raises(ValueError, match="unknown metrics"):
            s.evaluate(metrics=("latency",))  # repro: noqa[REP010] deliberately unknown: error-path test

    def test_unknown_engine_rejected(self):
        """Regression: an engine typo used to fall through `engine ==
        'fluid'` checks and silently run the replay engine."""
        s = Scenario("XGFT(2;4,4;1,2)", "shift-1", "d-mod-k")
        with pytest.raises(ValueError, match="unknown engine"):
            s.evaluate(metrics=("sim_time",), engine="fluidd")  # repro: noqa[REP010] deliberately unknown: error-path test

    def test_crossbar_memo_keyed_by_config(self):
        """Regression: a crossbar memo once ignored the config, so
        re-evaluating under doubled bandwidth divided the new sim time
        by the old reference and reported slowdown 0.5."""
        from dataclasses import replace as dc_replace

        from repro.sim.config import PAPER_CONFIG

        s = Scenario("XGFT(2;4,4;1,4)", "shift-1", "d-mod-k")
        assert s.evaluate(metrics=("slowdown",)).metrics["slowdown"] == pytest.approx(1.0)
        fast = dc_replace(PAPER_CONFIG, link_bandwidth=2 * PAPER_CONFIG.link_bandwidth)
        again = s.evaluate(metrics=("slowdown",), config=fast)
        assert again.metrics["slowdown"] == pytest.approx(1.0)


class TestSlowdownRule:
    """The ``slowdown`` metric follows one ratio rule
    (:func:`repro.metrics.slowdown_ratio`) on every engine."""

    TOPO = "XGFT(2;16,16;1,8)"

    @pytest.mark.parametrize("engine", ["fluid", "fluid-vec", "fluid-vec-inc", "replay"])
    def test_self_pair_pattern_is_one(self, engine):
        """Regression: every flow a self-pair moves no network bytes, so
        t_net == t_ref == 0, and the slowdown is the 1.0 convention."""
        from repro.patterns.base import Pattern, Phase

        pattern = Pattern((Phase(range(8), range(8), [100] * 8),), name="self")
        metric = Scenario(self.TOPO, pattern, "d-mod-k").evaluate(
            metrics=("slowdown",), engine=engine
        )
        assert metric.metrics["slowdown"] == 1.0

    def test_zero_size_pattern_is_an_error(self):
        """A pattern with no flows at all is a caller error."""
        from repro.patterns.base import Pattern, Phase

        empty = Pattern((Phase([], [], []),), name="empty")
        with pytest.raises(ValueError, match="reference time"):
            Scenario(self.TOPO, empty, "d-mod-k").evaluate(metrics=("slowdown",))
        # and a flow cannot carry zero bytes in the first place
        with pytest.raises(ValueError, match="non-positive size"):
            Phase([0], [17], [0])

    def test_zero_reference_with_network_time_is_an_error(self):
        from repro.metrics import slowdown_ratio
        from repro.patterns.base import Pattern, Phase

        pattern = Pattern((Phase([0], [17], [100]),), name="one")
        assert slowdown_ratio(6.0, 2.0, pattern) == 3.0
        assert slowdown_ratio(0.0, 0.0, pattern) == 1.0
        with pytest.raises(ValueError, match="reference time"):
            slowdown_ratio(1.0, 0.0, pattern)


class TestCompare:
    def test_cross_algorithm_table(self):
        base = Scenario("XGFT(2;4,4;1,2)", "bit-reversal", "d-mod-k")
        comparison = compare(
            [base, base.with_(algorithm="s-mod-k"), base.with_(algorithm="colored")],
            metrics=("max_link_load", "max_network_contention"),
        )
        assert isinstance(comparison, Comparison)
        assert len(comparison.results) == 3
        text = comparison.format()
        assert "d-mod-k" in text and "colored" in text
        assert "max_link_load" in text
        # colored is the pattern-aware optimum: never worse than d-mod-k
        best = comparison.best("max_network_contention")
        d_modk = comparison.results[0]
        assert best.metrics["max_network_contention"] <= d_modk.metrics[
            "max_network_contention"
        ]

    def test_each_scenario_routes_its_own_traffic(self, routing_calls):
        """Phase scenarios route their phases' pairs and dynamic ones
        their arrivals; none builds an all-pairs table."""
        base = Scenario("XGFT(2;4,4;1,2)", "shift-1", "r-nca-d", seed=0)
        dynamic = base.with_(pattern="none", workload="poisson(load=0.5,flows=40)")
        comparison = compare(
            [
                base,
                base.with_(pattern="bit-reversal"),
                dynamic,
                dynamic.with_(workload="poisson(load=0.8,flows=40)"),
            ],
            metrics=("max_link_load",),
        )
        assert len(comparison.results) == 4
        assert routing_calls["all_pairs"] == 0
        assert routing_calls["pairs"] == [16, 12, 40, 40]

    def test_live_instances_with_equal_names_do_not_share_tables(self):
        """Regression: distinct live algorithm instances used to collide
        on their bare class name in a shared route-table cache, serving
        one instance's cached table to the other."""
        topo = XGFT((8, 8), (1, 4))
        a1 = make_algorithm("r-nca-d", topo, seed=1)
        a2 = make_algorithm("r-nca-d", topo, seed=2)
        comparison = compare(
            [
                Scenario(topo, "bit-reversal", a1),
                Scenario(topo, "bit-reversal", a2),
            ],
            metrics=("max_link_load",),
        )
        expected = [
            Scenario(topo, "bit-reversal", alg).evaluate(metrics=("max_link_load",))
            for alg in (a1, a2)
        ]
        got = [r.metrics["max_link_load"] for r in comparison.results]
        assert got == [r.metrics["max_link_load"] for r in expected]

    def test_degraded_realized_once_across_evaluate_calls(self):
        s = Scenario(
            "XGFT(2;4,4;1,2)", "shift-1", "d-mod-k", faults="worst-links:count=2"
        )
        first = s.degraded()
        s.evaluate(metrics=("max_link_load",))
        assert s.degraded() is first

    def test_empty_comparison_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            compare([])


class TestRouteTableCache:
    def test_placeholder_changes_nothing(self):
        """The benchmark still hands ``execute_run`` a cache; it is ignored."""
        from repro.experiments.sweep import RunSpec, execute_run

        run = RunSpec("XGFT(2;4,4;1,2)", "bit-reversal", "random", 1)
        with_cache = execute_run(run, ("max_link_load",), "fluid-vec", RouteTableCache())
        without = execute_run(run, ("max_link_load",), "fluid-vec")
        assert with_cache["metrics"] == without["metrics"]
        assert not vars(RouteTableCache())

    def test_store_entry_serves_the_scenario_routes(self, tmp_path):
        """The persistent way to a table is ``open_table``: its rows for
        a pattern's pairs are the routes the scenario itself builds."""
        s = Scenario("XGFT(2;4,4;1,4)", "bit-reversal", "random", seed=3)
        table = s.route_table()
        compact = open_table(s.topology_spec, "random", seed=3, store=tmp_path / "store")
        nca, ports = compact.batch_lookup(table.src, table.dst)
        assert np.array_equal(nca, table.nca_level)
        assert np.array_equal(ports, table.ports)
