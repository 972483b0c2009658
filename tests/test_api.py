"""The repro.api scenario facade: public surface, evaluation, comparison."""

from __future__ import annotations

import pytest

import repro
import repro.api
from repro.api import Comparison, RouteTableCache, Scenario, compare, evaluate_scenario
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

    def test_route_table_cached_and_reused(self):
        s = Scenario("XGFT(2;4,4;1,2)", "bit-reversal", "r-nca-d", seed=0)
        table = s.route_table()
        assert s.route_table() is table
        assert len(table) == len([p for p in s.traffic.pairs() if p[0] != p[1]])
        # evaluate() reuses the scenario's all-pairs table: no extra build
        builds_before = s._cache.builds
        s.evaluate(metrics=("max_link_load",))
        assert s._cache.builds == builds_before

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

    def test_random_faults_route_nothing(self):
        """A traffic-blind spec is realized without routing the pattern."""
        s = Scenario("XGFT(2;4,4;1,2)", "shift-1", "d-mod-k", faults="links:count=2,seed=1")
        assert s.degraded().num_failed_cables == 2
        assert s._cache.builds == 0

    def test_dynamic_worst_links_realized_in_the_handed_cache(self):
        """An adversarial dynamic scenario evaluated through a shared
        cache builds its all-pairs table there, once; degraded() then
        serves that realization without routing again."""
        s = Scenario(
            "XGFT(2;4,4;1,2)",
            "none",
            "d-mod-k",
            faults="worst-links:count=2",
            workload="poisson(load=0.5,flows=60)",
        )
        shared = RouteTableCache()
        result = evaluate_scenario(s, cache=shared)
        degraded = s.degraded()
        assert (shared.builds, s._cache.builds) == (1, 0)
        assert result.fault_info["failed_cables"] == degraded.num_failed_cables == 2
        assert s.degraded() is degraded

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
        """Regression: the scenario-held crossbar memo ignored the
        config, so re-evaluating under doubled bandwidth divided the new
        sim time by the old reference and reported slowdown 0.5."""
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
        from repro.patterns.base import Flow, Pattern, Phase

        pattern = Pattern((Phase(tuple(Flow(i, i, 100) for i in range(8))),), name="self")
        metric = Scenario(self.TOPO, pattern, "d-mod-k").evaluate(
            metrics=("slowdown",), engine=engine
        )
        assert metric.metrics["slowdown"] == 1.0

    def test_zero_size_pattern_is_an_error(self):
        """A pattern with no flows at all is a caller error."""
        from repro.patterns.base import Flow, Pattern, Phase

        empty = Pattern((Phase(()),), name="empty")
        with pytest.raises(ValueError, match="reference time"):
            Scenario(self.TOPO, empty, "d-mod-k").evaluate(metrics=("slowdown",))
        # and a flow cannot carry zero bytes in the first place
        with pytest.raises(ValueError, match="non-positive size"):
            Flow(0, 17, 0)

    def test_zero_reference_with_network_time_is_an_error(self):
        from repro.metrics import slowdown_ratio
        from repro.patterns.base import Flow, Pattern, Phase

        pattern = Pattern((Phase((Flow(0, 17, 100),)),), name="one")
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

    def test_shared_cache_across_scenarios(self):
        cache = RouteTableCache()
        base = Scenario("XGFT(2;4,4;1,2)", "shift-1", "r-nca-d", seed=0)
        other = base.with_(pattern="bit-reversal")
        evaluate_scenario(base, metrics=("max_link_load",), cache=cache)
        evaluate_scenario(other, metrics=("max_link_load",), cache=cache)
        assert cache.builds == 1 and cache.hits == 1

    def test_live_instances_with_equal_names_do_not_share_tables(self):
        """Regression: distinct live algorithm instances used to collide
        on their bare class name in a shared RouteTableCache, serving
        one instance's cached all-pairs table to the other."""
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

    def test_spec_string_memo_key_stays_verbatim(self):
        """The sweep's cross-worker memoization contract: string-spec
        scenarios keep (topology, algorithm, seed) as their cache key."""
        s = Scenario("XGFT(2;4,4;1,2)", "shift-1", "r-nca-d(map_kind=mod)", seed=3)
        assert s.memo_key == ("XGFT(2;4,4;1,2)", "r-nca-d(map_kind=mod)", 3)

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


class TestStoreBackedCache:
    def test_store_key_none_for_live_instances(self):
        """Regression companion to the bare-name collision fix: live
        algorithm instances are identity-keyed in memory and must never
        reach the content-addressed store, where two distinct instances
        with equal names would collide on one entry."""
        topo = XGFT((4, 4), (1, 2))
        live = Scenario(topo, "shift-1", make_algorithm("r-nca-d", topo, seed=1))
        assert live.store_key is None
        spec = Scenario(topo, "shift-1", "r-nca-d", seed=1)
        assert spec.store_key is not None
        assert spec.store_key.algorithm == "r-nca-d"

    def test_live_instances_never_touch_store(self, tmp_path):
        topo = XGFT((4, 4), (1, 2))
        cache = RouteTableCache(store=tmp_path / "store")
        for seed in (1, 2):
            s = Scenario(topo, "shift-1", make_algorithm("r-nca-d", topo, seed=seed))
            evaluate_scenario(s, metrics=("max_link_load",), cache=cache)
        stats = cache.stats()
        assert stats["table_builds"] == 2
        assert stats["store_hits"] == 0 and stats["store_puts"] == 0

    def test_topology_spellings_share_one_store_entry(self, tmp_path):
        cache1 = RouteTableCache(store=tmp_path / "store")
        evaluate_scenario(
            Scenario("XGFT(2;4,4;1,2)", "shift-1", "d-mod-k"),
            metrics=("max_link_load",),
            cache=cache1,
        )
        assert cache1.stats()["store_puts"] == 1
        # a fresh cache + the other spelling loads the same artifact
        cache2 = RouteTableCache(store=tmp_path / "store")
        evaluate_scenario(
            Scenario("xgft:2;4,4;1,2", "shift-1", "d-mod-k"),
            metrics=("max_link_load",),
            cache=cache2,
        )
        stats = cache2.stats()
        assert stats["store_hits"] == 1 and stats["table_builds"] == 0

    def test_store_load_matches_fresh_build(self, tmp_path):
        base = Scenario("XGFT(2;4,4;1,4)", "bit-reversal", "random", seed=3)
        fresh = base.evaluate(metrics=("max_link_load", "mean_link_load"))
        cache = RouteTableCache(store=tmp_path / "store")
        evaluate_scenario(base, metrics=("max_link_load",), cache=cache)
        reloaded = evaluate_scenario(
            base,
            metrics=("max_link_load", "mean_link_load"),
            cache=RouteTableCache(store=tmp_path / "store"),
        )
        assert reloaded.metrics == fresh.metrics

    def test_route_table_store_kwarg(self, tmp_path):
        import numpy as np

        from repro.store import ArtifactStore

        s = Scenario("XGFT(2;4,4;1,2)", "shift-1", "d-mod-k")
        s.route_table(store=tmp_path / "store")
        # the persisted artifact is the underlying all-pairs table,
        # not the pattern-restricted merge route_table() returns
        store = ArtifactStore(tmp_path / "store")
        assert store.contains(s.store_key)
        reference = make_algorithm("d-mod-k", s.topo).all_pairs_table()
        assert np.array_equal(store.load(s.store_key).ports, reference.ports)

    def test_stats_omit_store_counters_without_store(self):
        assert "store_hits" not in RouteTableCache().stats()
