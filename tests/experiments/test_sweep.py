"""The sweep engine: planning, memoization, parallelism, artifacts."""

from __future__ import annotations

import json

import pytest

from repro.experiments import (
    DEFAULT_METRICS,
    RESILIENCE_METRICS,
    SCHEMA_VERSION,
    RunSpec,
    SweepSpec,
    execute_run,
    load_artifact,
    plan_runs,
    run_sweep,
    sweep_compare,
    write_artifact,
)
from repro.patterns.registry import resolve_pattern
from repro.registry import parse_spec

SMALL_SPEC = SweepSpec(
    topologies=("XGFT(2;4,4;1,4)", "XGFT(2;4,4;1,2)"),
    patterns=("shift-1", "bit-reversal"),
    algorithms=("s-mod-k", "random", "r-nca-d"),
    seeds=2,
)


class TestSpec:
    def test_round_trip(self):
        assert SweepSpec.from_dict(SMALL_SPEC.to_dict()) == SMALL_SPEC

    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError):
            SweepSpec(topologies=(), patterns=("shift-1",), algorithms=("s-mod-k",))

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown metrics"):
            SweepSpec(
                topologies=("XGFT(2;4,4;1,4)",),
                patterns=("shift-1",),
                algorithms=("s-mod-k",),
                metrics=("latency",),  # repro: noqa[REP010] deliberately unknown: error-path test
            )

    def test_rejects_bad_topology(self):
        with pytest.raises(ValueError):
            SweepSpec(
                topologies=("not-a-tree",), patterns=("shift-1",), algorithms=("s-mod-k",)  # repro: noqa[REP010] deliberately unknown: error-path test
            )

    def test_rejects_bad_engine(self):
        with pytest.raises(ValueError, match="engine"):
            SweepSpec(
                topologies=("XGFT(2;4,4;1,4)",),
                patterns=("shift-1",),
                algorithms=("s-mod-k",),
                engine="telepathy",  # repro: noqa[REP010] deliberately unknown: error-path test
            )


class TestAlgorithmSpec:
    def test_plain_name(self):
        assert parse_spec("r-nca-d") == ("r-nca-d", {})

    def test_parameters(self):
        name, kwargs = parse_spec("r-nca-d(map_kind=mod, k=8, fast=true)")
        assert name == "r-nca-d"
        assert kwargs == {"map_kind": "mod", "k": 8, "fast": True}

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_spec("r-nca-d(map_kind)")


class TestPatterns:
    def test_applications_carry_their_size(self):
        assert resolve_pattern("wrf-256", 256).num_ranks == 256
        assert resolve_pattern("cg", 256).num_ranks == 128

    def test_pattern_must_fit_topology(self):
        with pytest.raises(ValueError, match="leaves"):
            resolve_pattern("wrf-256", 16)

    def test_synthetic_patterns_scale(self):
        for name in ("shift-1", "bit-reversal", "bit-complement", "transpose", "all-pairs"):
            pattern = resolve_pattern(name, 16)
            assert pattern.num_ranks == 16
        assert len(resolve_pattern("all-pairs", 16).pairs()) == 16 * 15

    def test_unknown_pattern(self):
        with pytest.raises(ValueError, match="unknown pattern"):
            resolve_pattern("linpack", 16)  # repro: noqa[REP010] deliberately unknown: error-path test


class TestPlanning:
    def test_cartesian_product_with_seed_collapse(self):
        runs = plan_runs(SMALL_SPEC)
        # 2 topologies x 2 patterns x (s-mod-k@{0} + {random,r-nca-d}@{0,1})
        assert len(runs) == 2 * 2 * (1 + 2 + 2)
        smodk = [r for r in runs if r.algorithm == "s-mod-k"]
        assert {r.seed for r in smodk} == {0}
        random_runs = [r for r in runs if r.algorithm == "random"]
        assert {r.seed for r in random_runs} == {0, 1}

    def test_memo_key_contiguity(self):
        runs = plan_runs(SMALL_SPEC)
        seen, previous = set(), None
        for run in runs:
            if run.memo_key != previous:
                assert run.memo_key not in seen, "memo group split across the plan"
                seen.add(run.memo_key)
                previous = run.memo_key

    def test_filter_substring(self):
        runs = plan_runs(SMALL_SPEC, run_filter="bit-reversal")
        assert runs and all(r.pattern == "bit-reversal" for r in runs)

    def test_filter_glob(self):
        runs = plan_runs(SMALL_SPEC, run_filter="*1,2)/*@0")
        assert runs and all(r.topology.endswith("1,2)") and r.seed == 0 for r in runs)

    def test_plan_validates_fit(self):
        spec = SweepSpec(
            topologies=("XGFT(2;4,4;1,4)",), patterns=("cg-128",), algorithms=("s-mod-k",)
        )
        with pytest.raises(ValueError, match="leaves"):
            plan_runs(spec)


class TestMemoization:
    def test_phase_cells_build_no_all_pairs_table(self, routing_calls):
        # every phase cell routes only its own pairs
        run_sweep(SMALL_SPEC)
        assert routing_calls["all_pairs"] == 0

    def test_dynamic_cells_of_a_group_route_their_own_arrivals(self, routing_calls):
        """A group's dynamic cells route their own streams, one
        ``build_table`` call of 40 arrivals each, whatever ran before
        them in the group."""
        workload = "poisson(load=0.5,flows=40)"
        run_a = RunSpec("XGFT(2;4,4;1,4)", "none", "random", 0, workload=workload)
        run_b = RunSpec("XGFT(2;4,4;1,4)", "none", "random", 0, "links:count=1,seed=2", workload)
        phase = RunSpec("XGFT(2;4,4;1,4)", "shift-1", "random", 0)
        records = [execute_run(run, DEFAULT_METRICS) for run in (run_a, phase, run_b)]
        assert routing_calls["all_pairs"] == 0
        assert routing_calls["pairs"] == [40, 16, 40]
        assert [r["dynamic"]["flows"]["arrivals"] for r in records[::2]] == [40, 40]

    def test_pattern_aware_runs_per_cell(self, routing_calls):
        spec = SweepSpec(
            topologies=("XGFT(2;4,4;1,2)",),
            patterns=("shift-1", "bit-reversal"),
            algorithms=("colored",),
        )
        result = run_sweep(spec)
        assert routing_calls["all_pairs"] == 0
        assert len(result.runs) == 2


class TestExecution:
    def test_parallel_equals_serial(self):
        serial = run_sweep(SMALL_SPEC, jobs=1)
        parallel = run_sweep(SMALL_SPEC, jobs=4)
        assert [r["metrics"] for r in serial.runs] == [r["metrics"] for r in parallel.runs]
        assert [r["load_histogram"] for r in serial.runs] == [
            r["load_histogram"] for r in parallel.runs
        ]

    def test_run_order_matches_plan(self):
        result = run_sweep(SMALL_SPEC, jobs=3)
        planned = [r.run_id for r in plan_runs(SMALL_SPEC)]
        got = [
            f"{r['topology']}/{r['pattern']}/{r['algorithm']}@{r['seed']}"
            for r in result.runs
        ]
        assert got == planned

    def test_metric_selection(self):
        spec = SweepSpec(
            topologies=("XGFT(2;4,4;1,4)",),
            patterns=("all-pairs",),
            algorithms=("s-mod-k",),
            metrics=("routes_per_nca", "max_link_load"),
        )
        result = run_sweep(spec)
        metrics = result.runs[0]["metrics"]
        assert set(metrics) == {"routes_per_nca", "max_link_load"}
        assert sum(metrics["routes_per_nca"]) == 16 * 15 - 4 * 4 * 3  # cross-switch pairs

    def test_artifact_has_no_cache_section(self):
        doc = run_sweep(SMALL_SPEC, run_filter="XGFT(2;4,4;1,2)*").to_dict()
        assert "cache" not in doc
        assert doc["schema_version"] == SCHEMA_VERSION == 3

    def test_empty_filter_gives_empty_result(self):
        result = run_sweep(SMALL_SPEC, run_filter="no-such-run")
        assert result.runs == []


class TestObsAggregation:
    @pytest.fixture
    def traced(self):
        from repro.obs.trace import TRACER

        TRACER.enable()
        TRACER.clear()
        yield TRACER
        TRACER.disable()
        TRACER.clear()

    def test_untraced_sweep_has_no_obs_section(self):
        result = run_sweep(SMALL_SPEC, run_filter="XGFT(2;4,4;1,2)*")
        assert result.obs == {}
        assert "obs" not in result.to_dict()

    def test_traced_sweep_aggregates_spans(self, traced):
        result = run_sweep(SMALL_SPEC, run_filter="XGFT(2;4,4;1,2)*")
        assert result.obs["sweep.run"]["count"] == len(result.runs)
        assert result.obs["sweep.run"]["total_s"] > 0.0
        doc = result.to_dict()
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["obs"]["spans"]["sweep.run"]["count"] == len(result.runs)

    def test_worker_spans_merge_across_processes(self, traced):
        serial = run_sweep(SMALL_SPEC, jobs=1)
        parallel = run_sweep(SMALL_SPEC, jobs=4)
        # per-name counts are deterministic even though the spans were
        # recorded in separate worker processes and merged as aggregates
        assert parallel.obs["sweep.run"]["count"] == len(parallel.runs)
        assert serial.obs["sweep.run"]["count"] == parallel.obs["sweep.run"]["count"]
        assert set(parallel.obs) >= {"sweep.run", "fluid.fill"}


class TestArtifact:
    def test_round_trip(self, tmp_path):
        result = run_sweep(SMALL_SPEC)
        path = write_artifact(result, tmp_path / "sweep_results.json")
        data = load_artifact(path)
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["kind"] == "repro-sweep-results"
        assert SweepSpec.from_dict(data["spec"]) == SMALL_SPEC
        assert data["runs"] == result.runs
        assert {"python", "numpy", "platform", "repro", "cpu_count"} <= set(
            data["environment"]
        )

    def test_deterministic_across_executions(self, tmp_path):
        a = run_sweep(SMALL_SPEC, jobs=1)
        b = run_sweep(SMALL_SPEC, jobs=2)
        da = json.loads(write_artifact(a, tmp_path / "a.json").read_text())
        db = json.loads(write_artifact(b, tmp_path / "b.json").read_text())
        # identical except wall-clock timings
        for record in da["runs"] + db["runs"]:
            record.pop("wall_time_s")
        da.pop("total_wall_time_s")
        db.pop("total_wall_time_s")
        assert da == db

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(ValueError, match="not a sweep artifact"):
            load_artifact(path)

    def test_rejects_schema_mismatch(self, tmp_path):
        result = run_sweep(SMALL_SPEC, run_filter="shift-1")
        data = result.to_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="schema"):
            load_artifact(path)


class TestCompare:
    @pytest.fixture(scope="class")
    def artifact(self):
        return run_sweep(SMALL_SPEC).to_dict()

    def test_identical_artifacts_pass(self, artifact):
        comparison = sweep_compare(artifact, artifact)
        assert comparison.ok
        assert not comparison.regressions and not comparison.missing_runs
        assert comparison.compared > 0

    def test_injected_regression_detected(self, artifact):
        import copy

        worse = copy.deepcopy(artifact)
        worse["runs"][0]["metrics"]["max_link_load"] *= 2
        comparison = sweep_compare(artifact, worse, rel_tol=0.05)
        assert not comparison.ok
        assert any(d.metric == "max_link_load" for d in comparison.regressions)

    def test_within_tolerance_passes(self, artifact):
        import copy

        near = copy.deepcopy(artifact)
        for record in near["runs"]:
            if "slowdown" in record["metrics"]:
                record["metrics"]["slowdown"] *= 1.01
        assert sweep_compare(artifact, near, rel_tol=0.05).ok

    def test_missing_metric_fails(self, artifact):
        import copy

        stripped = copy.deepcopy(artifact)
        for record in stripped["runs"]:
            record["metrics"].pop("slowdown", None)
        comparison = sweep_compare(artifact, stripped)
        assert not comparison.ok
        assert comparison.missing_metrics
        assert all(entry.endswith("::slowdown") for entry in comparison.missing_metrics)

    def test_missing_run_fails(self, artifact):
        import copy

        shrunk = copy.deepcopy(artifact)
        shrunk["runs"] = shrunk["runs"][:-1]
        comparison = sweep_compare(artifact, shrunk)
        assert not comparison.ok and len(comparison.missing_runs) == 1

    def test_improvement_is_not_a_failure(self, artifact):
        import copy

        better = copy.deepcopy(artifact)
        for record in better["runs"]:
            if "sim_time" in record["metrics"]:
                record["metrics"]["sim_time"] *= 0.5
        comparison = sweep_compare(artifact, better)
        assert comparison.ok and comparison.improvements

    def test_schema_mismatch_raises(self, artifact):
        import copy

        other = copy.deepcopy(artifact)
        other["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            sweep_compare(artifact, other)


class TestFaultsAxis:
    FAULT_SPEC = SweepSpec(
        topologies=("XGFT(3;4,4,4;1,4,2)",),
        patterns=("shift-1",),
        algorithms=("d-mod-k", "s-mod-k", "r-nca-d"),
        seeds=2,
        metrics=("max_link_load", "slowdown") + RESILIENCE_METRICS,
        faults=("none", "links:rate=0.01", "links:rate=0.05"),
    )

    def test_spec_round_trip_and_validation(self):
        spec = self.FAULT_SPEC
        assert SweepSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError, match="fault"):
            SweepSpec(
                topologies=("XGFT(2;4,4;1,4)",),
                patterns=("shift-1",),
                algorithms=("s-mod-k",),
                faults=("meteor:count=1",),
            )
        with pytest.raises(ValueError, match="faults"):
            SweepSpec(
                topologies=("XGFT(2;4,4;1,4)",),
                patterns=("shift-1",),
                algorithms=("s-mod-k",),
                faults=(),
            )

    def test_plan_expands_fault_axis(self):
        runs = plan_runs(self.FAULT_SPEC)
        # deterministic schemes: 1 pristine run + 2 faults x 2 repair seeds;
        # the randomized scheme: 2 seeds x 3 faults
        assert len(runs) == 2 * (1 + 2 * 2) + 2 * 3
        assert {r.faults for r in runs} == {"none", "links:rate=0.01", "links:rate=0.05"}
        # memo groups stay contiguous across the fault axis
        seen, previous = set(), None
        for run in runs:
            if run.memo_key != previous:
                assert run.memo_key not in seen
                seen.add(run.memo_key)
                previous = run.memo_key

    def test_deterministic_schemes_sweep_repair_seeds_under_faults(self):
        """The seed axis stays collapsed on the pristine fabric but
        varies the repair draw under faults, even for d-mod-k."""
        runs = plan_runs(self.FAULT_SPEC)
        dmodk = [r for r in runs if r.algorithm == "d-mod-k"]
        assert {r.seed for r in dmodk if r.faults == "none"} == {0}
        assert {r.seed for r in dmodk if r.faults != "none"} == {0, 1}
        # and the extra seed yields a genuinely different repair on a
        # scenario where flows break but stay connected
        records = [
            execute_run(
                RunSpec(
                    "XGFT(2;4,4;1,4)", "all-pairs", "d-mod-k", seed,
                    "switches:count=1,level=2",
                ),
                ("max_link_load",),
            )
            for seed in (0, 1)
        ]
        assert all(r["fault_info"]["repaired_flows"] > 0 for r in records)

    def test_run_ids_share_one_formatter(self):
        from repro.experiments.sweep import record_id

        run = RunSpec("XGFT(2;4,4;1,4)", "shift-1", "d-mod-k", 0, "links:count=1")
        record = execute_run(run, ("max_link_load",))
        assert record_id(record) == run.run_id

    def test_out_of_range_rate_rejected_at_spec_time(self):
        with pytest.raises(ValueError, match="rate"):
            SweepSpec(
                topologies=("XGFT(2;4,4;1,4)",),
                patterns=("shift-1",),
                algorithms=("s-mod-k",),
                faults=("links:rate=1.5",),
            )

    def test_run_id_tags_faults(self):
        run = RunSpec("XGFT(2;4,4;1,4)", "shift-1", "s-mod-k", 0, "links:rate=0.05")
        assert run.run_id.endswith("@0+links:rate=0.05")
        pristine = RunSpec("XGFT(2;4,4;1,4)", "shift-1", "s-mod-k", 0)
        assert "+" not in pristine.run_id

    def test_resilience_metrics_trivial_without_faults(self):
        run = RunSpec("XGFT(2;4,4;1,4)", "shift-1", "s-mod-k", 0)
        record = execute_run(run, RESILIENCE_METRICS)
        assert record["metrics"]["disconnected_fraction"] == 0.0
        assert record["metrics"]["max_load_inflation"] == 1.0
        assert record["metrics"]["mean_load_inflation"] == 1.0
        assert record["faults"] == "none"
        assert "fault_info" not in record

    def test_fault_run_record_shape(self):
        run = RunSpec(
            "XGFT(2;4,4;1,2)", "all-pairs", "d-mod-k", 0, "links:rate=0.05"
        )
        record = execute_run(run, ("max_link_load",) + RESILIENCE_METRICS)
        info = record["fault_info"]
        assert info["failed_cables"] >= 1
        assert info["broken_flows"] == info["repaired_flows"] + info["disconnected_flows"]
        assert record["metrics"]["disconnected_fraction"] == pytest.approx(
            info["disconnected_flows"] / info["total_flows"]
        )

    def test_adversarial_faults_use_the_pattern(self):
        record = execute_run(
            RunSpec("XGFT(2;4,4;1,2)", "shift-1", "d-mod-k", 0, "worst-links:count=2"),
            ("max_link_load", "disconnected_fraction"),
        )
        assert record["fault_info"]["failed_cables"] == 2
        assert record["fault_info"]["broken_flows"] > 0

    def test_all_algorithms_face_the_same_fabric(self):
        result = run_sweep(self.FAULT_SPEC, run_filter="rate=0.05")
        infos = {
            (r["algorithm"], r["seed"]): (
                r["fault_info"]["failed_cables"],
                r["fault_info"]["failed_switches"],
            )
            for r in result.runs
        }
        assert len(set(infos.values())) == 1

    def test_parallel_equals_serial_with_faults(self):
        serial = run_sweep(self.FAULT_SPEC, jobs=1)
        parallel = run_sweep(self.FAULT_SPEC, jobs=4)
        assert [r["metrics"] for r in serial.runs] == [
            r["metrics"] for r in parallel.runs
        ]

    def test_artifact_round_trip_v3(self, tmp_path):
        result = run_sweep(self.FAULT_SPEC, run_filter="rate=0.01")
        path = write_artifact(result, tmp_path / "faults.json")
        data = load_artifact(path)
        assert data["schema_version"] == SCHEMA_VERSION == 3
        assert data["spec"]["faults"] == list(self.FAULT_SPEC.faults)
        # v1 artifacts are refused with a clear diagnostic
        data["schema_version"] = 1
        stale = tmp_path / "v1.json"
        stale.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="schema"):
            load_artifact(stale)

    def test_lossy_slowdown_keeps_its_floor(self):
        """Regression: dropping flows must not push slowdown below the
        crossbar floor (the reference covers the surviving flows only)."""
        lossy = execute_run(
            RunSpec("XGFT(2;4,4;1,2)", "all-pairs", "d-mod-k", 0, "links:rate=0.4,seed=1"),
            ("slowdown", "disconnected_fraction"),
        )
        assert lossy["metrics"]["disconnected_fraction"] > 0.5
        assert lossy["metrics"]["slowdown"] >= 1.0

    def test_fully_disconnected_slowdown_is_neutral(self):
        # cut every leaf uplink: nothing survives, slowdown reports 1.0
        record = execute_run(
            RunSpec("XGFT(1;4;1)", "shift-1", "d-mod-k", 0, "links:rate=0.99,seed=0"),
            ("slowdown", "disconnected_fraction"),
        )
        assert record["metrics"]["disconnected_fraction"] == 1.0
        assert record["metrics"]["slowdown"] == 1.0

    def test_replay_engine_rejects_lossy_faults(self):
        run = RunSpec(
            "XGFT(2;4,4;1,2)", "shift-1", "d-mod-k", 0, "links:rate=0.2,seed=3"
        )
        with pytest.raises(ValueError, match="replay"):
            execute_run(run, ("sim_time",), engine="replay")

    def test_replay_engine_accepts_lossless_faults(self):
        # one dead root of four: reroutes but never disconnects
        run = RunSpec(
            "XGFT(2;4,4;1,4)", "shift-1", "d-mod-k", 0, "switches:count=1,level=2"
        )
        record = execute_run(run, ("sim_time", "disconnected_fraction"), engine="replay")
        assert record["metrics"]["sim_time"] > 0
        assert record["metrics"]["disconnected_fraction"] == 0.0

    def test_fault_grid_spec(self):
        from repro.experiments import fault_grid_spec

        spec = fault_grid_spec(
            "XGFT(2;4,4;1,4)", "shift-1", ("d-mod-k",), (0.0, 0.05), seeds=1
        )
        assert spec.faults == ("none", "links:rate=0.05")
        with pytest.raises(ValueError, match="duplicate"):
            fault_grid_spec("XGFT(2;4,4;1,4)", "shift-1", ("d-mod-k",), (0.0, 0.0))
        with pytest.raises(ValueError, match="kind"):
            fault_grid_spec("XGFT(2;4,4;1,4)", "shift-1", ("d-mod-k",), (0.1,), kind="x")


class TestRoutesPerNcaGrid:
    def test_all_pairs_census_grid(self):
        """The Fig. 4 census as a sweep: deterministic schemes collapse
        to one seed, and every cross-switch pair lands on one root."""
        spec = SweepSpec(
            topologies=("XGFT(2;16,16;1,2)",),
            patterns=("all-pairs",),
            algorithms=("s-mod-k", "d-mod-k", "random", "r-nca-u", "r-nca-d"),
            seeds=2,
            metrics=("routes_per_nca",),
        )
        result = run_sweep(spec)
        assert len(result.runs) == 2 + 3 * 2  # 2 deterministic + 3 randomized x 2 seeds
        for record in result.runs:
            census = record["metrics"]["routes_per_nca"]
            assert len(census) == 2  # one entry per root (w2 roots)
            assert sum(census) == 256 * 255 - 16 * 16 * 15
