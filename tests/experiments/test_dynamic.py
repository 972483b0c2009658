"""The dynamic workload axis: sweep planning, artifacts, CLI, gating."""

from __future__ import annotations

import json

import pytest

from repro.api import Scenario, format_run_id
from repro.cli import main
from repro.experiments import (
    DYNAMIC_METRICS,
    SweepSpec,
    dynamic_grid_spec,
    format_dynamic_sweep,
    format_sweep_results,
    load_artifact,
    plan_runs,
    run_sweep,
    sweep_compare,
    write_artifact,
)
from repro.experiments.sweep import record_id

TOPO = "XGFT(2;4,4;1,2)"
WL = "poisson(flows=120,load=0.5,mean_size=65536.0,sizes=fixed)"  # resolved identity


class TestSpecAxis:
    def test_round_trip_with_workloads(self):
        spec = SweepSpec(
            topologies=(TOPO,),
            patterns=("shift-1",),
            algorithms=("d-mod-k",),
            workloads=("none", WL),
        )
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_v2_dicts_default_to_no_workloads(self):
        spec = SweepSpec.from_dict(
            {"topologies": [TOPO], "patterns": ["shift-1"], "algorithms": ["d-mod-k"]}
        )
        assert spec.workloads == ("none",)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            SweepSpec(
                topologies=(TOPO,),
                patterns=("shift-1",),
                algorithms=("d-mod-k",),
                workloads=("tidal(load=1)",),  # repro: noqa[REP010] deliberately unknown: error-path test
            )

    def test_dynamic_only_sweep_needs_no_patterns(self):
        spec = SweepSpec(
            topologies=(TOPO,), patterns=(), algorithms=("d-mod-k",), workloads=(WL,)
        )
        assert plan_runs(spec)
        with pytest.raises(ValueError, match="pattern"):
            SweepSpec(topologies=(TOPO,), patterns=(), algorithms=("d-mod-k",))

    def test_patterns_never_silently_dropped(self):
        """Regression: patterns only plan under the 'none' workload — an
        all-dynamic workloads axis would silently skip them, shrinking
        the gate's coverage without a word."""
        with pytest.raises(ValueError, match="no 'none' entry"):
            SweepSpec(
                topologies=(TOPO,),
                patterns=("shift-1",),
                algorithms=("d-mod-k",),
                workloads=(WL,),
            )

    def test_dynamic_cells_never_collapse_seeds(self):
        """The seed drives the arrival stream, so even deterministic
        schemes sweep every seed on their dynamic cells."""
        spec = SweepSpec(
            topologies=(TOPO,),
            patterns=("shift-1",),
            algorithms=("d-mod-k",),
            seeds=3,
            workloads=("none", WL),
        )
        runs = plan_runs(spec)
        phase = [r for r in runs if r.workload == "none"]
        dynamic = [r for r in runs if r.workload != "none"]
        assert len(phase) == 1  # deterministic scheme, pristine: seed 0 only
        assert len(dynamic) == 3  # one per seed
        assert all(r.pattern == "none" for r in dynamic)

    def test_equivalent_spellings_share_one_run_id(self):
        """Regression: the workload identity is the *resolved* spec, so
        neither parameter order nor omitted defaults split a run id
        (or fail a baseline on spelling)."""
        a = Scenario(TOPO, "none", "d-mod-k", workload="poisson(load=0.5,flows=120)")
        b = Scenario(TOPO, "none", "d-mod-k", workload=WL)
        c = Scenario(
            TOPO, "none", "d-mod-k", workload="poisson(flows=120,load=0.5,sizes=fixed)"
        )
        assert a.run_id == b.run_id == c.run_id
        spec = SweepSpec(
            topologies=(TOPO,),
            patterns=(),
            algorithms=("d-mod-k",),
            workloads=("poisson(load=0.5,flows=120)",),
        )
        assert spec.workloads == (WL,)

    def test_trace_seeds_collapse(self, tmp_path):
        """Regression: a trace ignores seeds, so seeds>1 with a
        deterministic scheme on a pristine fabric must not plan N
        byte-identical simulations."""
        import numpy as np

        from repro.workloads import ArrivalStream, write_trace

        path = tmp_path / "t.csv"
        write_trace(ArrivalStream(np.asarray([0.0]), [0], [1], [64.0]), path)
        spec = SweepSpec(
            topologies=(TOPO,),
            patterns=(),
            algorithms=("d-mod-k", "random"),
            seeds=3,
            workloads=(f"trace(path={path})",),
        )
        runs = plan_runs(spec)
        by_algorithm = {}
        for r in runs:
            by_algorithm.setdefault(r.algorithm, []).append(r)
        assert len(by_algorithm["d-mod-k"]) == 1  # deterministic: collapsed
        assert len(by_algorithm["random"]) == 3  # routing seed still varies

    def test_non_fluid_engine_fails_fast(self):
        s = Scenario(TOPO, "none", "d-mod-k", workload=WL)
        with pytest.raises(ValueError, match="not a fluid backend"):
            s.evaluate(engine="replay")

    def test_run_id_has_workload_suffix(self):
        assert format_run_id(TOPO, "none", "d-mod-k", 1, workload=WL) == (
            f"{TOPO}/none/d-mod-k@1#{WL}"
        )
        assert (
            format_run_id(TOPO, "none", "d-mod-k", 1, "links:rate=0.1", WL)
            == f"{TOPO}/none/d-mod-k@1+links:rate=0.1#{WL}"
        )


class TestExecution:
    @pytest.fixture(scope="class")
    def result(self):
        spec = SweepSpec(
            topologies=(TOPO,),
            patterns=("shift-1",),
            algorithms=("d-mod-k", "random"),
            seeds=1,
            workloads=("none", WL),
        )
        return run_sweep(spec)

    def test_mixed_grid_runs_both_kinds(self, result):
        by_kind = {"phase": [], "dynamic": []}
        for r in result.runs:
            by_kind["dynamic" if r.get("workload", "none") != "none" else "phase"].append(r)
        assert len(by_kind["phase"]) == 2 and len(by_kind["dynamic"]) == 2
        for r in by_kind["dynamic"]:
            assert set(r["metrics"]) == set(DYNAMIC_METRICS)
            assert r["dynamic"]["flows"]["completed"] == 120
            assert r["pattern"] == "none"
        for r in by_kind["phase"]:
            assert "slowdown" in r["metrics"]

    def test_route_tables_shared_with_phase_cells(self, result):
        # 2 algorithms x (1 phase + 1 dynamic) cell, one build each
        assert result.cache_stats["table_builds"] == 2
        assert result.cache_stats["table_hits"] == 2

    def test_record_ids_unique_and_stable(self, result):
        ids = [record_id(r) for r in result.runs]
        assert len(set(ids)) == len(ids)
        assert f"{TOPO}/none/d-mod-k@0#{WL}" in ids

    def test_artifact_round_trip_and_compare(self, result, tmp_path):
        path = write_artifact(result, tmp_path / "dyn.json")
        data = load_artifact(path)
        comparison = sweep_compare(data, data)
        assert comparison.ok and comparison.compared > 0

    def test_regression_gate_catches_fct_drift(self, result, tmp_path):
        current = json.loads(json.dumps(result.to_dict()))
        for r in current["runs"]:
            if r.get("workload", "none") != "none":
                r["metrics"]["fct_p99"] *= 2.0
        comparison = sweep_compare(result.to_dict(), current, rel_tol=0.05)
        assert not comparison.ok
        assert any(d.metric == "fct_p99" for d in comparison.regressions)

    def test_formatters(self, result):
        text = format_sweep_results(result)
        assert "workload" in text and WL in text
        table = format_dynamic_sweep(result)
        assert "FCT p50/p99" in table and "d-mod-k" in table and WL in table


class TestScenarioFacade:
    def test_dynamic_scenario_round_trip(self):
        s = Scenario(TOPO, "none", "d-mod-k", workload=WL, seed=1)
        assert s.is_dynamic
        result = s.evaluate()
        assert result.dynamic is not None
        assert result.dynamic.num_completed == 120
        record = result.to_record()
        assert record["workload"] == WL
        assert "util" not in record["dynamic"]

    def test_dynamic_scenario_has_no_phase_pattern(self):
        s = Scenario(TOPO, "none", "d-mod-k", workload=WL)
        with pytest.raises(ValueError, match="no phase pattern"):
            _ = s.traffic

    def test_phase_scenario_has_no_workload(self):
        s = Scenario(TOPO, "shift-1", "d-mod-k")
        assert not s.is_dynamic
        with pytest.raises(ValueError, match="no workload axis"):
            _ = s.dynamic_workload

    def test_real_pattern_with_workload_rejected(self):
        """Regression: a pattern alongside a workload would be silently
        ignored while still naming the run — reject at construction."""
        with pytest.raises(ValueError, match="pass pattern='none'"):
            Scenario(TOPO, "shift-1", "d-mod-k", workload=WL)

    def test_dynamic_faults_compose(self):
        s = Scenario(TOPO, "none", "d-mod-k", faults="links:rate=0.2", workload=WL)
        result = s.evaluate()
        assert result.fault_info["failed_cables"] > 0
        assert result.metrics["rejected_fraction"] >= 0.0

    def test_engines_face_identical_streams(self):
        base = Scenario(TOPO, "none", "d-mod-k", workload=WL, seed=3)
        vec = base.evaluate(engine="fluid-vec")
        scalar = Scenario(TOPO, "none", "d-mod-k", workload=WL, seed=3).evaluate(
            engine="fluid"
        )
        assert vec.metrics["fct_p99"] == pytest.approx(
            scalar.metrics["fct_p99"], rel=1e-9
        )


class TestDynamicCli:
    def test_dynamic_subcommand_curve_and_artifact(self, tmp_path, capsys):
        out = tmp_path / "dyn.json"
        rc = main(
            [
                "dynamic",
                "--topology", TOPO,
                "--loads", "0.3", "0.6",
                "--flows", "100",
                "--algorithms", "d-mod-k",
                "-o", str(out),
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "FCT p50/p99" in text and "dynamic runs" in text
        data = load_artifact(out)
        assert len(data["runs"]) == 2
        assert all(r["metrics"]["fct_p50"] > 0 for r in data["runs"])

    def test_dynamic_gates_through_compare(self, tmp_path, capsys):
        """`repro dynamic -o` plus `repro compare` is the dynamic gate:
        a re-run passes at 2%, a slower FCT fails it."""
        args = ["dynamic", "--topology", TOPO, "--workload", WL, "--algorithms", "d-mod-k"]
        base, current = tmp_path / "base.json", tmp_path / "current.json"
        assert main([*args, "-o", str(base)]) == 0
        assert main([*args, "-o", str(current)]) == 0
        capsys.readouterr()
        assert main(["compare", str(base), str(current), "--tolerance", "0.02"]) == 0
        assert capsys.readouterr().out.rstrip().endswith("PASS")
        data = json.loads(current.read_text())
        data["runs"][0]["metrics"]["fct_p99"] *= 1.03
        current.write_text(json.dumps(data))
        assert main(["compare", str(base), str(current), "--tolerance", "0.02"]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main([*args, "--baseline", str(base)])

    def test_sweep_workloads_flag(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        rc = main(
            [
                "sweep",
                "--topologies", TOPO,
                "--patterns", "shift-1",
                "--algorithms", "d-mod-k",
                "--workloads", "none", WL,
                "-o", str(out),
            ]
        )
        assert rc == 0
        data = load_artifact(out)
        workloads = {r.get("workload", "none") for r in data["runs"]}
        assert workloads == {"none", WL}

    def test_dynamic_grid_spec_validation(self):
        with pytest.raises(ValueError, match="workload"):
            dynamic_grid_spec(TOPO, (), ("d-mod-k",))
        with pytest.raises(ValueError, match="not 'none'"):
            dynamic_grid_spec(TOPO, ("none",), ("d-mod-k",))

    def test_workload_conflicts_with_ladder_flags(self, capsys):
        """Regression: --flows/--sizes/--loads only shape the poisson
        ladder; combined with --workload they were silently dropped."""
        with pytest.raises(SystemExit, match="cannot be combined"):
            main(["dynamic", "--workload", WL, "--flows", "500"])
        with pytest.raises(SystemExit, match="cannot be combined"):
            main(["dynamic", "--workload", WL, "--loads", "0.5"])

    def test_fault_rows_never_pool_with_pristine(self, tmp_path, capsys):
        """Regression: format_dynamic_sweep keyed cells only by
        (workload, algorithm), pooling pristine and degraded FCTs into
        one fictitious median row."""
        rc = main(
            [
                "dynamic",
                "--topology", TOPO,
                "--workload", WL,
                "--algorithms", "d-mod-k",
                "--faults", "none", "links:rate=0.2",
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert f"{WL}+links:rate=0.2" in text  # its own row
        lines = [ln for ln in text.splitlines() if ln.strip().startswith(WL.split("(")[0])]
        assert len(lines) == 2  # pristine row + faulted row
