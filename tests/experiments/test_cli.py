"""Tests for the command-line interface."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.cli import build_parser, main, package_version
from repro.sim.engines import DEFAULT_ENGINE


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"repro {package_version()}"

    def test_python_dash_m_entry_point(self):
        import os
        from pathlib import Path

        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("repro ")

    def test_fig2_args(self):
        args = build_parser().parse_args(["fig2", "--app", "cg", "--w2", "16", "8"])
        assert args.app == "cg"
        assert args.w2 == [16, 8]
        assert args.engine == DEFAULT_ENGINE

    def test_app_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig2", "--app", "linpack"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--topology", "XGFT(2;4,4;1,2)"]) == 0
        out = capsys.readouterr().out
        assert "XGFT(2;4,4;1,2)" in out
        assert "switches" in out

    def test_table1(self, capsys):
        assert main(["table1", "--topology", "XGFT(2;16,16;1,10)"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        assert "transpose" in capsys.readouterr().out

    def test_fig2_small(self, capsys):
        assert main(["fig2", "--app", "cg", "--w2", "16", "1", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "colored" in out and "random" in out

    def test_fig4_small(self, capsys):
        assert main(["fig4", "--w2", "10", "--seeds", "2"]) == 0
        assert "NCA" in capsys.readouterr().out

    def test_fig5_small(self, capsys):
        assert main(["fig5", "--app", "cg", "--w2", "16", "--seeds", "2"]) == 0
        assert "r-nca-u" in capsys.readouterr().out

    def test_equivalence(self, capsys):
        assert main(["equivalence", "--permutations", "10"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_bad_topology_spec(self):
        with pytest.raises(ValueError):
            main(["info", "--topology", "not-a-spec"])

    def test_eval_compares_algorithms(self, capsys):
        assert main([
            "eval",
            "--topology", "xgft:2;4,4;1,2",
            "--pattern", "bit-reversal",
            "--algorithms", "d-mod-k", "s-mod-k",
            "--metrics", "max_link_load", "max_network_contention",
        ]) == 0
        out = capsys.readouterr().out
        assert "d-mod-k" in out and "s-mod-k" in out
        assert "max_link_load" in out

    def test_eval_with_faults_and_registry_specs(self, capsys):
        assert main([
            "eval",
            "--topology", "slimmed-two-level(m1=4,m2=4,w2=2)",
            "--pattern", "shift(d=1)",
            "--algorithms", "d-mod-k",
            "--faults", "links:count=1",
            "--metrics", "max_link_load", "disconnected_fraction",
        ]) == 0
        out = capsys.readouterr().out
        assert "+links:count=1" in out
        assert "disconnected_fraction" in out


SWEEP_ARGS = [
    "sweep",
    "--topologies", "XGFT(2;4,4;1,4)",
    "--patterns", "shift-1", "bit-reversal",
    "--algorithms", "s-mod-k", "random",
    "--seeds", "2",
]


class TestSweepCommands:
    def test_sweep_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "sweep_results.json"
        assert main([*SWEEP_ARGS, "-o", str(out)]) == 0
        assert "artifact written" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert data["kind"] == "repro-sweep-results"
        assert len(data["runs"]) == 2 * (1 + 2)

    def test_sweep_filter_and_jobs(self, tmp_path, capsys):
        out = tmp_path / "filtered.json"
        assert main([*SWEEP_ARGS, "--filter", "shift-1", "--jobs", "2", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert all(r["pattern"] == "shift-1" for r in data["runs"])

    def test_sweep_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "topologies": ["XGFT(2;4,4;1,2)"],
                    "patterns": ["transpose"],
                    "algorithms": ["d-mod-k"],
                    "seeds": 1,
                }
            )
        )
        out = tmp_path / "from_spec.json"
        assert main(["sweep", "--spec", str(spec_path), "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert [r["algorithm"] for r in data["runs"]] == ["d-mod-k"]

    def test_sweep_gates_through_compare(self, tmp_path, capsys):
        """`repro compare` is the one gate: a re-run passes against the
        first run's artifact, and the retired in-command gate is gone."""
        base, current = tmp_path / "base.json", tmp_path / "current.json"
        assert main([*SWEEP_ARGS, "-o", str(base)]) == 0
        assert main([*SWEEP_ARGS, "-o", str(current)]) == 0
        capsys.readouterr()
        assert main(["compare", str(base), str(current)]) == 0
        assert capsys.readouterr().out.rstrip().endswith("PASS")
        for retired in (["--baseline", str(base)], ["--tolerance", "0.1"]):
            with pytest.raises(SystemExit):
                main([*SWEEP_ARGS, "-o", str(current), *retired])

    def test_graphs_command_is_retired(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["graphs", "--preset", "smoke"])

    def test_sweep_faults_flag(self, tmp_path, capsys):
        out = tmp_path / "faulted.json"
        assert main([
            "sweep",
            "--topologies", "XGFT(2;4,4;1,2)",
            "--patterns", "shift-1",
            "--algorithms", "d-mod-k",
            "--faults", "none", "links:count=1,seed=2",
            "--metrics", "max_link_load", "disconnected_fraction",
            "--seeds", "1",
            "-o", str(out),
        ]) == 0
        data = json.loads(out.read_text())
        assert [r["faults"] for r in data["runs"]] == ["none", "links:count=1,seed=2"]
        assert all("disconnected_fraction" in r["metrics"] for r in data["runs"])

    def test_faults_flag_conflicts_with_spec(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "topologies": ["XGFT(2;4,4;1,2)"],
            "patterns": ["shift-1"],
            "algorithms": ["d-mod-k"],
        }))
        with pytest.raises(SystemExit, match="faults"):
            main(["sweep", "--spec", str(spec_path), "--faults", "links:count=1"])

    def test_compare_detects_regression(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        assert main([*SWEEP_ARGS, "-o", str(base)]) == 0
        data = json.loads(base.read_text())
        data["runs"][0]["metrics"]["max_link_load"] *= 10
        worse = tmp_path / "worse.json"
        worse.write_text(json.dumps(data))
        assert main(["compare", str(base), str(worse)]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        # and the reverse direction is an improvement, not a failure
        assert main(["compare", str(worse), str(base)]) == 0


class TestFaultsCommand:
    def test_prints_curve_and_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "faults.json"
        assert main([
            "faults",
            "--topology", "XGFT(2;4,4;1,2)",
            "--pattern", "shift-1",
            "--algorithms", "d-mod-k", "r-nca-d",
            "--rates", "0", "0.05",
            "--seeds", "2",
            "--jobs", "2",
            "-o", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "fault scenario" in text and "links:rate=0.05" in text
        data = json.loads(out.read_text())
        assert data["schema_version"] == 3
        assert data["spec"]["faults"] == ["none", "links:rate=0.05"]

    def test_defaults_run(self, capsys):
        assert main(["faults", "--topology", "XGFT(2;4,4;1,4)", "--rates", "0",
                     "--algorithms", "d-mod-k", "--seeds", "1"]) == 0
        assert "d-mod-k" in capsys.readouterr().out


class TestServeCommand:
    TOPO = "XGFT(2;4,4;1,4)"

    def test_info_mode(self, tmp_path, capsys):
        assert main([
            "serve", "--topology", self.TOPO, "--algorithm", "d-mod-k",
            "--store", str(tmp_path / "store"),
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["key"]["algorithm"] == "d-mod-k"
        assert doc["encoding"] == "columnar"

    def test_batch_mode_round_trip(self, tmp_path, capsys):
        queries = tmp_path / "queries.jsonl"
        queries.write_text(
            json.dumps({"op": "lookup", "src": 0, "dst": 9}) + "\n"
            + json.dumps({"op": "batch", "src": [1, 2], "dst": [8, 3]}) + "\n"
        )
        assert main([
            "serve", "--topology", self.TOPO, "--algorithm", "d-mod-k",
            "--store", str(tmp_path / "store"), "--batch", str(queries),
        ]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 2 and all(r["ok"] for r in lines)
        assert lines[1]["count"] == 2

    def test_batch_mode_error_exits_nonzero(self, tmp_path, capsys):
        queries = tmp_path / "queries.jsonl"
        queries.write_text(json.dumps({"op": "lookup", "src": 0, "dst": 0}) + "\n")
        assert main([
            "serve", "--topology", self.TOPO, "--algorithm", "d-mod-k",
            "--store", str(tmp_path / "store"), "--batch", str(queries),
        ]) == 1
        assert not json.loads(capsys.readouterr().out)["ok"]

    def test_no_build_on_empty_store_fails(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main([
                "serve", "--topology", self.TOPO, "--algorithm", "d-mod-k",
                "--store", str(tmp_path / "store"), "--no-build",
            ])


class TestProfileCommand:
    def test_workload_profile_writes_trace_pair(self, tmp_path, capsys):
        from repro.obs.trace import TRACER, validate_jsonl, validate_perfetto

        prefix = tmp_path / "prof"
        assert main([
            "profile",
            "--workload", "poisson(load=0.3,flows=150)",
            "--topology", "XGFT(2;4,4;1,2)",
            "-o", str(prefix),
        ]) == 0
        out = capsys.readouterr().out
        assert "span coverage:" in out
        assert "fluid.fill" in out
        assert validate_jsonl(tmp_path / "prof.trace.jsonl") == []
        assert validate_perfetto(tmp_path / "prof.perfetto.json") == []
        # the CLI leaves the global tracer off for the rest of the process
        assert not TRACER.enabled

    def test_spec_profile_reports_optimizer_counters(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "colored-profile",
            "topologies": ["XGFT(2;4,4;1,2)"],
            "patterns": ["bit-reversal"],
            "algorithms": ["colored"],
            "metrics": ["max_link_load"],
        }))
        assert main(["profile", "--spec", str(spec), "-o", str(tmp_path / "prof")]) == 0
        out = capsys.readouterr().out
        assert "colored.evaluations" in out
        assert "colored.moves" in out

    def test_overhead_check_arg_wiring(self, monkeypatch, capsys, tmp_path):
        """The gate A/Bs the very spec the trace mode would run."""
        import repro.obs.profile as profile_mod

        seen = {}

        def fake_check(spec, repeats, tolerance):
            seen.update(spec=spec, repeats=repeats, tolerance=tolerance)
            return {
                "spec": spec.name, "engine": spec.engine, "repeats": repeats,
                "baseline_s": 1.0, "instrumented_s": 1.0, "ratio": 1.0,
                "overhead_pct": 0.0, "tolerance_pct": tolerance * 100, "ok": True,
            }

        monkeypatch.setattr(profile_mod, "run_overhead_check", fake_check)
        assert main(["profile", "--overhead-check",
                     "--workload", "poisson(load=0.7,flows=600)",
                     "--topology", "XGFT(2;4,4;1,2)", "--engine", "fluid-vec-inc",
                     "--repeats", "2", "--tolerance", "0.1"]) == 0
        assert (seen["repeats"], seen["tolerance"]) == (2, 0.1)
        spec = seen["spec"]
        assert spec.topologies == ("XGFT(2;4,4;1,2)",)
        (workload,) = spec.workloads  # canonicalized by the spec
        assert "load=0.7" in workload and "flows=600" in workload
        assert spec.engine == "fluid-vec-inc"
        assert "[OK] spec=dynamic engine=fluid-vec-inc" in capsys.readouterr().out

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "name": "tiny", "topologies": ["XGFT(2;4,4;1,2)"],
            "patterns": ["shift-1"], "algorithms": ["d-mod-k"], "engine": "fluid",
        }))
        assert main(["profile", "--overhead-check", "--spec", str(spec_file)]) == 0
        assert (seen["spec"].name, seen["spec"].engine) == ("tiny", "fluid")
        assert (seen["repeats"], seen["tolerance"]) == (3, 0.02)


class TestTracePlumbing:
    def test_trace_flag_wraps_dynamic(self, tmp_path, capsys):
        from repro.obs.trace import TRACER, read_jsonl

        prefix = tmp_path / "dyn"
        assert main([
            "dynamic",
            "--topology", "XGFT(2;4,4;1,2)",
            "--workload", "poisson(load=0.3,flows=100)",
            "--trace", str(prefix),
        ]) == 0
        _, spans = read_jsonl(tmp_path / "dyn.trace.jsonl")
        names = {s.name for s in spans}
        assert {"sweep.run", "driver.arrivals", "fluid.fill"} <= names
        assert not TRACER.enabled

    def test_env_var_enables_tracing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "envtrace"))
        assert main(["info", "--topology", "XGFT(2;4,4;1,2)"]) == 0
        assert (tmp_path / "envtrace.trace.jsonl").exists()
        assert (tmp_path / "envtrace.perfetto.json").exists()

    def test_log_level_flag(self, capsys):
        import logging

        assert main(["--log-level", "debug", "info",
                     "--topology", "XGFT(2;4,4;1,2)"]) == 0
        assert logging.getLogger("repro").level == logging.DEBUG
        main(["--log-level", "warning", "info", "--topology", "XGFT(2;4,4;1,2)"])
