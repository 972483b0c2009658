"""Self-test of the benchmark at its tiny internal size (``pytest bench/``).

For every workload: an untraced and a traced run through the command
line print every metric of ``BENCHMARK.json`` with its unit, the traced
run writes valid trace files, and a corrupted expected value makes the
run fail.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bench.harness import load_expected
from bench.run import WORKLOADS, run_workload
from repro.obs.trace import validate_jsonl, validate_perfetto

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run_cli(workload: str, trace: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "bench" / "run.py"),
            "--workload", workload, "--seed", "0", "--seconds", "1",
            "--size", "tiny", "--trace", trace,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result, proc.stdout


def _assert_every_metric(result: dict, stdout: str, specs: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert re.search(rf"^{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$", stdout, re.M)


def test_names_are_well_formed():
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS
    for entry in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(entry["name"]), entry["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_end_to_end_metrics(workload):
    result, stdout = _run_cli(workload, "0")
    _assert_every_metric(result, stdout, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_layers_and_writes_valid_traces(workload, tmp_path):
    prefix = tmp_path / workload
    result, stdout = _run_cli(workload, str(prefix))
    _assert_every_metric(result, stdout, SPEC["per_layer"])
    assert result["metrics"]["obs.coverage"]["value"] >= 0.8
    assert validate_jsonl(f"{prefix}.trace.jsonl") == []
    assert validate_perfetto(f"{prefix}.perfetto.json") == []
    layers = json.loads(Path(f"{prefix}.layers.json").read_text())
    assert layers["layers"] == {k: v["value"] for k, v in result["metrics"].items()}


def _corrupt(expected: dict, workload: str) -> dict:
    """A copy with one committed tiny-size seed-0 value changed."""
    out = copy.deepcopy(expected)
    entry = out[workload]["tiny"]["0"]
    key = sorted(entry)[0]
    if isinstance(entry[key], list):  # a grid cell: bump its slowdown
        entry[key][2] *= 1.001
    else:
        entry[key] += 1
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_expected_value_fails_the_run(workload):
    expected = load_expected()
    clean = run_workload(workload, 0, 1.0, size="tiny", expected=expected)
    assert clean.failed == 0 and not clean.problems
    bad = run_workload(workload, 0, 1.0, size="tiny", expected=_corrupt(expected, workload))
    assert bad.failed > 0
    assert bad.problems
