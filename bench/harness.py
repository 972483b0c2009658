"""Shared plumbing of the benchmark workloads.

Every workload module (``grid``, ``dynamic``, ``serving``) returns an
:class:`Outcome`; this module holds what they share: the environment
stamp, the set-up probe (a child process timed from spawn to its
``ready`` line), the pass loop that fills ``--seconds``, the peak-RSS
readers, the relative-tolerance check and the traced-run file writer.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: where traced runs and the serve workload's scratch store write
OUT_DIR = ROOT / ".bench_out"
EXPECTED_PATH = BENCH_DIR / "expected.json"

#: relative tolerance of every floating-point output check
REL_TOL = 1e-9

#: set-up repetitions per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3

#: a child that has not reported ready by then is treated as hung
CHILD_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``metrics`` holds the end-to-end metrics of an untraced run and
    ``layers`` the per-layer metrics of a traced one.  ``attempted`` and
    ``failed`` count the workload's operations (grid cells, flows or
    responses); ``problems`` says why each failure was counted.
    """

    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    environment: dict = field(default_factory=dict)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


def environment() -> dict:
    """The environment stamp every result records."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # a source checkout that is not a git work tree
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "loadavg_1m": os.getloadavg()[0],
    }


def rel_close(actual: float, expected: float, tol: float = REL_TOL) -> bool:
    return abs(actual - expected) <= tol * max(abs(expected), 1e-300)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def expected_for(expected: dict, workload: str, size: str, seed: int) -> dict | None:
    """The committed outputs for one run, or ``None`` (check invariants only)."""
    return expected.get(workload, {}).get(size, {}).get(str(seed))


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child_env() -> dict:
    """The environment of a child: the package on the path, tracing off."""
    env = dict(os.environ)
    env.pop("REPRO_TRACE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def spawn(cmd: list[str]) -> subprocess.Popen:
    # unbuffered stdout, so a selector on the pipe never misses a line
    # sitting in a Python-side buffer
    return subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        bufsize=0,
    )


def read_line(proc: subprocess.Popen, accept: Callable[[str], bool]) -> str:
    """The first stdout line of ``proc`` that ``accept`` takes."""
    what = " ".join(str(a) for a in proc.args[1:5])
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not sel.select(remaining):
                raise RuntimeError(f"{what}: not ready after {CHILD_TIMEOUT_S:.0f}s")
            raw = proc.stdout.readline()
            if not raw:
                raise RuntimeError(f"{what}: exited with {proc.wait()} before ready")
            line = raw.decode(errors="replace").strip()
            if accept(line):
                return line


def stop(proc: subprocess.Popen, terminate: bool = True) -> None:
    """Stop a child (SIGTERM, then SIGKILL) and wait until it has ended.

    With ``terminate=False`` the child is expected to exit by itself.
    """
    if proc.poll() is None and terminate:
        proc.terminate()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def setup_probe(workload: str, seed: int, size: str) -> float:
    """Median set-up time: fresh processes, spawn to ``ready``.

    Each probe is ``run.py --setup-only``: interpreter start, imports
    and the workload's set-up, exactly what a run pays before its first
    timed operation.  A fresh process per probe keeps import-time work
    inside the measurement.
    """
    cmd = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--size", size,
        "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = spawn(cmd)
        ready = False
        try:
            read_line(proc, lambda line: line == "ready")
            samples.append(time.perf_counter() - t0)
            ready = True
        finally:
            stop(proc, terminate=not ready)
    return statistics.median(samples)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def timed_call(fn: Callable[[], object]) -> tuple:
    """``(fn(), seconds it took)``."""
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def timed_passes(seconds: float, one_pass: Callable[[], object]) -> tuple[list, list[float]]:
    """Repeat a fixed pass while the next one still fits in ``seconds``.

    At least one pass always runs; the pass size is fixed by the
    workload, so every run measures the same regime.
    """
    results: list = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        result, dt = timed_call(one_pass)
        results.append(result)
        durations.append(dt)
        if time.perf_counter() - start + dt > seconds:
            return results, durations


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live child process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Traced-run output
# ----------------------------------------------------------------------
def write_trace_outputs(prefix: Path, outcome: Outcome, header: dict) -> list[str]:
    """Write the per-layer JSON and the repro-trace pair; validate both.

    Returns the trace pair's validation problems (empty when both files
    are well formed).
    """
    from repro.obs.profile import top_spans
    from repro.obs.trace import validate_jsonl, validate_perfetto, write_trace_files

    prefix.parent.mkdir(parents=True, exist_ok=True)
    jsonl_path, perfetto_path = write_trace_files(prefix)
    doc = {
        **header,
        "layers": outcome.layers,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "top_spans": top_spans(limit=40),
        "trace_files": [jsonl_path.name, perfetto_path.name],
    }
    layers_path = Path(f"{prefix}.layers.json")
    layers_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    problems = [f"{jsonl_path.name}: {p}" for p in validate_jsonl(jsonl_path)]
    problems += [f"{perfetto_path.name}: {p}" for p in validate_perfetto(perfetto_path)]
    return problems
