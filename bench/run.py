"""Run one benchmark workload with one seed and print every metric.

    python3 bench/run.py --workload paper-grid --seed 0 --seconds 15 --trace 0

Workloads (``README.md`` says why each was chosen): ``paper-grid``,
``dyn-local``, ``dyn-spread``, ``serve``.  Inputs are generated from
``--seed``; outputs are checked against ``bench/expected.json`` (seeds
0–4) or against invariants (any other seed).

``--trace 0`` measures the end-to-end metrics on the unmodified
program.  ``--trace 1`` (or ``--trace PREFIX``) is the traced run: it
reports the per-layer metrics and writes ``PREFIX.layers.json`` plus
the repro-trace pair ``PREFIX.trace.jsonl`` / ``PREFIX.perfetto.json``
(default prefix ``.bench_out/<workload>-s<seed>``).

The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every output checked out.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("paper-grid", "dyn-local", "dyn-spread", "serve")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measuring budget (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", default="0", metavar="0|1|PREFIX",
        help="0 = end-to-end metrics; 1 or a path prefix = traced per-layer run",
    )
    parser.add_argument(
        "--size", default="full", choices=("full", "tiny"),
        help="tiny is the self-test's internal size; its numbers are not comparable",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="run the workload's set-up, print 'ready' and exit (the setup_s probe)",
    )
    args = parser.parse_args(argv)
    if args.setup_only and args.workload == "serve":
        parser.error("serve's set-up is its server process; it has no --setup-only")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def trace_prefix(value: str, workload: str, seed: int) -> Path | None:
    if value == "0":
        return None
    if value == "1":
        from bench.harness import OUT_DIR

        return OUT_DIR / f"{workload}-s{seed}"
    return Path(value)


def run_workload(workload: str, seed: int, seconds: float, prefix: Path | None = None,
                 size: str = "full", expected: dict | None = None):
    """Run one workload; returns its :class:`~bench.harness.Outcome`.

    ``prefix`` selects the traced run and names its output files;
    ``expected`` replaces ``bench/expected.json`` (the self-test
    corrupts a copy).
    """
    from bench import dynamic, grid, harness, serving
    from bench.layers import Tracing

    tracing = Tracing() if prefix is not None else None
    if expected is None:
        expected = harness.load_expected()
    env = harness.environment()
    if workload == "paper-grid":
        outcome = grid.run(seed, seconds, size, tracing, expected)
    elif workload == "serve":
        outcome = serving.run(seed, seconds, size, tracing, expected)
    else:
        outcome = dynamic.run(workload, seed, seconds, size, tracing, expected)
    outcome.environment = env
    if prefix is not None:
        header = {"workload": workload, "seed": seed, "seconds": seconds, "size": size,
                  "environment": env}
        outcome.problems += harness.write_trace_outputs(prefix, outcome, header)
    return outcome


def result_line(outcome, metric_specs: list[dict], values: dict, positive: bool) -> dict:
    """The final JSON object.  A metric that is missing, not finite, or
    (with ``positive``, for end-to-end metrics) not above zero makes the
    run incorrect, as does a run that attempted nothing."""
    metrics = {}
    for spec in metric_specs:
        name = spec["name"]
        value = values.get(name)
        if value is None or not math.isfinite(value) or (positive and value <= 0):
            outcome.problems.append(f"metric {name} was not measured (got {value!r})")
            continue
        metrics[name] = {"value": value, "unit": spec["unit"]}
    if outcome.attempted < 1:
        outcome.problems.append("no operation was attempted")
    correct = outcome.failed == 0 and not outcome.problems
    return {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench: {ROOT} has no src/repro package or no BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    if args.setup_only:
        from bench import dynamic, grid

        if args.workload == "paper-grid":
            grid.setup(args.seed, args.size)
        else:
            dynamic.setup(args.workload, args.seed, args.size)
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    prefix = trace_prefix(args.trace, args.workload, args.seed)
    outcome = run_workload(args.workload, args.seed, seconds, prefix, args.size)

    traced = prefix is not None
    metric_specs = spec["per_layer"] if traced else spec["end_to_end"]
    values = outcome.layers if traced else outcome.metrics
    result = result_line(outcome, metric_specs, values, positive=not traced)
    print(f"workload {args.workload} seed {args.seed} seconds {seconds:g} size {args.size} "
          f"trace {prefix if traced else 'off'}")
    print("env " + json.dumps(outcome.environment, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name:<28} {metric['value']:>16.6f} {metric['unit']}")
    frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"attempted {outcome.attempted} failed {outcome.failed} failed_frac {frac:g}")
    for problem in outcome.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
