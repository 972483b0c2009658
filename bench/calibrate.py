"""Calibrate the benchmark's bounds: two sets of runs, alternating order.

    python3 bench/calibrate.py [--runs 10] [-o bench/CALIBRATION.json]

Each set runs every workload untraced once per seed ``0 … runs-1``
(``run_seconds`` of ``BENCHMARK.json``), walking the workloads forward
in even rounds and backward in odd ones so a slow phase of the machine
hits every workload alike.  Per set, workload and end-to-end metric it
records the values, their median and the distance between the first
and third quartile (``statistics.quantiles(n=4)``) as a share of the
median.  The checks: every run correct; each spread except
``setup_s``'s below a third of the metric's bound; and the second
set's median not worse than the first's by more than the bound.  The
exit code is 0 only when every check holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    wall_s = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {"seed": seed, "exit": proc.returncode, "wall_s": wall_s, "result": result}


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "iqr": q3 - q1, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("-o", "--output", type=Path, default=BENCH_DIR / "CALIBRATION.json")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench.harness import environment

    env = environment()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = float(spec["run_seconds"])

    sets = []
    rounds = 0
    for set_index in range(2):
        runs: dict[str, list[dict]] = {w: [] for w in workloads}
        for seed in range(args.runs):
            order = workloads if rounds % 2 == 0 else workloads[::-1]
            rounds += 1
            for workload in order:
                run = run_once(workload, seed, seconds)
                runs[workload].append(run)
                print(f"set {set_index} seed {seed} {workload}: exit {run['exit']} "
                      f"wall {run['wall_s']:.1f}s", flush=True)
        sets.append(runs)

    checks = []
    summaries = []
    ok = True
    for runs in sets:
        per_workload = {}
        for workload, entries in runs.items():
            good = [e["result"] for e in entries if e["result"] and e["result"]["correct"]]
            ok &= len(good) == len(entries)
            per_workload[workload] = {
                "runs": len(entries),
                "correct": len(good),
                "wall_s": [round(e["wall_s"], 3) for e in entries],
                "metrics": {
                    m["name"]: summarize([g["metrics"][m["name"]]["value"] for g in good])
                    for m in spec["end_to_end"]
                } if len(good) >= 2 else {},
            }
        summaries.append(per_workload)
    for workload in workloads:
        first, second = (s[workload]["metrics"] for s in summaries)
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            if name not in first or name not in second:
                ok = False
                continue
            m1, m2 = first[name]["median"], second[name]["median"]
            worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            spreads = [first[name]["spread"], second[name]["spread"]]
            check = {
                "workload": workload,
                "metric": name,
                "bound": bound,
                "spread": spreads,
                "median_worsening": worse,
                "spread_ok": name == "setup_s" or max(spreads) < bound / 3,
                "median_ok": worse <= bound,
            }
            ok &= check["spread_ok"] and check["median_ok"]
            checks.append(check)
            print(f"{workload:<11} {name:<12} spreads {spreads[0]:.4f} {spreads[1]:.4f} "
                  f"worsening {worse:+.4f} bound {bound} "
                  f"{'ok' if check['spread_ok'] and check['median_ok'] else 'FAIL'}")

    doc = {
        "environment": env,
        "run_seconds": seconds,
        "runs_per_set": args.runs,
        "order": "per round all workloads, forward in even rounds and backward in odd ones",
        "sets": summaries,
        "checks": checks,
        "ok": ok,
    }
    args.output.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
