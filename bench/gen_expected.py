"""Regenerate ``bench/expected.json``, the outputs checked runs must reproduce.

    python3 bench/gen_expected.py [--workloads paper-grid dyn-local ...]

* ``paper-grid`` — per-cell ``[max_link_load, max_network_contention,
  slowdown]`` on the bench's engine (``fluid-vec``); one cell per
  scheme and application is re-run on the scalar ``fluid`` engine and
  must agree (census exactly, slowdown to 1e-9).
* ``dyn-local`` / ``dyn-spread`` — ``completed``, ``events``,
  ``fct_mean``, ``fct_p99`` and ``makespan`` from the ``fluid-vec``
  oracle, which refills every flow at every event.
* ``serve`` — how many pairs the pool's what-if requests see repaired
  and disconnected, from the reference repair.

Seeds 0–4 at full size and seed 0 at the self-test's tiny size.
Entries of workloads not named are kept.  The full set takes about a
quarter of an hour on a 2-core x86 box (the dynamic oracle dominates).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = {"full": range(5), "tiny": range(1)}


def paper_grid(seed: int, size: str) -> dict:
    from bench import grid
    from bench.harness import rel_close
    from repro.api import RouteTableCache
    from repro.experiments.sweep import execute_run

    groups = grid.setup(seed, size)
    records = grid.run_pass(groups)
    runs = [run for group in groups for run in group]
    cells = {run.run_id: grid.cell_values(r) for run, r in zip(runs, records)}
    # the first group of every scheme, both applications, on the scalar engine
    checked = set()
    for group in groups:
        algorithm = group[0].algorithm
        if algorithm in checked:
            continue
        checked.add(algorithm)
        cache = RouteTableCache()
        for run in group:
            record = execute_run(run, grid.METRICS, "fluid", cache)
            load, contention, slowdown = grid.cell_values(record)
            want = cells[run.run_id]
            if [load, contention] != want[:2] or not rel_close(slowdown, want[2]):
                raise SystemExit(f"{run.run_id}: scalar engine {grid.cell_values(record)} "
                                 f"!= fluid-vec {want}")
    return cells


def dynamic_oracle(workload: str, seed: int, size: str) -> dict:
    from bench import dynamic

    scenario = dynamic.setup(workload, seed, size)
    return dynamic.summary(dynamic.run_pass(scenario, engine=dynamic.ORACLE))


def serve(seed: int, size: str) -> dict:
    from bench import serving

    full = serving.build_table(serving.SIZES[size]["topology"])
    return serving.whatif_outcome(full, serving.make_pool(seed, size))


def generate(workload: str, seed: int, size: str) -> dict:
    if workload == "paper-grid":
        return paper_grid(seed, size)
    if workload == "serve":
        return serve(seed, size)
    return dynamic_oracle(workload, seed, size)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workloads", nargs="+", default=["paper-grid", "dyn-local", "dyn-spread", "serve"]
    )
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench.harness import EXPECTED_PATH

    expected = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.is_file() else {}
    for workload in args.workloads:
        entry = {}
        for size, seeds in RUNS.items():
            entry[size] = {}
            for seed in seeds:
                entry[size][str(seed)] = generate(workload, seed, size)
                print(f"{workload} {size} seed {seed}: done", flush=True)
        expected[workload] = entry
    text = json.dumps(expected, indent=1, sort_keys=True)
    # one line per grid cell: collapse the innermost (scalar-only) lists
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m[1].split()) + "]", text)
    EXPECTED_PATH.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
