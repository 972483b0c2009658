"""paper-grid: the paper's Fig. 2/5 slowdown grid through the sweep layer.

16 progressively slimmed ``XGFT(2;16,16;1,w2)`` × {wrf, cg} × the six
schemes, randomized schemes over routing seeds ``5S … 5S+4`` for bench
seed ``S`` (576 cells).  Cells run serially through
:func:`repro.experiments.sweep.execute_run`, grouped by
``(topology, algorithm, seed)`` with one route-table cache and one
crossbar memo per group — exactly what ``run_sweep(jobs=1)`` does per
memo group.  ``run_sweep`` itself always plans seeds ``0 … seeds-1``,
so it cannot take a seed offset; calling its per-cell entry point over
this plan is how the bench seed reaches the routing seeds.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.api import RouteTableCache
from repro.core.factory import SINGLE_SEED_ALGORITHMS
from repro.experiments.sweep import RunSpec, execute_run
from repro.obs.trace import TRACER
from repro.patterns.registry import resolve_pattern
from repro.topology import slimmed_two_level

from .harness import (
    Outcome,
    expected_for,
    rel_close,
    self_peak_rss_mb,
    setup_probe,
    timed_call,
    timed_passes,
)
from .layers import Tracing

NAME = "paper-grid"
ALGORITHMS = ("s-mod-k", "d-mod-k", "colored", "r-nca-u", "r-nca-d", "random")
APPS = ("wrf", "cg")
METRICS = ("max_link_load", "max_network_contention", "slowdown")
ENGINE = "fluid-vec"

#: grid shape per size: slimming values and routing seeds per randomized scheme
SIZES = {
    "full": {"w2": tuple(range(16, 0, -1)), "seeds": 5},
    "tiny": {"w2": (16, 1), "seeds": 1},
}


def setup(seed: int, size: str) -> list[list[RunSpec]]:
    """Plan the grid as memo groups (one route table, both applications).

    Like the sweep planner, this resolves every topology and pattern
    once to validate the grid before any cell runs.
    """
    cfg = SIZES[size]
    base = cfg["seeds"] * seed
    groups = []
    for w2 in cfg["w2"]:
        topo = slimmed_two_level(16, 16, w2)
        for app in APPS:
            resolve_pattern(app, topo.num_leaves)
        for algorithm in ALGORITHMS:
            if algorithm in SINGLE_SEED_ALGORITHMS:
                seeds = range(base, base + 1)
            else:
                seeds = range(base, base + cfg["seeds"])
            for s in seeds:
                groups.append([RunSpec(topo.spec(), app, algorithm, s) for app in APPS])
    return groups


def run_pass(groups: list[list[RunSpec]], traced: bool = False) -> list[dict]:
    """One serial pass over every cell; returns the sweep records."""
    records = []
    for group in groups:
        cache = RouteTableCache()
        crossbar_memo: dict = {}
        for run in group:
            with TRACER.span("sweep.run", run_id=run.run_id) if traced else nullcontext():
                records.append(
                    execute_run(run, METRICS, ENGINE, cache, _crossbar_memo=crossbar_memo)
                )
    return records


def cell_values(record: dict) -> list:
    m = record["metrics"]
    return [m["max_link_load"], m["max_network_contention"], m["slowdown"]]


def check(outcome: Outcome, groups: list[list[RunSpec]], records: list[dict],
          expected: dict | None) -> None:
    """Census integers exactly and slowdown to 1e-9 against the
    committed values; without them, the invariants every cell obeys."""
    runs = [run for group in groups for run in group]
    outcome.attempted += len(records)
    for run, record in zip(runs, records):
        load, contention, slowdown = cell_values(record)
        if not (isinstance(load, int) and isinstance(contention, int)):
            outcome.fail(1, f"{run.run_id}: census values are not integers")
        elif load < 1 or contention < 1 or slowdown < 1.0 - 1e-9:
            outcome.fail(1, f"{run.run_id}: load {load}, contention {contention}, "
                            f"slowdown {slowdown} violate the floors")
        elif expected is not None:
            want = expected.get(run.run_id)
            if want is None:
                outcome.fail(1, f"{run.run_id}: no expected value")
            elif [load, contention] != want[:2] or not rel_close(slowdown, want[2]):
                outcome.fail(1, f"{run.run_id}: got {[load, contention, slowdown]}, "
                                f"expected {want}")


def run(seed: int, seconds: float, size: str, tracing: Tracing | None,
        expected: dict) -> Outcome:
    outcome = Outcome()
    want = expected_for(expected, NAME, size, seed)
    if tracing is None:
        outcome.metrics["setup_s"] = setup_probe(NAME, seed, size)
        groups = setup(seed, size)
        passes, durations = timed_passes(seconds, lambda: run_pass(groups))
        cells = sum(len(records) for records in passes)
        outcome.metrics["work_per_s"] = cells / sum(durations)
        outcome.metrics["peak_rss_mb"] = self_peak_rss_mb()
    else:
        with tracing.setup():
            groups = setup(seed, size)
        untraced, untraced_s = timed_call(lambda: run_pass(groups))
        with tracing.timed():
            traced, traced_s = timed_call(lambda: run_pass(groups, traced=True))
        passes = [untraced, traced]
        outcome.layers = tracing.layers(untraced_s, traced_s)
    for records in passes:
        check(outcome, groups, records, want)
    return outcome
