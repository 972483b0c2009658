"""dyn-local and dyn-spread: open-loop churn through the dynamic driver.

Both run one :class:`repro.api.Scenario` per pass on the incremental
engine ``fluid-vec-inc``; set-up builds the scenario and its d-mod-k
all-pairs table, so a pass is stream generation plus the driver loop.

* ``dyn-local`` — overloaded (load 3.0), sub-tree-local traffic on 2048
  leaves: refill components stay small (≤126 links, no full refills),
  so fixed per-event overhead dominates.
* ``dyn-spread`` — uniform traffic on a three-level tree: components
  grow to thousands of links and certificate failures fall back to
  full refills, so the filling kernel dominates.

Expected outputs come from the ``fluid-vec`` oracle (full refill at
every event), which the incremental engine matches to ~1e-15.
"""

from __future__ import annotations

from repro.api import Scenario
from repro.workloads import DynamicResult

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

ENGINE = "fluid-vec-inc"
ORACLE = "fluid-vec"
ALGORITHM = "d-mod-k"

#: (topology, workload spec) per workload and size
SPECS = {
    "dyn-local": {
        "full": (
            "XGFT(2;32,64;1,16)",
            "poisson(load=3.0,sizes=uniform,spread=0.5,flows=12000,locality=1.0,group=32)",
        ),
        "tiny": (
            "XGFT(2;8,16;1,4)",
            "poisson(load=3.0,sizes=uniform,spread=0.5,flows=300,locality=1.0,group=8)",
        ),
    },
    "dyn-spread": {
        "full": ("XGFT(3;8,8,8;1,4,4)", "poisson(load=0.7,flows=6000)"),
        "tiny": ("XGFT(3;4,4,4;1,2,2)", "poisson(load=0.7,flows=300)"),
    },
}


def setup(workload: str, seed: int, size: str) -> Scenario:
    topology, spec = SPECS[workload][size]
    scenario = Scenario(topology, "none", ALGORITHM, workload=spec, seed=seed)
    scenario.route_table()
    return scenario


def run_pass(scenario: Scenario, engine: str = ENGINE) -> DynamicResult:
    return scenario.evaluate(engine=engine).dynamic


def summary(result: DynamicResult) -> dict:
    """The outputs compared against ``expected.json``."""
    return {
        "completed": result.num_completed,
        "events": result.stats.events,
        "fct_mean": float(result.fct.mean),
        "fct_p99": float(result.fct.p99),
        "makespan": float(result.makespan),
    }


def check(outcome: Outcome, result: DynamicResult, expected: dict | None) -> None:
    """Flow and byte conservation and slowdown ≥ 1 always; the committed
    summary when the seed has one.  A flow that did not complete (the
    fabric is pristine, so a rejected one too) fails itself; any other
    problem fails every flow of the run."""
    n = result.num_arrivals
    outcome.attempted += n
    problems = []
    if result.num_completed + result.num_self + result.num_rejected != n:
        problems.append(f"completed + self + rejected != {n} arrivals")
    if not rel_close(result.delivered_bytes, result.offered_bytes):
        problems.append(f"delivered {result.delivered_bytes} != offered {result.offered_bytes} B")
    if min(result.slowdown.mean, result.slowdown.p50) < 1.0 - 1e-9:
        problems.append(f"slowdown below 1: {result.slowdown}")
    if expected is not None:
        for key, value in summary(result).items():
            if not rel_close(value, expected[key]):
                problems.append(f"{key} {value!r} != expected {expected[key]!r}")
    incomplete = n - result.num_completed - result.num_self
    if problems:
        outcome.fail(n, "; ".join(problems))
    elif incomplete:
        outcome.fail(incomplete, f"{incomplete} of {n} flows did not complete "
                                 f"({result.num_rejected} rejected)")


def run(workload: str, seed: int, seconds: float, size: str, tracing: Tracing | None,
        expected: dict) -> Outcome:
    outcome = Outcome()
    want = expected_for(expected, workload, size, seed)
    if tracing is None:
        outcome.metrics["setup_s"] = setup_probe(workload, seed, size)
        scenario = setup(workload, seed, size)
        results, durations = timed_passes(seconds, lambda: run_pass(scenario))
        events = sum(r.stats.events for r in results)
        outcome.metrics["work_per_s"] = events / sum(durations)
        outcome.metrics["peak_rss_mb"] = self_peak_rss_mb()
    else:
        with tracing.setup():
            scenario = setup(workload, seed, size)
        untraced, untraced_s = timed_call(lambda: run_pass(scenario))
        with tracing.timed():
            traced, traced_s = timed_call(lambda: run_pass(scenario))
        results = [untraced, traced]
        outcome.layers = tracing.layers(
            untraced_s, traced_s,
            engine=traced.stats.engine, events=traced.stats.events,
        )
    for result in results:
        check(outcome, result, want)
    return outcome
