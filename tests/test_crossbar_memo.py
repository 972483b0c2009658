"""The process-wide memo of the slowdown denominator (:mod:`repro.metrics`).

A spec-named pattern's Full-Crossbar reference is computed once per
(pattern spec, machine size, engine, config) per process; re-registering
the pattern or the engine name must miss, live patterns stay in the
caller's memo, and the memo never grows past its bound.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest

from repro import metrics as repro_metrics
from repro import obs
from repro.api import Scenario, compare
from repro.experiments.sweep import SweepSpec, run_sweep
from repro.obs import REGISTRY
from repro.patterns import Pattern
from repro.patterns.registry import PATTERNS, register_pattern
from repro.sim.engines import ENGINES, Engine, register_engine
from repro.sim.fluid_vec import VecFluidSimulator

TOPO = "XGFT(2;4,4;1,4)"


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    """Each test starts from an empty process memo and counts its computes."""
    monkeypatch.setattr(repro_metrics, "_CROSSBAR_REFS", OrderedDict())
    calls = []
    real = repro_metrics.crossbar_reference

    def counting(pattern, num_leaves, config, engine):
        calls.append((pattern.name, num_leaves))
        return real(pattern, num_leaves, config, engine)

    monkeypatch.setattr(repro_metrics, "crossbar_reference", counting)
    return calls


def _counts():
    return (
        REGISTRY.counter("metrics.crossbar_computes").value,
        REGISTRY.counter("metrics.crossbar_hits").value,
    )


def _slowdown(pattern, engine="fluid-vec"):
    return Scenario(TOPO, pattern, "d-mod-k").evaluate(("slowdown",), engine=engine)["slowdown"]


def test_sweep_computes_one_reference_per_distinct_key(fresh_memo):
    spec = SweepSpec(
        topologies=(TOPO, "XGFT(2;4,4;1,2)", "XGFT(2;2,4;1,2)"),
        patterns=("shift-1", "bit-reversal"),
        algorithms=("d-mod-k", "s-mod-k"),
        metrics=("slowdown",),
    )
    before = _counts()
    result = run_sweep(spec)
    computes, hits = (a - b for a, b in zip(_counts(), before))
    assert len(result.runs) == 12
    # 2 patterns x 2 machine sizes (16 and 8 leaves), one engine and config
    assert sorted(set(fresh_memo)) == sorted(fresh_memo)
    assert len(fresh_memo) == 4
    assert (computes, hits) == (4, 8)
    # a second sweep in the same process computes nothing
    run_sweep(spec)
    assert len(fresh_memo) == 4


def _ring(n):
    return Pattern.single_phase([(i, (i + 1) % n) for i in range(n)], name="memo-ring")


def test_reregistered_pattern_misses(fresh_memo):
    register_pattern("memo-ring")(_ring)
    try:
        first = _slowdown("memo-ring")
        assert _slowdown("memo-ring") == first
        assert len(fresh_memo) == 1
        # the same pattern under a new builder object
        register_pattern("memo-ring", override=True)(lambda n: _ring(n))
        _slowdown("memo-ring")
        assert len(fresh_memo) == 2  # a new builder object: miss
    finally:
        PATTERNS.unregister("memo-ring")


def test_reregistered_engine_misses(fresh_memo):
    def make():
        return Engine(name="fluid-memo", kind="fluid", factory=VecFluidSimulator)

    register_engine(make())
    try:
        first = _slowdown("shift-1", engine="fluid-memo")
        _slowdown("shift-1", engine="fluid-memo")
        assert len(fresh_memo) == 1
        register_engine(make(), override=True)  # equal fields, new registration
        assert _slowdown("shift-1", engine="fluid-memo") == first
        assert len(fresh_memo) == 2
    finally:
        ENGINES.unregister("fluid-memo")


def test_live_pattern_stays_out_of_the_process_memo(fresh_memo):
    live = Pattern.single_phase([(i, (i + 3) % 16) for i in range(16)], name="shift-3")
    scenario = Scenario(TOPO, live, "d-mod-k")
    scenario.evaluate(("slowdown",))
    scenario.evaluate(("slowdown",))
    assert len(repro_metrics._CROSSBAR_REFS) == 0
    assert len(scenario._crossbar_memo) == 1
    assert len(fresh_memo) == 1
    # another scenario over the same object: its own memo, its own reference
    Scenario(TOPO, live, "s-mod-k").evaluate(("slowdown",))
    assert len(fresh_memo) == 2
    assert len(repro_metrics._CROSSBAR_REFS) == 0


def test_compare_shares_one_live_reference(fresh_memo):
    """The scenarios of one ``compare`` call over a live pattern divide
    by one crossbar reference, and get the slowdowns they get alone."""
    live = Pattern.single_phase([(i, (i + 3) % 16) for i in range(16)], name="shift-3")
    scenarios = [Scenario(TOPO, live, name) for name in ("d-mod-k", "s-mod-k", "random")]
    shared = [r["slowdown"] for r in compare(scenarios, ("slowdown",)).results]
    assert len(fresh_memo) == 1
    assert shared == [s.with_().evaluate(("slowdown",))["slowdown"] for s in scenarios]


def test_size_bound_evicts_least_recently_used(fresh_memo, monkeypatch):
    monkeypatch.setattr(repro_metrics, "CROSSBAR_MEMO_SIZE", 3)
    for d in (1, 2, 3):
        _slowdown(f"shift-{d}")
    _slowdown("shift-1")  # a hit refreshes shift-1
    _slowdown("shift-4")  # evicts shift-2, the least recently used
    assert len(repro_metrics._CROSSBAR_REFS) == 3
    assert len(fresh_memo) == 4
    _slowdown("shift-1")
    assert len(fresh_memo) == 4
    _slowdown("shift-2")
    assert len(fresh_memo) == 5
    assert len(repro_metrics._CROSSBAR_REFS) == 3


def test_nothing_recorded_with_obs_off(fresh_memo):
    before = _counts()
    with obs.deactivated():
        _slowdown("shift-1")
        _slowdown("shift-1")
    assert _counts() == before
    assert len(fresh_memo) == 1  # the memo itself still works
    _slowdown("shift-1")
    assert _counts() == (before[0], before[1] + 1)
