"""The process-wide memo of the slowdown denominator (:mod:`repro.metrics`).

The Full-Crossbar reference is keyed on the traffic itself (a digest
of every phase's columns, in order, and the rank count) with the
machine size, the registered engine and the config.  Equal traffic is
computed once, whether it is named by spec or passed live and however
many objects carry it; re-registering a pattern name hits or misses as
its traffic does; re-registering an engine misses; the memo never
grows past its bound, and a lossy fault scenario does not use it.
"""

from __future__ import annotations

import gc
import weakref
from collections import OrderedDict

import pytest

from repro import metrics as repro_metrics
from repro import obs
from repro.api import Scenario, compare
from repro.experiments.sweep import SweepSpec, run_sweep
from repro.obs import REGISTRY
from repro.patterns import Pattern, Phase
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


def _slowdown(pattern, engine="fluid-vec", topology=TOPO):
    scenario = Scenario(topology, pattern, "d-mod-k")
    return scenario.evaluate(("slowdown",), engine=engine)["slowdown"]


def _shift3(name="shift-3", size=1):
    """A live copy of the registered ``shift-3`` on 16 leaves."""
    return Pattern.single_phase([(i, (i + 3) % 16) for i in range(16)], size=size, name=name)


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


def test_equal_live_patterns_share_one_reference(fresh_memo):
    """Distinct objects with equal traffic, through ``Scenario.evaluate``
    and ``compare``, and the spec-named pattern they equal: one compute."""
    a, b = _shift3(), _shift3(name="another name")
    assert a is not b
    before = _counts()
    alone = _slowdown(a)
    results = compare(
        [Scenario(TOPO, b, name) for name in ("d-mod-k", "s-mod-k", "random")], ("slowdown",)
    ).results
    assert _slowdown("shift-3") == alone
    assert len(fresh_memo) == 1
    assert tuple(x - y for x, y in zip(_counts(), before)) == (1, 4)
    assert results[0]["slowdown"] == alone
    assert [r["slowdown"] for r in results] == [
        s.with_().evaluate(("slowdown",))["slowdown"] for s in (r.scenario for r in results)
    ]
    assert len(fresh_memo) == 1


def test_other_traffic_misses(fresh_memo):
    base = _shift3()
    pairs = base.pairs()
    _slowdown(base)
    _slowdown(_shift3(size=2))  # other sizes
    assert len(fresh_memo) == 2
    # the same flows split into two phases: phase boundaries are traffic
    split = Pattern(
        (Phase.from_pairs(pairs[:8]), Phase.from_pairs(pairs[8:])), name="shift-3", num_ranks=16
    )
    _slowdown(split)
    assert len(fresh_memo) == 3
    # the rank count is part of the key
    ring = Pattern.single_phase([(i, (i + 1) % 8) for i in range(8)], name="ring")
    _slowdown(ring)
    _slowdown(Pattern(ring.phases, name="ring", num_ranks=16))
    assert len(fresh_memo) == 5
    # the same traffic on a machine of another size
    _slowdown(base, topology="XGFT(2;8,4;1,2)")
    assert len(fresh_memo) == 6
    _slowdown(split)
    assert len(fresh_memo) == 6
    # one phase whose columns, laid end to end, read 0 1 2 3 6 4 7 5 8
    # like those of two phases: the flow counts keep them apart
    one = Pattern((Phase([0, 1, 2], [3, 6, 4], [7, 5, 8]),), name="x", num_ranks=16)
    two = Pattern((Phase([0], [1], [2]), Phase([3, 6], [4, 7], [5, 8])), name="x", num_ranks=16)
    _slowdown(one)
    _slowdown(two)
    assert len(fresh_memo) == 8


def test_memo_does_not_keep_a_live_pattern(fresh_memo):
    live = _shift3()
    ref = weakref.ref(live)
    _slowdown(live)
    assert len(repro_metrics._CROSSBAR_REFS) == 1
    del live
    gc.collect()
    assert ref() is None


def _ring(n, size=1):
    return Pattern.single_phase([(i, (i + 1) % n) for i in range(n)], size=size, name="memo-ring")


def test_reregistered_pattern_hits_or_misses_with_its_traffic(fresh_memo):
    register_pattern("memo-ring")(_ring)
    try:
        first = _slowdown("memo-ring")
        assert _slowdown("memo-ring") == first
        assert len(fresh_memo) == 1
        # a new builder object that yields the same traffic: a hit
        register_pattern("memo-ring", override=True)(lambda n: _ring(n))
        assert _slowdown("memo-ring") == first
        assert len(fresh_memo) == 1
        # a new builder that yields other traffic: a miss
        register_pattern("memo-ring", override=True)(lambda n: _ring(n, size=5))
        _slowdown("memo-ring")
        assert len(fresh_memo) == 2
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


def test_lossy_fault_scenarios_bypass_the_memo(fresh_memo):
    """A scenario that loses flows divides by its survivors' crossbar
    time, computed apart: it neither reads nor fills the memo."""
    lossy = Scenario("XGFT(2;4,4;1,2)", "all-pairs", "d-mod-k", faults="links:rate=0.4,seed=1")
    before = _counts()
    result = lossy.evaluate(("slowdown", "disconnected_fraction"))
    assert result["disconnected_fraction"] > 0.5
    assert result["slowdown"] >= 1.0
    assert fresh_memo == [] and len(repro_metrics._CROSSBAR_REFS) == 0
    assert _counts() == before
    # the same traffic on the pristine fabric does use it
    _slowdown("all-pairs", topology="XGFT(2;4,4;1,2)")
    assert len(fresh_memo) == 1


def test_nothing_recorded_with_obs_off(fresh_memo):
    before = _counts()
    with obs.deactivated():
        _slowdown("shift-1")
        _slowdown("shift-1")
    assert _counts() == before
    assert len(fresh_memo) == 1  # the memo itself still works
    _slowdown("shift-1")
    assert _counts() == (before[0], before[1] + 1)
