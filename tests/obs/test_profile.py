"""Tests for profiling views (self time, coverage) and the overhead gate."""

from __future__ import annotations

import pytest

from repro.experiments import sweep as sweep_mod
from repro.experiments.sweep import SweepSpec
from repro.obs import profile as profile_mod
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    counter_values,
    coverage,
    format_counters,
    format_overhead,
    format_top_spans,
    run_overhead_check,
    top_spans,
)
from repro.obs.trace import SpanRecord


def _span(name, start, duration, span_id, parent_id=None):
    return SpanRecord(name, start, duration, span_id, parent_id, thread_id=1)


# a root of 10s: 6s in two `work` children (one holding a 1s `sub`),
# leaving 4s of root self time
TREE = [
    _span("sub", 1.0, 1.0, 3, parent_id=2),
    _span("work", 0.5, 4.0, 2, parent_id=1),
    _span("work", 5.0, 2.0, 4, parent_id=1),
    _span("root", 0.0, 10.0, 1),
]


class TestTopSpans:
    def test_self_time_subtracts_direct_children(self):
        rows = {r["name"]: r for r in top_spans(TREE)}
        assert rows["root"]["self_s"] == 4.0
        assert rows["work"]["self_s"] == 5.0  # 4+2 minus the 1s sub
        assert rows["work"]["count"] == 2
        assert rows["work"]["total_s"] == 6.0
        assert rows["work"]["max_s"] == 4.0
        assert rows["sub"]["self_s"] == 1.0

    def test_share_is_fraction_of_root_wall(self):
        rows = {r["name"]: r for r in top_spans(TREE)}
        assert rows["work"]["share"] == 0.5
        assert rows["root"]["share"] == 0.4
        assert sum(r["share"] for r in rows.values()) == pytest.approx(1.0)

    def test_sorted_by_self_time_and_limited(self):
        rows = top_spans(TREE, limit=2)
        assert [r["name"] for r in rows] == ["work", "root"]

    def test_negative_self_time_clamps(self):
        # clock jitter: child reads longer than its parent
        spans = [_span("child", 0.0, 1.2, 2, parent_id=1), _span("parent", 0.0, 1.0, 1)]
        rows = {r["name"]: r for r in top_spans(spans)}
        assert rows["parent"]["self_s"] == 0.0

    def test_empty_trace(self):
        assert top_spans([]) == []
        assert coverage([]) == 0.0


class TestCoverage:
    def test_tree_coverage(self):
        assert coverage(TREE) == pytest.approx(0.6)

    def test_fully_covered(self):
        spans = [_span("child", 0.0, 5.0, 2, parent_id=1), _span("root", 0.0, 5.0, 1)]
        assert coverage(spans) == 1.0

    def test_no_children(self):
        assert coverage([_span("root", 0.0, 5.0, 1)]) == 0.0


class TestFormatting:
    def test_table_contains_rows_and_wall(self):
        text = format_top_spans(top_spans(TREE), wall_s=10.0)
        lines = text.splitlines()
        assert lines[0].split() == ["span", "count", "total_s", "self_s", "max_ms", "share"]
        assert lines[2].startswith("work")
        assert "50.0%" in lines[2]
        assert lines[-1].startswith("wall")

    def test_counters_show_only_what_moved(self):
        registry = MetricsRegistry()
        registry.counter("colored.moves").inc(2)
        registry.counter("cache.table_hits").inc()
        registry.gauge("serve.connections").set(5)
        before = counter_values(registry)
        assert before == {"cache.table_hits": 1, "colored.moves": 2}
        registry.counter("colored.moves").inc(3)
        registry.counter("colored.evaluations").inc(40)
        lines = format_counters(before, counter_values(registry)).splitlines()
        assert lines[0].split() == ["counter", "delta"]
        assert [line.split() for line in lines[2:]] == [
            ["colored.evaluations", "40"],
            ["colored.moves", "3"],
        ]
        assert format_counters(before, before) == ""

    def test_format_overhead_verdicts(self):
        base = {
            "spec": "ci-smoke", "engine": "fluid", "repeats": 3, "baseline_s": 1.0,
            "instrumented_s": 1.01, "ratio": 1.01, "overhead_pct": 1.0,
            "tolerance_pct": 2.0, "ok": True,
        }
        assert "[OK]" in format_overhead(base)
        assert "[FAIL]" in format_overhead({**base, "ok": False})


class TestOverheadCheck:
    SPEC = SweepSpec(
        topologies=("XGFT(2;4,4;1,2)",), patterns=("shift-1",), algorithms=("d-mod-k",),
        name="stub", engine="fluid",
    )

    def test_gate_logic_with_stubbed_workload(self, monkeypatch):
        # substitute a deterministic "workload" so the gate's pairing,
        # best-of, and verdict logic are tested without wall-clock noise
        from repro import obs

        times = iter([5.0] * 40)
        clock = {"now": 0.0}
        seen = []

        def fake_run_sweep(spec, **kwargs):
            seen.append(spec)
            cost = next(times)
            if not obs.active():
                cost *= 0.5  # instrumented arm twice as expensive
            clock["now"] += cost

        monkeypatch.setattr(sweep_mod, "run_sweep", fake_run_sweep)
        monkeypatch.setattr(profile_mod.time, "perf_counter", lambda: clock["now"])
        result = run_overhead_check(self.SPEC, repeats=2, tolerance=0.02)
        assert result["ok"] is False
        assert result["ratio"] == pytest.approx(2.0)
        # a failing check keeps measuring up to its 3x budget
        assert result["repeats"] == 6
        # both arms of every pair (plus the warmup pair) ran the given spec
        assert len(seen) == 2 * (6 + 1) and all(s is self.SPEC for s in seen)
        assert (result["spec"], result["engine"]) == ("stub", "fluid")

    def test_gate_passes_on_equal_arms(self, monkeypatch):
        clock = {"now": 0.0}

        def fake_run_sweep(spec, **kwargs):
            clock["now"] += 1.0

        monkeypatch.setattr(sweep_mod, "run_sweep", fake_run_sweep)
        monkeypatch.setattr(profile_mod.time, "perf_counter", lambda: clock["now"])
        result = run_overhead_check(self.SPEC, repeats=2, tolerance=0.02)
        assert result["ok"] is True
        assert result["repeats"] == 2
        assert result["overhead_pct"] == 0.0

    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            run_overhead_check(self.SPEC, repeats=0)
