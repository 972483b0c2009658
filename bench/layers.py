"""Per-layer attribution for traced runs, measured from outside the program.

A traced run wraps each layer's public entry points in bench-side spans
(``ENTRY_POINTS``), swaps the incremental fluid engine for a
:class:`TimedEngine` that spans its public calls, and enables the
package tracer, so the spans the program already emits
(``cache.table_build``, ``fluid.fill``, ``driver.*``, ``serve.request``)
nest inside the bench's own.  :meth:`Tracing.layers` then turns the
recorded spans into the per-layer metrics, with self times from
:func:`repro.obs.profile.top_spans`.

Nothing here is installed in an untraced run: end-to-end metrics are
measured on the unmodified program.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from typing import Iterator

from repro.obs import metrics as obs_metrics
from repro.obs.profile import coverage, top_spans
from repro.obs.trace import TRACER, SpanRecord
from repro.sim.engines import ENGINES, Engine, register_engine

#: the timed engine (the dynamic workloads' backend)
TIMED_ENGINE = "fluid-vec-inc"

#: root spans of a traced run's set-up and of its timed pass
SETUP_SPAN = "bench.setup"
RUN_SPAN = "bench.run"

#: (module, attribute, span): the entry points timed per layer.  Each
#: attribute is looked up at call time by its callers, so replacing it
#: on the module or class reaches every call.
ENTRY_POINTS = (
    ("repro.core.base", "RoutingAlgorithm.build_table", "core.build_table"),
    ("repro.api", "subset_table", "core.subset"),
    ("repro.api", "resolve_pattern", "patterns.resolve"),
    ("repro.api", "phase_pairs", "patterns.phase_pairs"),
    ("repro.metrics", "link_load_summary", "contention.link_load"),
    ("repro.metrics", "max_network_contention", "contention.network"),
    ("repro.sim.network", "simulate_phase_fluid", "sim.phase_fill"),
    ("repro.sim.network", "crossbar_pattern_time", "sim.crossbar"),
    ("repro.workloads.generators", "Workload.generate", "workloads.stream"),
    ("repro.workloads.driver", "DynamicDriver.run", "workloads.driver"),
    ("repro.store.compact", "CompactRouteTable.batch_lookup", "serve.lookup"),
    ("repro.faults", "repair_pairs", "faults.repair"),
)

#: time metrics: name -> (span names, "total" = inclusive or "self")
SPAN_TIMES = {
    # route-table production: all-pairs builds, per-pattern builds and
    # the row subsets cut from cached tables
    "core.table_build_s": (("cache.table_build", "core.build_table", "core.subset"), "self"),
    "patterns.phase_s": (("patterns.resolve", "patterns.phase_pairs"), "total"),
    "contention.census_s": (("contention.link_load", "contention.network"), "total"),
    "sim.phase_fill_s": (("sim.phase_fill",), "total"),
    "sim.crossbar_s": (("sim.crossbar",), "total"),
    "sim.fill_s": (("fluid.fill",), "total"),
    "sim.next_completion_s": (("sim.next_completion",), "total"),
    "sim.add_flows_s": (("sim.add_flows",), "total"),
    "sim.advance_s": (("sim.advance",), "total"),
    "sim.rates_s": (("sim.rates",), "total"),
    "workloads.stream_s": (("workloads.stream",), "total"),
    "workloads.route_s": (("driver.table_lookup",), "total"),
    # the driver's snapshot minus the engine's rates() inside it
    "workloads.snapshot_s": (("driver.snapshot",), "self"),
    "workloads.driver_self_s": (
        ("workloads.driver", "driver.arrivals", "driver.completions"),
        "self",
    ),
    "store.build_s": (("store.build",), "total"),
    "store.encode_s": (("store.encode",), "total"),
    "store.put_s": (("store.put",), "total"),
    "serve.decode_s": (("serve.decode",), "total"),
    # handle_request without the lookup and repair it calls
    "serve.dispatch_s": (("serve.handle", "serve.request"), "self"),
    "serve.lookup_s": (("serve.lookup",), "total"),
    "serve.encode_s": (("serve.encode",), "total"),
    "faults.repair_s": (("faults.repair",), "total"),
    "experiments.sweep_self_s": (("sweep.run",), "self"),
}

#: count metrics: name -> span names whose calls are counted
SPAN_COUNTS = {
    "core.tables_built": ("core.build_table",),
    "sim.crossbar_calls": ("sim.crossbar",),
    "sim.engine_calls": ("sim.next_completion", "sim.add_flows", "sim.advance", "sim.rates"),
}

#: engine telemetry counters reported as they are
TELEMETRY = (
    "recomputes",
    "partial_refills",
    "full_refills",
    "cert_fallbacks",
    "links_touched",
    "component_size_hwm",
    "active_flows_hwm",
    "fill_rounds",
)

#: metrics the serve workload fills in itself (0 elsewhere)
SERVE_ONLY = (
    "store.entry_bytes",
    "serve.transport_s",
    "serve.batch_p50_ms",
    "serve.batch_p99_ms",
    "serve.whatif_p50_ms",
)


def _spanned(fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with TRACER.span(name):
            return fn(*args, **kwargs)

    return wrapper


class TimedEngine:
    """A fluid engine whose public calls each run inside a span.

    ``DriverStats`` times the driver's loop phases but not the
    ``next_completion_time`` call that opens every event; these spans
    do.  Everything else is delegated to the wrapped engine.
    """

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def next_completion_time(self):
        with TRACER.span("sim.next_completion"):
            return self._inner.next_completion_time()

    def add_flows(self, *args, **kwargs):
        with TRACER.span("sim.add_flows"):
            return self._inner.add_flows(*args, **kwargs)

    def advance_to(self, t):
        with TRACER.span("sim.advance"):
            return self._inner.advance_to(t)

    def advance_to_next_completion(self):
        with TRACER.span("sim.advance"):
            return self._inner.advance_to_next_completion()

    def rates(self):
        with TRACER.span("sim.rates"):
            return self._inner.rates()


def _cache_counts() -> tuple[float, float]:
    return (
        obs_metrics.counter("cache.table_hits").value,
        obs_metrics.counter("cache.table_builds").value,
    )


def subtree(spans: tuple[SpanRecord, ...], root: SpanRecord) -> list[SpanRecord]:
    """``root`` and every span nested under it."""
    keep = {root.span_id}
    out = []
    # spans are recorded on exit, so a parent follows all its children;
    # walking backwards meets every parent before its children
    for s in reversed(spans):
        if s.span_id in keep or s.parent_id in keep:
            keep.add(s.span_id)
            out.append(s)
    return out[::-1]


class Tracing:
    """The traced-run state: instrumented phases and their tallies."""

    def __init__(self) -> None:
        self.cache_hits = 0.0
        self.cache_builds = 0.0

    @contextmanager
    def setup(self) -> Iterator[None]:
        """The traced set-up: its spans count towards the layers."""
        with self._phase(), TRACER.span(SETUP_SPAN):
            yield

    @contextmanager
    def timed(self) -> Iterator[None]:
        """The traced pass: the timed region ``obs.coverage`` is taken over."""
        with self._phase(), TRACER.span(RUN_SPAN):
            yield

    @contextmanager
    def _phase(self) -> Iterator[None]:
        """Run a block with every wrapper installed and the tracer on."""
        restore = []
        for module_name, path, span_name in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr]
            setattr(owner, attr, _spanned(original, span_name))
            restore.append((owner, attr, original))
        engine = ENGINES.get(TIMED_ENGINE)
        register_engine(
            Engine(
                name=engine.name,
                kind=engine.kind,
                factory=lambda num_links, capacity: TimedEngine(
                    engine.factory(num_links, capacity)
                ),
                description=engine.description,
            ),
            override=True,
        )
        hits0, builds0 = _cache_counts()
        # a whole pass is one long span by design; no slow-span warnings
        slow_span_s, TRACER.slow_span_s = TRACER.slow_span_s, None
        TRACER.enable()
        try:
            yield
        finally:
            TRACER.disable()
            TRACER.slow_span_s = slow_span_s
            hits1, builds1 = _cache_counts()
            self.cache_hits += hits1 - hits0
            self.cache_builds += builds1 - builds0
            register_engine(engine, override=True)
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def layers(
        self,
        untraced_s: float,
        traced_s: float,
        engine: dict | None = None,
        events: int = 0,
    ) -> dict[str, float]:
        """Every per-layer metric from the spans recorded so far.

        Times and counts cover all traced phases (set-up included, so a
        build done in set-up is still attributed to its layer);
        ``obs.coverage`` covers the last timed pass.  ``engine`` is a
        dynamic run's engine telemetry.
        """
        spans = TRACER.spans()
        rows = {row["name"]: row for row in top_spans(spans)}

        def summed(names: tuple[str, ...], key: str) -> float:
            return sum(rows[n][key] for n in names if n in rows)

        out: dict[str, float] = {}
        for name, (span_names, kind) in SPAN_TIMES.items():
            out[name] = summed(span_names, "total_s" if kind == "total" else "self_s")
        for name, span_names in SPAN_COUNTS.items():
            out[name] = int(summed(span_names, "count"))
        out["store.open_ms"] = summed(("store.open",), "total_s") * 1e3
        for name in SERVE_ONLY:
            out.setdefault(name, 0.0)
        lookups = self.cache_hits + self.cache_builds
        out["core.table_hit_ratio"] = self.cache_hits / lookups if lookups else 0.0
        engine = engine or {}
        for key in TELEMETRY:
            out[f"sim.{key}"] = int(engine.get(key, 0))
        touched = engine.get("links_touched", 0)
        out["sim.refill_work_reduction"] = engine["links_active"] / touched if touched else 0.0
        out["workloads.events"] = int(events)
        roots = [s for s in spans if s.name == RUN_SPAN and s.parent_id is None]
        out["obs.coverage"] = coverage(subtree(spans, roots[-1])) if roots else 0.0
        out["obs.trace_overhead"] = traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0
        return out
