"""Declarative experiment sweeps: plan, execute, memoize, serialize.

The paper's evaluation is a grid of {topology x pattern x algorithm x
seed} runs.  This module turns such a grid into a first-class object:

* :class:`SweepSpec` — the declarative grid (JSON round-trippable);
* :func:`plan_runs` — the cartesian product, with seed collapsing for
  deterministic algorithms;
* :func:`run_sweep` — execution, serial or ``multiprocessing``-parallel.

Each grid cell is a :class:`repro.api.Scenario`: the sweep engine only
plans, schedules and serializes — routing, degradation and measurement
live behind the facade (:func:`repro.api.evaluate_scenario`), and every
axis resolves through the unified registries (:mod:`repro.registry`),
so new algorithms, patterns, topologies and metrics join a sweep by
*registration*, not by editing this module.

Per-``(topology, algorithm, seed)`` route tables are memoized across
patterns and fault scenarios: an *oblivious* algorithm's all-pairs
table is built once and every pattern's per-phase tables are row
subsets of it — the operational payoff of obliviousness (cf. Räcke &
Schmid, *Compact Oblivious Routing*: one table, any pattern).

:func:`write_artifact` / :func:`load_artifact` give a deterministic,
schema-versioned JSON artifact (``docs/sweep_schema.md``) that CI jobs
cache, diff and regression-gate via
:func:`repro.experiments.report.sweep_compare`.  All shipped metrics
are *lower-is-better* (loads, contention, slowdown, simulated time),
which is what the regression comparison assumes.
"""

from __future__ import annotations

import json
import multiprocessing
import platform
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Sequence

import numpy as np

from ..api import (
    RouteTableCache,
    Scenario,
    evaluate_scenario,
    format_run_id,
    subset_table,
)
from ..core.factory import SINGLE_SEED_ALGORITHMS
from ..faults import parse_fault_spec
from ..metrics import DEFAULT_METRICS, KNOWN_METRICS, METRICS, RESILIENCE_METRICS
from ..obs import active as _obs_active
from ..obs.trace import TRACER, aggregate_spans, merge_span_aggregates
from ..patterns.registry import resolve_pattern
from ..registry import parse_spec
from ..sim.engines import DEFAULT_ENGINE, resolve_engine
from ..topology.registry import resolve_topology
from ..workloads import DYNAMIC_METRICS, WORKLOADS, resolve_workload

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_METRICS",
    "KNOWN_METRICS",
    "RESILIENCE_METRICS",
    "SweepSpec",
    "RunSpec",
    "SweepResult",
    "RouteTableCache",
    "format_run_id",
    "record_id",
    "plan_runs",
    "run_sweep",
    "execute_run",
    "subset_table",
    "write_artifact",
    "load_artifact",
    "fault_grid_spec",
    "dynamic_grid_spec",
    "DYNAMIC_METRICS",
]

#: version stamp of the JSON artifact layout (docs/sweep_schema.md);
#: v2 added the ``faults`` axis and the resilience metrics, v3 the
#: ``workloads`` axis (dynamic open-loop cells with FCT metrics).  The
#: optional ``obs`` section (span aggregates of traced sweeps) is
#: additive and only present when tracing was on, so it needs no bump.
SCHEMA_VERSION = 3

# reusable do-nothing context manager for untraced runs
_NULL_CM = nullcontext()


# ----------------------------------------------------------------------
# Grid specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep grid.

    Every axis entry is a registry spec string: ``algorithms`` are
    algorithm specs, optionally parameterized (``"r-nca-d(map_kind=mod)"``
    passes ``map_kind="mod"`` to the builder — the ablation grids rely
    on this); ``topologies`` are raw XGFT specs or registered family
    specs; ``patterns`` are registered pattern specs.  ``seeds`` is the
    number of seeds per *randomized* algorithm; deterministic and
    single-series schemes (see
    :data:`repro.core.factory.SINGLE_SEED_ALGORITHMS`) are planned with
    seed 0 only.  ``faults`` is the degraded-topology axis: fault spec
    strings per :func:`repro.faults.parse_fault_spec` (``"none"`` keeps
    the topology pristine).  ``metrics`` may name any registered metric
    (:data:`repro.metrics.METRICS`), including third-party ones.

    ``workloads`` (schema v3) is the dynamic open-loop axis: registered
    workload specs (:data:`repro.workloads.WORKLOADS`, e.g.
    ``"poisson(load=0.8)"``).  ``"none"`` plans the classic phase cells
    over ``patterns``; every other entry plans one *dynamic* cell per
    (topology, algorithm, seed, faults) combination — its ``pattern``
    is the placeholder ``none``, it records the fixed FCT/slowdown
    metric set (:data:`repro.workloads.DYNAMIC_METRICS`) instead of
    ``metrics``, and its seed axis only collapses when nothing is
    seeded — trace replay under a deterministic scheme on a pristine
    fabric — since the seed otherwise drives the arrival stream even
    for deterministic schemes.  A dynamic-only sweep may leave
    ``patterns`` empty; patterns combined with an all-dynamic
    workloads axis are rejected (they would silently never run).
    """

    topologies: tuple[str, ...]
    patterns: tuple[str, ...]
    algorithms: tuple[str, ...]
    seeds: int = 1
    metrics: tuple[str, ...] = DEFAULT_METRICS
    engine: str = DEFAULT_ENGINE
    name: str = ""
    faults: tuple[str, ...] = ("none",)
    workloads: tuple[str, ...] = ("none",)

    def __post_init__(self):
        if not self.topologies or not self.algorithms:
            raise ValueError("a sweep needs at least one topology and algorithm")
        if not self.workloads:
            raise ValueError("the workloads axis needs at least one entry ('none')")
        if not self.patterns and any(w == "none" for w in self.workloads):
            raise ValueError(
                "a sweep needs at least one pattern (or an all-dynamic workloads axis)"
            )
        if not self.faults:
            raise ValueError("the faults axis needs at least one entry ('none')")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        resolve_engine(self.engine)  # fail fast on unknown engine names
        unknown = set(self.metrics) - set(METRICS.names())
        if unknown:
            raise ValueError(
                f"unknown metrics {sorted(unknown)}; known: {', '.join(METRICS.names())}"
            )
        for spec in self.topologies:
            resolve_topology(spec)  # fail fast on malformed topology specs
        for spec in self.algorithms:
            parse_spec(spec)
        for spec in self.faults:
            parse_fault_spec(spec)
        canonical = []
        n0 = None
        for spec in self.workloads:
            if spec != "none":
                name, _ = parse_spec(spec)
                WORKLOADS.get(name)  # fail fast on unknown workload names
                # normalize to the *resolved* identity (sorted params,
                # defaults spelled out) so plan ids, record ids and the
                # baseline gate agree regardless of input spelling; the
                # first topology stands in for num_leaves (the spec is
                # machine-independent)
                if n0 is None:
                    n0 = resolve_topology(self.topologies[0]).num_leaves
                spec = resolve_workload(spec, n0).spec
            canonical.append(spec)
        object.__setattr__(self, "workloads", tuple(canonical))
        if self.patterns and all(w != "none" for w in self.workloads):
            # phase cells are only planned under the "none" workload, so
            # these patterns would silently never run — and a baseline
            # gate over the artifact would stop covering them
            raise ValueError(
                "patterns were given but the workloads axis has no 'none' "
                "entry, so no phase cells would be planned; add 'none' to "
                "workloads or drop the patterns"
            )

    def to_dict(self) -> dict:
        return {
            "topologies": list(self.topologies),
            "patterns": list(self.patterns),
            "algorithms": list(self.algorithms),
            "seeds": self.seeds,
            "metrics": list(self.metrics),
            "engine": self.engine,
            "name": self.name,
            "faults": list(self.faults),
            "workloads": list(self.workloads),
        }

    @staticmethod
    def from_dict(d: dict) -> "SweepSpec":
        return SweepSpec(
            topologies=tuple(d["topologies"]),
            patterns=tuple(d.get("patterns", ())),
            algorithms=tuple(d["algorithms"]),
            seeds=int(d.get("seeds", 1)),
            metrics=tuple(d.get("metrics", DEFAULT_METRICS)),
            engine=d.get("engine", DEFAULT_ENGINE),
            name=d.get("name", ""),
            faults=tuple(d.get("faults", ("none",))),
            workloads=tuple(d.get("workloads", ("none",))),
        )


def record_id(record: dict) -> str:
    """:func:`repro.api.format_run_id` applied to an artifact run record."""
    return format_run_id(
        record["topology"],
        record["pattern"],
        record["algorithm"],
        record["seed"],
        record.get("faults", "none"),
        record.get("workload", "none"),
    )


@dataclass(frozen=True)
class RunSpec:
    """One cell of the grid: a single routed-and-measured scenario."""

    topology: str
    pattern: str
    algorithm: str
    seed: int
    faults: str = "none"
    workload: str = "none"

    @property
    def run_id(self) -> str:
        return format_run_id(
            self.topology, self.pattern, self.algorithm, self.seed,
            self.faults, self.workload,
        )

    @property
    def memo_key(self) -> tuple[str, str, int]:
        """Route tables are shared across patterns, fault scenarios and
        workloads (repair filters the *pristine* table; dynamic cells
        subset the same all-pairs rows), never across these."""
        return (self.topology, self.algorithm, self.seed)

    def scenario(self) -> Scenario:
        """This grid cell as a :class:`repro.api.Scenario`."""
        return Scenario(
            self.topology, self.pattern, self.algorithm, faults=self.faults,
            seed=self.seed, workload=self.workload,
        )


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def plan_runs(spec: SweepSpec, run_filter: str | None = None) -> tuple[RunSpec, ...]:
    """The grid's cartesian product, memo-key-contiguous.

    Runs sharing a ``(topology, algorithm, seed)`` route table are
    consecutive, so parallel chunking by memo key keeps each table build
    inside one worker.  Deterministic/single-series algorithms collapse
    the seed axis to ``{0}`` on the pristine topology; under a fault
    scenario the seed still varies the *repair* draw, and under a
    *seeded* dynamic workload it seeds the arrival stream, so the full
    seed range is planned in both cases even for deterministic schemes.
    Seed-insensitive workloads (trace replay — ``Workload.seeded`` is
    False) collapse like patterns do: re-simulating an identical stream
    under a deterministic scheme on a pristine fabric is an inert seed.
    Dynamic cells (``workload != "none"``) are planned once per
    (topology, algorithm, seed, faults) with the placeholder pattern
    ``"none"`` — an open-loop workload has no phase-pattern axis.
    ``run_filter`` is an ``fnmatch`` pattern applied to ``run_id``
    (substring match when it has no wildcards).
    """
    workload_seeded: dict[str, bool] = {}
    for topo_spec in spec.topologies:
        topo = resolve_topology(topo_spec)
        for pattern in spec.patterns:
            resolve_pattern(pattern, topo.num_leaves)  # validate fit
        for workload in spec.workloads:
            if workload != "none":
                # validate fit; seed sensitivity is a property of the
                # workload spec alone, identical across topologies
                workload_seeded[workload] = resolve_workload(
                    workload, topo.num_leaves
                ).seeded
    runs: list[RunSpec] = []
    fault_kinds = {faults: parse_fault_spec(faults).kind for faults in spec.faults}
    for topo_spec in spec.topologies:
        for algorithm in spec.algorithms:
            name, _ = parse_spec(algorithm)
            single = name in SINGLE_SEED_ALGORITHMS
            for seed in range(spec.seeds):
                for faults in spec.faults:
                    inert = single and seed > 0 and fault_kinds[faults] == "none"
                    for workload in spec.workloads:
                        if workload != "none":
                            if inert and not workload_seeded[workload]:
                                continue  # identical stream, scheme and fabric
                            runs.append(
                                RunSpec(topo_spec, "none", algorithm, seed, faults, workload)
                            )
                            continue
                        if inert:
                            continue  # deterministic scheme, pristine fabric
                        for pattern in spec.patterns:
                            runs.append(RunSpec(topo_spec, pattern, algorithm, seed, faults))
    if run_filter:
        glob = run_filter if any(c in run_filter for c in "*?[") else f"*{run_filter}*"
        runs = [r for r in runs if fnmatch(r.run_id, glob)]
    return tuple(runs)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def execute_run(
    run: RunSpec,
    metrics: Sequence[str],
    engine: str = DEFAULT_ENGINE,
    cache: RouteTableCache | None = None,
    config=None,
    _crossbar_memo: dict | None = None,
) -> dict:
    """Execute one grid cell through the facade and return its record.

    A cell names its pattern by spec, so its crossbar reference comes
    from the process-wide memo of :mod:`repro.metrics`;
    ``_crossbar_memo`` only serves live patterns.
    """
    from ..sim.config import PAPER_CONFIG

    result = evaluate_scenario(
        run.scenario(),
        metrics=metrics,
        engine=engine,
        config=config if config is not None else PAPER_CONFIG,
        cache=cache,
        crossbar_memo=_crossbar_memo,
    )
    return result.to_record()


# ----------------------------------------------------------------------
# The sweep driver
# ----------------------------------------------------------------------
@dataclass
class SweepResult:
    """Executed sweep: the artifact's in-memory form."""

    spec: SweepSpec
    runs: list[dict]
    cache_stats: dict = field(default_factory=dict)
    total_wall_time_s: float = 0.0
    #: per-span-name ``{count, total_s, max_s}`` aggregated across every
    #: worker process; empty unless the sweep ran under tracing
    obs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "kind": "repro-sweep-results",
            "spec": self.spec.to_dict(),
            "environment": _environment(),
            "cache": dict(self.cache_stats),
            "total_wall_time_s": round(self.total_wall_time_s, 6),
            "runs": self.runs,
        }
        # only traced sweeps carry the key, so untraced artifacts stay
        # byte-identical to the committed schema-v3 baselines
        if self.obs:
            out["obs"] = {"spans": dict(self.obs)}
        return out

    def run_map(self) -> dict[str, dict]:
        return {record_id(r): r for r in self.runs}


def _environment() -> dict:
    from .. import __version__

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "repro": __version__,
        "cpu_count": multiprocessing.cpu_count(),
    }


def _execute_group(
    payload: tuple[dict, list[tuple[int, dict]], str | None, bool],
) -> tuple[list, dict, dict]:
    """Worker entry: one memo group = one route-table build, many patterns.

    With ``trace`` set, every run executes under a ``sweep.run`` span
    and the group returns the bounded per-name span aggregate of the
    spans it produced (never the raw span list — a worker's trace can
    be large, and forked children inherit the parent's buffer, so only
    spans recorded *by this group* are aggregated).
    """
    spec_d, indexed_runs, store_root, trace = payload
    spec = SweepSpec.from_dict(spec_d)
    cache = RouteTableCache(store=store_root)
    base_spans = 0
    if trace:
        # re-arming per-process infrastructure, not sharing state:
        # spawn-started workers don't inherit the parent's tracer flag
        TRACER.enable()  # repro: noqa[REP030]
        base_spans = len(TRACER.spans())
    out = []
    for index, run_d in indexed_runs:
        run = RunSpec(**run_d)
        with TRACER.span("sweep.run", run_id=run.run_id) if trace else _NULL_CM:
            record = execute_run(run, spec.metrics, spec.engine, cache)
        out.append((index, record))
    obs = aggregate_spans(TRACER.spans()[base_spans:]) if trace else {}
    return out, cache.stats(), obs


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    run_filter: str | None = None,
    store: str | Path | None = None,
) -> SweepResult:
    """Execute a sweep, serial (``jobs=1``) or process-parallel.

    Parallel execution partitions the plan by memo key, so each
    ``(topology, algorithm, seed)`` route table is built exactly once in
    exactly one worker regardless of how many patterns consume it.
    Results are deterministic and ordered by the plan, independent of
    ``jobs``.

    ``store`` names an artifact-store root (``repro sweep --store``):
    every worker's table cache becomes store-backed, so the sweep's
    all-pairs tables are loaded from disk when already built and
    persisted otherwise — sweep outputs double as ``repro serve``
    entries, and reruns skip the table builds entirely.
    """
    t0 = time.perf_counter()
    runs = plan_runs(spec, run_filter)
    if not runs:
        return SweepResult(spec, [], {"table_builds": 0, "table_hits": 0}, 0.0)

    store_root = str(store) if store is not None else None
    trace = _obs_active() and TRACER.enabled
    groups: dict[tuple, list[tuple[int, dict]]] = {}
    for index, run in enumerate(runs):
        groups.setdefault(run.memo_key, []).append((index, asdict(run)))
    payloads = [
        (spec.to_dict(), indexed, store_root, trace) for indexed in groups.values()
    ]

    records: list[dict | None] = [None] * len(runs)
    stats = {"table_builds": 0, "table_hits": 0}
    if store_root is not None:
        stats["store_hits"] = 0
        stats["store_puts"] = 0
    obs_agg: dict = {}
    jobs = max(1, min(jobs, len(payloads)))
    if jobs == 1:
        results = map(_execute_group, payloads)
    else:
        pool = multiprocessing.Pool(processes=jobs)
        try:
            results = pool.imap_unordered(_execute_group, payloads)
            results = list(results)
        finally:
            pool.close()
            pool.join()
    for group_records, group_stats, group_obs in results:
        for index, record in group_records:
            records[index] = record
        for key in stats:
            stats[key] += group_stats[key]
        merge_span_aggregates(obs_agg, group_obs)
    assert all(r is not None for r in records)
    return SweepResult(spec, records, stats, time.perf_counter() - t0, obs_agg)


# ----------------------------------------------------------------------
# Artifact I/O
# ----------------------------------------------------------------------
def write_artifact(result: SweepResult, path: str | Path) -> Path:
    """Serialize a sweep to the schema-versioned JSON artifact."""
    path = Path(path)
    path.write_text(json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n")
    return path


def load_artifact(path: str | Path) -> dict:
    """Load and schema-check a sweep artifact."""
    data = json.loads(Path(path).read_text())
    if data.get("kind") != "repro-sweep-results":
        raise ValueError(f"{path}: not a sweep artifact")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: artifact schema v{version} != supported v{SCHEMA_VERSION}"
        )
    return data


# ----------------------------------------------------------------------
# Grid builders for the CLI's failure-rate and dynamic commands
# ----------------------------------------------------------------------
def fault_grid_spec(
    topology: str,
    pattern: str,
    algorithms: Sequence[str],
    rates: Sequence[float],
    kind: str = "links",
    seeds: int = 3,
    engine: str = DEFAULT_ENGINE,
    metrics: Sequence[str] | None = None,
) -> SweepSpec:
    """A failure-rate resilience grid (Fig.-2-style curves vs fault rate).

    ``rates`` are failure rates over cables (``kind="links"``) or inner
    switches (``kind="switches"``); rate 0 maps to the pristine
    ``"none"`` scenario.  All algorithms and routing seeds of a rate row
    face the same fault draw; the ``seeds`` axis varies routing and
    repair randomness only (for deterministic schemes, repair randomness
    alone — their pristine rows stay single-seed).
    """
    if kind not in ("links", "switches"):
        raise ValueError(f"unknown fault kind {kind!r} (expected links or switches)")
    if not rates:
        raise ValueError("need at least one failure rate")
    faults = tuple(
        "none" if rate == 0 else f"{kind}:rate={rate:g}" for rate in rates
    )
    if len(set(faults)) != len(faults):
        raise ValueError(f"duplicate failure rates in {list(rates)}")
    if metrics is None:
        metrics = ("max_link_load", "slowdown") + RESILIENCE_METRICS
    return SweepSpec(
        topologies=(topology,),
        patterns=(pattern,),
        algorithms=tuple(algorithms),
        seeds=seeds,
        metrics=tuple(metrics),
        engine=engine,
        name=f"faults-{kind}-{pattern}",
        faults=faults,
    )


def dynamic_grid_spec(
    topology: str,
    workloads: Sequence[str],
    algorithms: Sequence[str],
    seeds: int = 1,
    engine: str = DEFAULT_ENGINE,
    faults: Sequence[str] = ("none",),
    name: str = "",
) -> SweepSpec:
    """A dynamic-only grid: load-vs-FCT curves per routing algorithm.

    ``workloads`` are registered workload specs (the ``repro dynamic``
    CLI builds a ``poisson(load=...)`` ladder from ``--loads``); the
    grid has no phase patterns, so every cell is an open-loop run
    recording :data:`repro.workloads.DYNAMIC_METRICS`.
    """
    if not workloads:
        raise ValueError("need at least one workload spec")
    if any(w == "none" for w in workloads):
        raise ValueError("a dynamic grid takes real workload specs, not 'none'")
    return SweepSpec(
        topologies=(topology,),
        patterns=(),
        algorithms=tuple(algorithms),
        seeds=seeds,
        engine=engine,
        faults=tuple(faults),
        workloads=tuple(workloads),
        name=name or "dynamic",
    )
