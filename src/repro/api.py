"""The high-level scenario facade: one object, the whole evaluation.

The paper evaluates oblivious schemes over a product of topologies ×
patterns × algorithms × faults; a :class:`Scenario` is one point of
that product, addressable entirely by spec strings (or live objects)
through the unified registries::

    from repro.api import Scenario

    s = Scenario("xgft:2;16,16;1,8", "bit-reversal", "r-nca-d", seed=7)
    result = s.evaluate()                     # typed ScenarioResult
    result.metrics["slowdown"]

    degraded = Scenario(
        "XGFT(3;4,4,4;1,4,2)", "shift-1", "d-mod-k",
        faults="links:rate=0.05", seed=0,
    )
    degraded.evaluate(metrics=("slowdown", "disconnected_fraction"))

    print(compare([s, s.with_(algorithm="d-mod-k")]))   # cross-algorithm table

Everything downstream — the sweep engine, the CLI, the figure harness —
builds on this facade; new backends and scenario axes extend it by
*registration* (:mod:`repro.registry`) rather than by editing engine
internals.  Every scenario routes exactly the pairs its traffic sends
through :meth:`~repro.core.base.RoutingAlgorithm.build_table`: a phase
scenario the pairs of its phases, a dynamic scenario the arrivals of
its stream (:func:`repro.workloads.route_stream`).  No evaluation
builds a scheme's all-pairs table; that table serves the route store
(:func:`open_table`) and ``repro serve``, which answer every pair.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Mapping, Sequence, cast

import numpy as np
import numpy.typing as npt

from .core.base import RouteTable, RoutingAlgorithm
from .core.factory import is_oblivious, make_algorithm
from .faults import DegradedTopology, FaultSpec, parse_fault_spec, repair_table
from .metrics import (
    DEFAULT_METRICS,
    EvalContext,
    SKIPPED,
    concat_tables,
    load_aggregate,
    phase_pairs,
    resolve_metrics,
)
from .patterns.base import Pattern
from .patterns.registry import resolve_pattern
from .serve import RouteServer
from .sim.config import PAPER_CONFIG, NetworkConfig
from .sim.engines import DEFAULT_ENGINE, fluid_engine_names, resolve_engine
from .store import ArtifactStore, StoreKey, open_table, store_table
from .topology.registry import resolve_topology
from .topology.xgft import XGFT
from .workloads import DynamicDriver, DynamicResult, Workload, resolve_workload, route_stream

# importing the graphs package registers the general-graph topology
# families, the path-based routing schemes and the congestion metrics;
# `import repro` (which imports this module) activates all of them
from . import graphs as _graphs  # noqa: E402,F401

__all__ = [
    "Scenario",
    "ScenarioResult",
    "Comparison",
    "RouteTableCache",
    "RouteServer",
    "ArtifactStore",
    "StoreKey",
    "compare",
    "evaluate_scenario",
    "format_run_id",
    "open_table",
    "store_table",
    "subset_table",
]


def format_run_id(
    topology: str,
    pattern: str,
    algorithm: str,
    seed: int,
    faults: str = "none",
    workload: str = "none",
) -> str:
    """The canonical run identity — the key ``sweep_compare`` matches on.

    Single source of truth: :attr:`Scenario.run_id`, the sweep planner's
    ``RunSpec.run_id`` and the artifact record ids all derive from here,
    so the format cannot drift apart and silently break the baseline
    matching.  Dynamic cells append ``#<workload>`` (their ``pattern``
    is the placeholder ``none``).
    """
    base = f"{topology}/{pattern}/{algorithm}@{seed}"
    if faults != "none":
        base = f"{base}+{faults}"
    return base if workload == "none" else f"{base}#{workload}"


#: opaque per-run memo of the crossbar references of live patterns
#: (spec-named patterns use the process-wide memo in repro.metrics)
CrossbarMemo = dict[object, object]

#: per-phase ``(pairs, sizes)`` lists, as :func:`repro.metrics.phase_pairs` returns
Phases = list[tuple[list[tuple[int, int]], list[int]]]


# ----------------------------------------------------------------------
# Leftovers kept for the benchmark
# ----------------------------------------------------------------------
class RouteTableCache:
    """A placeholder with no behaviour.

    No evaluation builds an all-pairs table, so there is nothing to
    cache.  The benchmark's paper-grid driver
    (``bench/grid.py``, ``bench/gen_expected.py``) still constructs one
    and passes it to :func:`repro.experiments.sweep.execute_run`, which
    ignores it.
    """


def subset_table(
    full: RouteTable, rows: npt.NDArray[np.int64], pairs: Sequence[tuple[int, int]]
) -> RouteTable:
    """The rows of an all-pairs table covering ``pairs`` (order kept).

    ``rows`` is the ``(n*n,)`` flat-pair -> row index of ``full``.  No
    evaluation path calls this any more (a phase routes its own pairs);
    the benchmark's traced runs still wrap it by name.
    """
    n = full.topo.num_leaves
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    idx = rows[arr[:, 0] * n + arr[:, 1]]
    if (idx < 0).any():
        raise ValueError("pair outside the all-pairs table (self-pair?)")
    return full.take(idx)


# ----------------------------------------------------------------------
# Scenario
# ----------------------------------------------------------------------
@dataclass
class Scenario:
    """One routed-and-measured evaluation point.

    Every axis accepts either a spec string (resolved through the
    matching registry) or a live object:

    * ``topology`` — ``"XGFT(2;16,16;1,8)"``, ``"xgft:2;16,16;1,8"``, a
      registered family spec (``"slimmed-two-level(w2=10)"``) or an
      :class:`XGFT`;
    * ``pattern`` — a registered pattern spec (``"bit-reversal"``,
      ``"shift(d=3)"``, legacy ``"shift-3"``) or a :class:`Pattern`;
    * ``algorithm`` — a registered algorithm spec (``"d-mod-k"``,
      ``"r-nca-u(r=2)"``) or a :class:`RoutingAlgorithm` instance;
    * ``faults`` — a fault spec string (``"links:rate=0.05"``) or a
      :class:`FaultSpec`; ``"none"`` keeps the fabric pristine;
    * ``workload`` — a registered open-loop workload spec
      (``"poisson(load=0.8)"``, ``"onoff(load=0.6,duty=0.25)"``,
      ``"trace(path=arrivals.csv)"``) or a live
      :class:`~repro.workloads.Workload`.  ``"none"`` (the default)
      keeps the scenario phase-synchronized; anything else makes it
      *dynamic*: ``pattern`` becomes the placeholder ``"none"`` and
      :meth:`evaluate` drives the arrival stream through the
      :class:`~repro.workloads.DynamicDriver`, returning a
      :class:`ScenarioResult` whose ``dynamic`` field carries the typed
      :class:`~repro.workloads.DynamicResult`.

    Resolution is lazy and cached; :meth:`route_table`,
    :meth:`degraded` and :meth:`evaluate` reuse each other's
    intermediates.
    """

    topology: str | XGFT
    pattern: str | Pattern
    algorithm: str | RoutingAlgorithm
    faults: str | FaultSpec = "none"
    seed: int = 0
    workload: str | Workload = "none"

    def __post_init__(self) -> None:
        if self._raw_workload != "none" and self.pattern_spec != "none":
            # a dynamic scenario's traffic IS its workload; a real
            # pattern here would be silently ignored while still naming
            # the run — reject instead of mislabeling results
            raise ValueError(
                "a dynamic scenario (workload="
                f"{self._raw_workload!r}) has no phase pattern; pass "
                "pattern='none' instead of "
                f"{self.pattern_spec!r}"
            )
        self._crossbar_memo: CrossbarMemo = {}
        self._degraded: DegradedTopology | None = None
        self._degraded_done = False
        self._pristine: list[RouteTable] | None = None

    # -- canonical spec strings (run identity) --------------------------
    @property
    def topology_spec(self) -> str:
        if isinstance(self.topology, str):
            return self.topology
        if hasattr(self.topology, "spec"):
            return self.topology.spec()  # XGFT, GeneralGraph, ...
        return str(self.topology)

    @property
    def pattern_spec(self) -> str:
        return self.pattern.name if isinstance(self.pattern, Pattern) else str(self.pattern)

    @property
    def algorithm_spec(self) -> str:
        if isinstance(self.algorithm, RoutingAlgorithm):
            return self.algorithm.name
        return str(self.algorithm)

    @property
    def faults_spec(self) -> str:
        return (
            self.faults.canonical() if isinstance(self.faults, FaultSpec) else str(self.faults)
        )

    @property
    def _raw_workload(self) -> str:
        return (
            self.workload.spec if isinstance(self.workload, Workload) else str(self.workload)
        )

    @property
    def workload_spec(self) -> str:
        """The canonical workload spec — the run-identity component.

        The identity is the *resolved* :attr:`Workload.spec`, which
        spells out every parameter (sorted, defaults included), so
        equivalent spellings — ``poisson(load=0.8)`` vs
        ``poisson(flows=20000,load=0.8,sizes=fixed)`` vs any parameter
        order — produce matching run ids and never fail a regression
        gate on spelling.
        """
        if self._raw_workload == "none":
            return "none"
        return self.dynamic_workload.spec

    @property
    def is_dynamic(self) -> bool:
        """Does this scenario run an open-loop workload instead of phases?"""
        return self._raw_workload != "none"

    @property
    def run_id(self) -> str:
        return format_run_id(
            self.topology_spec, self.pattern_spec, self.algorithm_spec,
            self.seed, self.faults_spec, self.workload_spec,
        )

    @property
    def _pattern_key(self) -> str:
        """Crossbar-memo key: live patterns by identity (names can collide)."""
        if isinstance(self.pattern, Pattern):
            return f"{self.pattern.name}#{id(self.pattern):x}"
        return str(self.pattern)

    def with_(self, **changes: object) -> "Scenario":
        """A copy with some axes replaced (``compare`` ergonomics)."""
        return replace(self, **changes)

    # -- resolved live objects ------------------------------------------
    @property
    def topo(self) -> XGFT:
        resolved = self.__dict__.get("_topo")
        if resolved is None:
            resolved = self.__dict__["_topo"] = resolve_topology(self.topology)
        return resolved

    @property
    def traffic(self) -> Pattern:
        resolved = self.__dict__.get("_traffic")
        if resolved is None:
            if not isinstance(self.pattern, Pattern) and self.pattern_spec == "none":
                raise ValueError(
                    "this scenario has no phase pattern (pattern='none'); "
                    "dynamic scenarios run their workload axis instead"
                )
            resolved = self.__dict__["_traffic"] = resolve_pattern(
                self.pattern, self.topo.num_leaves
            )
        return resolved

    @property
    def dynamic_workload(self) -> Workload:
        """The resolved live workload of a dynamic scenario."""
        resolved = self.__dict__.get("_workload")
        if resolved is None:
            if not self.is_dynamic:
                raise ValueError("this scenario has no workload axis (workload='none')")
            resolved = self.__dict__["_workload"] = resolve_workload(
                self.workload, self.topo.num_leaves
            )
        return resolved

    @property
    def routing(self) -> RoutingAlgorithm:
        resolved = self.__dict__.get("_routing")
        if resolved is None:
            if isinstance(self.algorithm, RoutingAlgorithm):
                if self.algorithm.topo != self.topo:
                    raise ValueError(
                        "the algorithm instance routes a different topology "
                        f"({self.algorithm.topo.spec()} != {self.topo.spec()})"
                    )
                resolved = self.algorithm
            else:
                resolved = make_algorithm(str(self.algorithm), self.topo, seed=self.seed)
            self.__dict__["_routing"] = resolved
        return resolved

    @property
    def fault_spec(self) -> FaultSpec:
        if isinstance(self.faults, FaultSpec):
            return self.faults
        return parse_fault_spec(str(self.faults))

    # -- cached evaluation intermediates --------------------------------
    def _arrivals(self):
        """A dynamic scenario's arrival stream, generated once with the scenario seed."""
        stream = self.__dict__.get("_stream")
        if stream is None:
            stream = self.__dict__["_stream"] = self.dynamic_workload.generate(seed=self.seed)
        return stream

    def _pristine_tables(self, phases: Phases | None = None) -> list[RouteTable]:
        """The pristine routes of this scenario's traffic, routed once.

        A phase scenario has one table per phase, routing that phase's
        pairs (``phases`` is ``phase_pairs(self.traffic)`` when the
        caller has it already).  A dynamic scenario has one table: the
        routes of its stream's network arrivals, the stream generated
        with the scenario seed (:func:`repro.workloads.route_stream`,
        the routing the driver does).
        """
        if self._pristine is None:
            algorithm = self.routing
            if self.is_dynamic:
                self._pristine = [route_stream(algorithm, self._arrivals())]
            else:
                if phases is None:
                    phases = phase_pairs(self.traffic)
                self._pristine = [algorithm.build_table(pairs) for pairs, _ in phases]
        return self._pristine

    def route_table(self) -> RouteTable:
        """The pristine routes of this scenario's traffic, merged.

        Phase scenarios merge their per-phase tables.  A dynamic
        scenario returns the routes of its stream's network arrivals
        (``src != dst``), in stream order; a pattern-aware scheme has no
        static routes under churn, and raises.  Routed once: repeated
        calls, :meth:`degraded` and :meth:`evaluate` reuse the routes.
        """
        if self.is_dynamic and not is_oblivious(self.routing):
            raise ValueError(
                f"{self.algorithm_spec!r} is pattern-aware: it has no "
                "static route table under an open-loop workload"
            )
        tables = self._pristine_tables()
        if not tables:
            return self.routing.build_table([])
        return concat_tables(tables)

    def degraded(self) -> DegradedTopology | None:
        """The degraded fabric this scenario runs on (``None`` if pristine).

        Faults are realized once, against the *routed* traffic, so
        adversarial specs (``worst-links:...``) cut the most loaded
        cables of this very scenario's routes: a phase scenario's
        phases, a dynamic scenario's stream arrivals
        (:meth:`route_table`).  A pattern-aware dynamic scenario has no
        static routes and realizes traffic-blind.  A pristine scenario
        and a random ``links:``/``switches:`` spec route nothing.
        """
        if not self._degraded_done:
            spec = self.fault_spec
            if spec.kind != "none":
                _reject_graph_faults(self.topo, self.routing, self.faults_spec)
                table = None
                if spec.needs_traffic and (not self.is_dynamic or is_oblivious(self.routing)):
                    routed = self.route_table()
                    table = routed if len(routed) else None
                self._degraded = DegradedTopology(self.topo, spec.realize(self.topo, table=table))
            self._degraded_done = True
        return self._degraded

    # -- evaluation ------------------------------------------------------
    def evaluate(
        self,
        metrics: Sequence[str] | None = None,
        engine: str = DEFAULT_ENGINE,
        config: NetworkConfig = PAPER_CONFIG,
    ) -> "ScenarioResult":
        """Route, degrade-and-repair, simulate, measure.

        ``metrics`` defaults to :data:`repro.metrics.DEFAULT_METRICS`;
        any registered metric name is accepted.  ``engine`` names a
        registered backend (:data:`repro.sim.engines.ENGINES`).

        Dynamic scenarios record the fixed
        :data:`repro.workloads.DYNAMIC_METRICS` set — ``metrics``
        applies to phase scenarios only (a mixed sweep passes one
        metric list to every cell, so dynamic cells cannot reject it).
        """
        return evaluate_scenario(
            self,
            metrics=metrics,
            engine=engine,
            config=config,
            crossbar_memo=self._crossbar_memo,
        )


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioResult:
    """A typed, metric-keyed evaluation outcome.

    ``dynamic`` carries the full typed
    :class:`~repro.workloads.DynamicResult` when the scenario ran an
    open-loop workload (``None`` for phase scenarios); its headline
    statistics are flattened into ``metrics`` either way.
    """

    scenario: Scenario
    metrics: Mapping[str, object]
    load_histogram: Mapping[int, int]
    fault_info: Mapping[str, int]
    wall_time_s: float
    dynamic: DynamicResult | None = None

    @property
    def run_id(self) -> str:
        return self.scenario.run_id

    def __getitem__(self, metric: str) -> object:
        return self.metrics[metric]

    def to_record(self) -> dict[str, object]:
        """The sweep-artifact run record (``docs/sweep_schema.md``)."""
        record: dict[str, object] = {
            "topology": self.scenario.topology_spec,
            "pattern": self.scenario.pattern_spec,
            "algorithm": self.scenario.algorithm_spec,
            "seed": self.scenario.seed,
            "faults": self.scenario.faults_spec,
            "metrics": {k: _round(v) for k, v in self.metrics.items()},
            "load_histogram": {str(k): v for k, v in sorted(self.load_histogram.items())},
            "wall_time_s": round(self.wall_time_s, 6),
        }
        if self.scenario.workload_spec != "none":
            record["workload"] = self.scenario.workload_spec
        if self.dynamic is not None:
            detail = self.dynamic.to_record()
            # identity fields live at the record top level, and the
            # utilization timeseries stays in the `repro dynamic`
            # document (bounded, but bulky for a many-cell artifact)
            for key in ("topology", "algorithm", "workload", "engine", "seed", "faults", "util"):
                detail.pop(key, None)
            record["dynamic"] = detail
        if self.fault_info:
            record["fault_info"] = dict(self.fault_info)
        return record


def _round(value: object) -> object:
    return round(value, 10) if isinstance(value, float) else value


# ----------------------------------------------------------------------
# The evaluation engine
# ----------------------------------------------------------------------
def _reject_graph_faults(topo: object, algorithm: object, faults_label: str) -> None:
    """Fault injection (and repair) is NCA machinery — XGFT-only.

    General graphs model failures at build time instead (e.g.
    ``leafspine(fail=3,seed=1)`` removes cables without disconnecting
    the fabric), and path-emitting schemes have no repairable port
    digits even on an XGFT — reject both with one diagnostic.
    """
    emits_paths = hasattr(algorithm, "pair_arcs")
    if isinstance(topo, XGFT) and not emits_paths:
        return
    raise ValueError(
        f"fault scenarios (faults={faults_label!r}) are XGFT-only; "
        "general-graph topologies model failures at build time "
        "(e.g. leafspine(fail=3,seed=1)), and path-based schemes "
        "have no repairable route tables"
    )


def evaluate_scenario(
    scenario: Scenario,
    metrics: Sequence[str] | None = None,
    engine: str = DEFAULT_ENGINE,
    config: NetworkConfig = PAPER_CONFIG,
    crossbar_memo: CrossbarMemo | None = None,
) -> ScenarioResult:
    """Evaluate one scenario and return its :class:`ScenarioResult`.

    The sweep engine calls this per grid cell; :meth:`Scenario.evaluate`
    calls it with the scenario's own ``crossbar_memo``.  A scenario is
    routed once: :meth:`Scenario.route_table`,
    :meth:`Scenario.degraded` and this share its cached routes.  The crossbar
    reference of a spec-named pattern is memoized process-wide
    (:mod:`repro.metrics`); ``crossbar_memo`` holds those of live
    patterns.  Metric values are computed by the registered
    :class:`repro.metrics.Metric` callables over one shared
    :class:`repro.metrics.EvalContext`.  Dynamic scenarios bypass the
    metric registry and record :data:`repro.workloads.DYNAMIC_METRICS`
    regardless of ``metrics`` (see :meth:`Scenario.evaluate`).
    """
    t0 = time.perf_counter()
    resolve_engine(engine)  # fail fast on unknown engine names
    if scenario.is_dynamic:
        return _evaluate_dynamic(scenario, engine=engine, config=config, t0=t0)
    metric_fns = resolve_metrics(tuple(metrics) if metrics is not None else DEFAULT_METRICS)
    topo = scenario.topo
    pattern = scenario.traffic
    algorithm = scenario.routing

    phases = phase_pairs(pattern)
    tables = scenario._pristine_tables(phases)

    # degrade-and-repair: faults are realized against the *routed*
    # traffic (adversarial specs cut the most loaded cables of this very
    # pattern), the pristine tables become the resilience baseline, and
    # every downstream metric sees only surviving, repaired flows.
    # Seeded random draws depend only on the fault spec (not the run
    # seed), so every algorithm and routing seed of a row faces the
    # *same* degraded fabric; sweep several draws by listing several
    # specs ("links:rate=0.05,seed=0", "links:rate=0.05,seed=1", ...).
    # Adversarial "worst-links" specs are the deliberate exception:
    # each cell's adversary watches that cell's own routes, so every
    # scheme faces *its own* worst case (per-cell fabrics, see
    # fault_info for what was actually cut)
    degraded = scenario.degraded()
    fault_info: dict[str, int] = {}
    baseline_agg = None
    if degraded is not None:
        repairs = [repair_table(t, degraded, seed=scenario.seed) for t in tables]
        baseline_agg = load_aggregate(tables)
        tables = [r.table for r in repairs]
        phases = [
            (
                [pairs[i] for i in r.surviving_rows()],
                [sizes[i] for i in r.surviving_rows()],
            )
            for (pairs, sizes), r in zip(phases, repairs)
        ]
        fault_info = {
            "failed_cables": degraded.num_failed_cables,
            "failed_switches": degraded.num_failed_switches,
            "broken_flows": sum(r.num_broken for r in repairs),
            "repaired_flows": sum(r.num_repaired for r in repairs),
            "disconnected_flows": sum(r.num_disconnected for r in repairs),
            "total_flows": sum(len(r.broken) for r in repairs),
        }

    ctx = EvalContext(
        topo=topo,
        pattern=pattern,
        algorithm=algorithm,
        tables=tables,
        phases=phases,
        engine=engine,
        config=config,
        seed=scenario.seed,
        degraded=degraded,
        fault_info=fault_info,
        baseline_agg=baseline_agg,
        label=scenario.run_id,
        faults_label=scenario.faults_spec,
        pattern_key=scenario._pattern_key,
        crossbar_memo=crossbar_memo,
        pattern_spec=None if isinstance(scenario.pattern, Pattern) else scenario.pattern_spec,
    )
    values: dict[str, object] = {}
    for metric in metric_fns:
        value = metric(ctx)
        if value is not SKIPPED:
            values[metric.name] = value
    return ScenarioResult(
        scenario=scenario,
        metrics=values,
        # the used-link histogram is always part of the record (phases
        # are aggregated; idle links are omitted so multi-phase runs
        # don't count the same idle link once per phase)
        load_histogram=ctx.load_histogram,
        fault_info=fault_info,
        wall_time_s=time.perf_counter() - t0,
    )


def _evaluate_dynamic(
    scenario: Scenario,
    engine: str,
    config: NetworkConfig,
    t0: float,
) -> ScenarioResult:
    """The dynamic (open-loop) evaluation path behind the facade.

    An oblivious scheme's stream is routed once, by the scenario
    (:meth:`Scenario.route_table`): a ``worst-links`` spec is realized
    against those routes, and the :class:`~repro.workloads.DynamicDriver`
    repairs and runs the same ones.  The stream is seeded by the
    scenario seed: two engines (or two algorithms sharing a seed) face
    the identical stream.
    """
    engine_obj = resolve_engine(engine)
    if engine_obj.kind != "fluid":
        # fail before any work starts (the driver would only discover
        # this when instantiating the simulator, deep inside the run)
        raise ValueError(
            f"engine {engine_obj.name!r} is not a fluid backend; dynamic "
            "workloads need an incremental fluid engine "
            f"({', '.join(fluid_engine_names())})"
        )
    algorithm = scenario.routing
    workload = scenario.dynamic_workload
    degraded = scenario.degraded()

    # the driver runs on the *machine* the algorithm routes: a graph
    # scheme given an XGFT spec lowers it, so its tables index the
    # lowered graph's arc space, not the XGFT link space
    driver = DynamicDriver(
        algorithm.topo,
        algorithm,
        engine=engine,
        config=config,
        degraded=degraded,
        repair_seed=scenario.seed,
        sample_seed=scenario.seed,
    )
    result = driver.run(
        scenario._arrivals(),
        workload=workload.spec,
        seed=scenario.seed,
        faults=scenario.faults_spec,
        routes=scenario.route_table() if is_oblivious(algorithm) else None,
    )
    fault_info: dict[str, int] = {}
    if degraded is not None:
        fault_info = {
            "failed_cables": degraded.num_failed_cables,
            "failed_switches": degraded.num_failed_switches,
            "rejected_flows": result.num_rejected,
            "total_flows": result.num_arrivals,
        }
    return ScenarioResult(
        scenario=scenario,
        metrics=result.metrics(),
        load_histogram={},
        fault_info=fault_info,
        wall_time_s=time.perf_counter() - t0,
        dynamic=result,
    )


# ----------------------------------------------------------------------
# Cross-scenario comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Comparison:
    """Evaluated scenarios side by side (cross-algorithm tables)."""

    results: tuple[ScenarioResult, ...]
    metrics: tuple[str, ...]

    def best(self, metric: str) -> ScenarioResult:
        """The lowest-valued result for a (lower-is-better) metric."""
        scored = [r for r in self.results if metric in r.metrics]
        if not scored:
            raise ValueError(f"no result carries metric {metric!r}")
        # metric values compare as floats; the Mapping's value type is
        # object, so state the comparison contract for the key
        return min(scored, key=lambda r: cast(float, r.metrics[metric]))

    def format(self) -> str:
        """A plain-text table, one row per scenario."""
        headers = ["scenario", *self.metrics]
        rows = [
            [r.run_id, *(_format_cell(r.metrics.get(m)) for m in self.metrics)]
            for r in self.results
        ]
        widths = [
            max(len(headers[c]), *(len(row[c]) for row in rows)) if rows else len(headers[c])
            for c in range(len(headers))
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
            "  ".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()


def _format_cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def compare(
    scenarios: Sequence[Scenario],
    metrics: Sequence[str] | None = None,
    engine: str = DEFAULT_ENGINE,
    config: NetworkConfig = PAPER_CONFIG,
) -> Comparison:
    """Evaluate scenarios and tabulate the metrics.

    Each scenario routes its own traffic; the crossbar reference of a
    live pattern is computed once per (pattern, machine size) across
    the scenarios.
    """
    if not scenarios:
        raise ValueError("compare needs at least one scenario")
    names = tuple(metrics) if metrics is not None else DEFAULT_METRICS
    memo: CrossbarMemo = {}
    results = tuple(
        evaluate_scenario(s, metrics=names, engine=engine, config=config, crossbar_memo=memo)
        for s in scenarios
    )
    return Comparison(results=results, metrics=names)
