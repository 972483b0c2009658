"""Registered evaluation metrics and the context they compute over.

Pre-registry, every metric the sweep engine knew was a hardcoded branch
inside ``execute_run``.  Here each metric is a first-class
:class:`Metric` in :data:`METRICS` (a :class:`repro.registry.Registry`):
a named callable over an :class:`EvalContext` with declared
applicability — ``fault_only`` metrics are trivially constant (0 / 1)
on a pristine fabric and only become informative on the faults axis.

The :class:`EvalContext` carries one evaluated scenario — topology,
pattern, routed (and possibly repaired) per-phase tables, degradation
state — and lazily caches the expensive shared intermediates (the link
census, the fluid/replay simulation), so a metric set pays only for
what it actually reads.

Third parties extend the set by registration::

    @register_metric("p99_link_load", description="99th pct used-link load")
    def p99(ctx):
        loads = [load for load, n in ctx.load_histogram.items() for _ in range(n)]
        return float(np.percentile(loads, 99)) if loads else 0.0

after which the name works in sweep specs, ``repro.api`` scenarios and
the CLI.  All built-in metrics are lower-is-better, which is what the
regression comparison (``repro compare``) assumes.

The slowdown denominator (the Full-Crossbar time of the pattern) is
memoized per process for spec-named patterns: one entry per (pattern
spec, machine size, engine, network config), with the registered
pattern builder and engine in the key, so re-registering either name
misses.  At most :data:`CROSSBAR_MEMO_SIZE` entries are kept, least
recently used first out.  Live :class:`~repro.patterns.Pattern`
objects stay in the caller's own memo, keyed by identity.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .contention import link_load_summary, max_network_contention, routes_per_nca
from .core.base import RouteTable
from .faults import inflation_ratio, repair_table
from .obs import active as _obs_active
from .obs import metrics as _obs_metrics
from .patterns.registry import pattern_builder
from .registry import Registry
from .sim.config import PAPER_CONFIG, NetworkConfig
from .sim.engines import DEFAULT_ENGINE, is_fluid_engine, resolve_engine

__all__ = [
    "DEFAULT_METRICS",
    "RESILIENCE_METRICS",
    "KNOWN_METRICS",
    "METRICS",
    "Metric",
    "EvalContext",
    "SKIPPED",
    "CROSSBAR_MEMO_SIZE",
    "crossbar_reference",
    "slowdown_ratio",
    "register_metric",
    "available_metrics",
    "known_metric_names",
    "resolve_metrics",
]

#: sentinel a metric returns to omit itself from the record (e.g. a
#: census over an empty table)
SKIPPED = object()

#: the metric registry: name -> :class:`Metric`
METRICS: Registry = Registry("metric")

#: entries the process-wide crossbar-reference memo keeps
CROSSBAR_MEMO_SIZE = 256

#: ``key -> (t_ref, pattern builder, engine)`` for spec-named patterns.
#: The key holds the ids of the builder and engine; the entry holds the
#: objects, so no other object can take either id while it exists.  A
#: pure cache: a worker process filling its own copy computes the same
#: values, so ``jobs=1`` and ``jobs=N`` sweeps still agree.
_CROSSBAR_REFS: OrderedDict[tuple, tuple[float, object, object]] = OrderedDict()


@dataclass(frozen=True)
class Metric:
    """A named, registered metric over an :class:`EvalContext`.

    ``fault_only`` declares applicability: the metric is trivially
    constant on a pristine topology and only informative under the
    faults axis (it still *computes* everywhere — pristine sweeps get
    the trivial value, keeping artifact rows uniformly shaped).
    """

    name: str
    fn: Callable[["EvalContext"], object]
    fault_only: bool = False
    description: str = ""

    def __call__(self, ctx: "EvalContext") -> object:
        return self.fn(ctx)


def register_metric(
    name: str, *, fault_only: bool = False, description: str = "", override: bool = False
):
    """Decorator registering ``fn(ctx) -> value`` as a :class:`Metric`."""

    def decorator(fn: Callable[["EvalContext"], object]) -> Metric:
        metric = Metric(name=name, fn=fn, fault_only=fault_only, description=description)
        METRICS.register(name, metric, override=override)
        return metric

    return decorator


def available_metrics() -> tuple[str, ...]:
    """Registered metric names (built-in and third-party)."""
    return METRICS.names()


# ----------------------------------------------------------------------
# The evaluation context
# ----------------------------------------------------------------------
@dataclass
class EvalContext:
    """Everything a metric may consult about one evaluated scenario.

    ``tables``/``phases`` are the *surviving* per-phase route tables and
    ``(pairs, sizes)`` lists (post-repair under faults); ``baseline_agg``
    is the pristine load aggregate the inflation metrics compare
    against.  The link census and the simulation are computed lazily and
    cached, shared by every metric that reads them.
    """

    topo: object
    pattern: object
    algorithm: object
    tables: list[RouteTable]
    phases: list[tuple[list[tuple[int, int]], list[int]]]
    engine: str = DEFAULT_ENGINE
    config: NetworkConfig = PAPER_CONFIG
    seed: int = 0
    degraded: object = None
    fault_info: dict = field(default_factory=dict)
    baseline_agg: tuple | None = None
    #: run identity for diagnostics (e.g. the replay lossy-fault error)
    label: str = ""
    faults_label: str = "none"
    #: per-call crossbar-memo key component of a live pattern
    pattern_key: str = ""
    #: the caller's ``(pattern_key, num_leaves, engine, config) -> t_ref``
    #: memo, used for live patterns only
    crossbar_memo: dict | None = None
    #: the registry spec of a spec-named pattern (``None`` for a live
    #: Pattern); spec-named references go to the process-wide memo
    pattern_spec: str | None = None

    _load_aggregate: tuple | None = field(default=None, repr=False)
    _sim_time: float | None = field(default=None, repr=False)
    _merged: RouteTable | None = field(default=None, repr=False)

    @property
    def load_aggregate(self) -> tuple[int, float, dict[int, int]]:
        """Across-phase ``(max_load, mean_load_over_used_links, histogram)``."""
        if self._load_aggregate is None:
            self._load_aggregate = load_aggregate(self.tables)
        return self._load_aggregate

    @property
    def load_histogram(self) -> dict[int, int]:
        return self.load_aggregate[2]

    @property
    def sim_time(self) -> float:
        """Simulated pattern time on the (possibly degraded) fabric."""
        if self._sim_time is None:
            self._sim_time = _simulate(self)
        return self._sim_time

    def merged_table(self) -> RouteTable:
        """All surviving phases concatenated into one table."""
        if self._merged is None:
            self._merged = concat_tables(self.tables)
        return self._merged


# ----------------------------------------------------------------------
# Shared machinery (formerly private to the sweep engine)
# ----------------------------------------------------------------------
def phase_pairs(pattern) -> list[tuple[list[tuple[int, int]], list[int]]]:
    """Per-phase (pairs, sizes) with self-flows dropped (they use no links)."""
    out = []
    for phase in pattern.phases:
        kept = [(f.pair, f.size) for f in phase.flows if f.src != f.dst]
        if kept:
            out.append(([p for p, _ in kept], [s for _, s in kept]))
    return out


def concat_tables(tables: list[RouteTable]) -> RouteTable:
    merged = tables[0]
    for t in tables[1:]:
        merged = merged.concat(t)
    return merged


def load_aggregate(tables: list[RouteTable]) -> tuple[int, float, dict[int, int]]:
    """Across-phase (max_load, mean_load_over_used_links, histogram)."""
    histogram: dict[int, int] = {}
    max_load, used_sum, used_links = 0, 0.0, 0
    for table in tables:
        summary = link_load_summary(table)
        max_load = max(max_load, summary.max_load)
        used_sum += summary.mean_load * summary.num_used_links
        used_links += summary.num_used_links
        for load, count in summary.histogram.items():
            if load > 0:
                histogram[load] = histogram.get(load, 0) + count
    return max_load, used_sum / used_links if used_links else 0.0, histogram


def _simulate(ctx: EvalContext) -> float:
    """The pattern's time: the phase tables' makespans on a fluid engine;
    on ``replay``, its trace over routes installed before it starts, in
    one batch (:func:`repro.dimemas.route_trace`) and repaired as the
    phase tables were."""
    from .sim.network import simulate_phase_fluid, xgft_link_space

    if is_fluid_engine(ctx.engine):
        return sum(
            simulate_phase_fluid(table, sizes, ctx.config, degraded=ctx.degraded, engine=ctx.engine)
            for table, (_, sizes) in zip(ctx.tables, ctx.phases)
        )
    from .dimemas import FluidTransferNetwork, ReplayEngine, pattern_trace, route_trace

    trace = pattern_trace(ctx.pattern)
    routes = route_trace(trace, ctx.algorithm)
    if ctx.degraded is not None:
        # replay cannot drop flows: an MPI trace with a disconnected pair
        # would simply deadlock, so reject early with a diagnostic
        lost = ctx.fault_info["disconnected_flows"]
        if lost:
            raise ValueError(
                f"{ctx.label}: {lost} flow(s) disconnected by "
                f"{ctx.faults_label!r}; the replay engine cannot drop flows — use "
                "the fluid engine for lossy fault scenarios"
            )
        routes = repair_table(routes, ctx.degraded, seed=ctx.seed).table
    network = FluidTransferNetwork(xgft_link_space(routes.topo), routes, ctx.config)
    return ReplayEngine(trace, network).run().total_time


def crossbar_reference(
    pattern,
    num_leaves: int,
    config: NetworkConfig = PAPER_CONFIG,
    engine: str = DEFAULT_ENGINE,
) -> float:
    """Full-Crossbar time of the whole pattern (the slowdown denominator).

    Fluid-kind engines time each phase on the max-min model; ``replay``
    replays the pattern's trace on the crossbar.
    """
    if is_fluid_engine(engine):
        from .sim.network import crossbar_pattern_time

        return crossbar_pattern_time(pattern, num_leaves, config, engine=engine)
    from .dimemas import pattern_trace, replay_on_crossbar

    return replay_on_crossbar(pattern_trace(pattern), num_leaves, config).total_time


def slowdown_ratio(t_net: float, t_ref: float, pattern) -> float:
    """The slowdown rule: network time over the Full-Crossbar reference.

    A pattern whose every flow is a self-pair moves no network bytes and
    drains instantly on both fabrics (``t_net == t_ref == 0``): slowdown
    is 1.0 by convention — no bytes moved, so no contention was added.
    A pattern with no flows at all, or a zero reference against a
    positive network time, is a caller error, never a silent inf/nan.
    """
    if t_ref > 0:
        return t_net / t_ref
    if t_net <= 0 and any(phase.flows for phase in pattern.phases):
        return 1.0
    raise ValueError("crossbar reference time must be positive (empty pattern?)")


# ----------------------------------------------------------------------
# Built-in metrics (the pre-registry hardcoded set)
# ----------------------------------------------------------------------
@register_metric("max_link_load", description="max flows over any used link")
def _max_link_load(ctx: EvalContext):
    return ctx.load_aggregate[0]


@register_metric("mean_link_load", description="mean flows over used links")
def _mean_link_load(ctx: EvalContext):
    return ctx.load_aggregate[1]


@register_metric(
    "max_network_contention", description="worst endpoint-aware contention level"
)
def _max_network_contention(ctx: EvalContext):
    return max((max_network_contention(t) for t in ctx.tables), default=0)


@register_metric("routes_per_nca", description="all-phase route census per root NCA")
def _routes_per_nca(ctx: EvalContext):
    if not ctx.tables:
        return SKIPPED
    if not hasattr(ctx.tables[0], "nca_level"):
        return SKIPPED  # path tables (general graphs) have no NCA structure
    return [int(x) for x in routes_per_nca(ctx.merged_table())]


@register_metric(
    "disconnected_fraction",
    fault_only=True,
    description="fraction of flows with no surviving route",
)
def _disconnected_fraction(ctx: EvalContext):
    total = ctx.fault_info.get("total_flows", 0)
    return ctx.fault_info["disconnected_flows"] / total if total else 0.0


@register_metric(
    "max_load_inflation",
    fault_only=True,
    description="max link load vs the fault-free baseline",
)
def _max_load_inflation(ctx: EvalContext):
    return (
        inflation_ratio(ctx.load_aggregate[0], ctx.baseline_agg[0])
        if ctx.baseline_agg
        else 1.0
    )


@register_metric(
    "mean_load_inflation",
    fault_only=True,
    description="mean link load vs the fault-free baseline",
)
def _mean_load_inflation(ctx: EvalContext):
    return (
        inflation_ratio(ctx.load_aggregate[1], ctx.baseline_agg[1])
        if ctx.baseline_agg
        else 1.0
    )


@register_metric("sim_time", description="simulated pattern completion time")
def _sim_time(ctx: EvalContext):
    return ctx.sim_time


@register_metric("slowdown", description="sim time over the Full-Crossbar reference")
def _slowdown(ctx: EvalContext):
    sim_time = ctx.sim_time
    if ctx.fault_info.get("disconnected_flows", 0) > 0:
        # lossy scenario: the reference must cover the *same* surviving
        # flows as the numerator, or losing traffic would drive slowdown
        # below the 1.0 floor and the lower-is-better gate would reward
        # disconnection; flow loss itself is disconnected_fraction's job
        from .sim.network import crossbar_flows_time

        t_ref = sum(
            crossbar_flows_time(pairs, sizes, ctx.topo.num_leaves, ctx.config, ctx.engine)
            for pairs, sizes in ctx.phases
        )
    else:
        t_ref = _memoized_reference(ctx)
    return slowdown_ratio(sim_time, t_ref, ctx.pattern)


def _memoized_reference(ctx: EvalContext) -> float:
    """The whole pattern's crossbar time, from the memo when possible.

    The config is part of every key: a re-evaluation under a different
    config must not divide by the old config's reference time.
    """
    num_leaves = ctx.topo.num_leaves
    if ctx.pattern_spec is None:
        # a live Pattern: the caller's memo, keyed by identity
        memo = ctx.crossbar_memo if ctx.crossbar_memo is not None else {}
        key: tuple = (ctx.pattern_key, num_leaves, ctx.engine, ctx.config)
        t_ref = memo.get(key)
        hit = t_ref is not None
        if t_ref is None:
            t_ref = memo[key] = crossbar_reference(ctx.pattern, num_leaves, ctx.config, ctx.engine)
    else:
        builder = pattern_builder(ctx.pattern_spec)
        engine = resolve_engine(ctx.engine)
        key = (ctx.pattern_spec, id(builder), num_leaves, engine.name, id(engine), ctx.config)
        entry = _CROSSBAR_REFS.get(key)
        hit = entry is not None
        if entry is not None:
            _CROSSBAR_REFS.move_to_end(key)
            t_ref = entry[0]
        else:
            t_ref = crossbar_reference(ctx.pattern, num_leaves, ctx.config, ctx.engine)
            _CROSSBAR_REFS[key] = (t_ref, builder, engine)
            if len(_CROSSBAR_REFS) > CROSSBAR_MEMO_SIZE:
                _CROSSBAR_REFS.popitem(last=False)
    if _obs_active():
        _obs_metrics.counter("metrics.crossbar_hits" if hit else "metrics.crossbar_computes").inc()
    return t_ref


#: metrics computed when a spec does not name its own
DEFAULT_METRICS = (
    "max_link_load",
    "mean_link_load",
    "max_network_contention",
    "sim_time",
    "slowdown",
)

#: resilience metrics, meaningful on the ``faults`` axis (all
#: lower-is-better; trivially 0 / 1 / 1 on the pristine topology)
RESILIENCE_METRICS = (
    "disconnected_fraction",
    "max_load_inflation",
    "mean_load_inflation",
)

#: the built-in metric names (third-party registrations extend
#: :data:`METRICS` beyond this tuple; see :func:`available_metrics`)
KNOWN_METRICS = DEFAULT_METRICS + RESILIENCE_METRICS + ("routes_per_nca",)


def known_metric_names() -> tuple[str, ...]:
    """Every name the engine can compute right now (registry snapshot)."""
    return METRICS.names()


def resolve_metrics(names: Sequence[str]) -> tuple[Metric, ...]:
    """Look up a metric name list, with one aggregate diagnostic."""
    unknown = sorted(set(names) - set(METRICS.names()))
    if unknown:
        raise ValueError(
            f"unknown metrics {unknown}; known: {', '.join(METRICS.names())}"
        )
    return tuple(METRICS.get(name) for name in names)
