"""The event-driven dynamic driver: arrivals onto a live fluid engine.

:class:`DynamicDriver` merges an :class:`~repro.workloads.stream.ArrivalStream`
with the completion stream of any registered fluid-kind engine
(:data:`repro.sim.engines.ENGINES`), using exactly the incremental
surface both engines already expose: ``advance_to`` up to the next
arrival instant, ``advance_to_next_completion`` when a completion comes
first, batch ``add_flows`` for every arrival batch, and
``link_rates`` for the utilization samples.  An oblivious scheme's
route is a function of the pair alone, so its routes are installed
*before* the traffic exists: :meth:`DynamicDriver.run` routes the
stream's network arrivals in one
:meth:`~repro.core.base.RoutingAlgorithm.build_table` call
(:func:`route_stream`) and each arrival batch takes its rows — the
operational meaning of obliviousness under churn (Räcke & Schmid,
*Compact Oblivious Routing*).  Pattern-aware schemes still run (each
arrival batch is routed as it appears), but what they "see" is only the
batch — open-loop traffic is precisely the regime where their pattern
knowledge evaporates.

Faults compose: pass a :class:`~repro.faults.DegradedTopology` and the
stream's routes are locally repaired once (:func:`repro.faults.repair_table`,
whose draw depends only on the pair); arrivals between disconnected
pairs are *rejected* and counted — under churn, flow loss shows up as
refused admissions, not broken phases.

The measurement layer is online and O(1) in the stream length
(:mod:`repro.workloads.online`): exact FCT/slowdown means plus
reservoir-sampled percentiles, offered-vs-delivered throughput, and a
bounded per-link utilization timeseries.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ..core.base import RouteTable, RoutingAlgorithm
from ..core.factory import is_oblivious
from ..obs import active as _obs_active
from ..obs import metrics as _metrics
from ..obs.trace import TRACER
from ..sim.config import PAPER_CONFIG, NetworkConfig
from ..sim.engines import DEFAULT_ENGINE, make_fluid_simulator
from ..sim.network import flow_incidence, xgft_link_space
from .online import OnlineStat, StatSummary, UtilSample, UtilSeries
from .stream import ArrivalStream

__all__ = ["DriverStats", "DynamicDriver", "DynamicResult", "DYNAMIC_METRICS", "route_stream"]

#: the metric names a dynamic run records (all lower-is-better, so the
#: sweep regression gate's comparison convention carries over)
DYNAMIC_METRICS = (
    "fct_mean",
    "fct_p50",
    "fct_p99",
    "slowdown_mean",
    "slowdown_p50",
    "slowdown_p99",
    "rejected_fraction",
    "makespan",
)

# a reusable do-nothing context manager for untraced loop phases
# (nullcontext carries no state, so one instance serves every event)
_NULL_CM = nullcontext()


@dataclass(frozen=True)
class DriverStats:
    """Loop-phase accounting for one :meth:`DynamicDriver.run`.

    ``events`` counts loop iterations; every event is either a
    completion harvest or an arrival batch.  The ``*_s`` timers
    partition the run's wall time by phase.  ``route_s`` times all
    routing: for an oblivious scheme the one routing (and repair) of
    the whole stream before the loop plus each batch's row take inside
    the arrival phase, for a pattern-aware scheme the per-batch routing
    inside the arrival phase — so it is not a subset of ``arrivals_s``.
    ``refill_s`` times the ``next_completion_time()`` call that opens
    every event, where both vectorized engines refill; a refill that a
    kept utilization snapshot forces first counts as snapshot time.
    ``engine`` is the engine's :meth:`telemetry()
    <repro.sim.fluid.FluidSimulator.telemetry>` dict (recomputes,
    fill_rounds, compactions, active_flows_hwm; the incremental engine
    adds partial/full refill counters — see
    :meth:`repro.sim.fluid_inc.IncFluidSimulator.telemetry`).
    ``recomputes`` is ``None`` — not 0 — when the engine exposes no
    such counter: "never refilled" and "not instrumented" are
    different facts.
    """

    events: int
    arrival_batches: int
    completion_events: int
    recomputes: int | None
    wall_time_s: float
    arrivals_s: float
    completions_s: float
    route_s: float
    snapshot_s: float
    refill_s: float
    engine: dict

    def to_dict(self) -> dict:
        return {
            "events": self.events,
            "arrival_batches": self.arrival_batches,
            "completion_events": self.completion_events,
            "recomputes": self.recomputes,
            "wall_time_s": round(self.wall_time_s, 6),
            "arrivals_s": round(self.arrivals_s, 6),
            "completions_s": round(self.completions_s, 6),
            "route_s": round(self.route_s, 6),
            "snapshot_s": round(self.snapshot_s, 6),
            "refill_s": round(self.refill_s, 6),
            "engine": dict(self.engine),
        }


@dataclass(frozen=True)
class DynamicResult:
    """The typed outcome of one dynamic (open-loop) run.

    Flow counts partition the stream: ``num_arrivals = num_self +
    num_rejected + num_completed`` once the run drains (self-pairs never
    enter the network; rejected pairs had no surviving route).
    ``offered_bytes`` counts every byte asked of the *network* (self-
    pairs excluded, rejected included); ``delivered_bytes`` the bytes
    actually drained.
    """

    topology: str
    algorithm: str
    workload: str
    engine: str
    seed: int
    faults: str
    num_arrivals: int
    num_self: int
    num_rejected: int
    num_completed: int
    offered_bytes: float
    delivered_bytes: float
    #: last arrival instant (the open-loop demand horizon)
    horizon: float
    #: simulated instant the last flow drained
    makespan: float
    fct: StatSummary
    slowdown: StatSummary
    util: tuple[UtilSample, ...]
    wall_time_s: float
    #: loop-phase accounting (None only for records deserialized from
    #: pre-observability artifacts)
    stats: DriverStats | None = None

    @property
    def offered_throughput(self) -> float:
        """Offered network bytes per second over the arrival horizon.

        A zero horizon (every arrival at t=0 — a pure burst trace)
        falls back to the makespan: the burst's bytes were offered
        within the run, not at an infinite rate and not at zero.
        """
        span = self.horizon if self.horizon > 0 else self.makespan
        return self.offered_bytes / span if span > 0 else 0.0

    @property
    def delivered_throughput(self) -> float:
        """Delivered bytes per second over the makespan."""
        return self.delivered_bytes / self.makespan if self.makespan > 0 else 0.0

    @property
    def rejected_fraction(self) -> float:
        offered = self.num_rejected + self.num_completed
        return self.num_rejected / offered if offered else 0.0

    def metrics(self) -> dict[str, float]:
        """The lower-is-better metric dict sweep records carry."""
        fct, slow = self.fct, self.slowdown
        return {
            "fct_mean": fct.mean,
            "fct_p50": fct.p50,
            "fct_p99": fct.p99,
            "slowdown_mean": slow.mean,
            "slowdown_p50": slow.p50,
            "slowdown_p99": slow.p99,
            "rejected_fraction": self.rejected_fraction,
            "makespan": self.makespan,
        }

    def to_record(self) -> dict:
        """The JSON form (``repro dynamic`` documents, sweep records)."""
        return {
            "topology": self.topology,
            "algorithm": self.algorithm,
            "workload": self.workload,
            "engine": self.engine,
            "seed": self.seed,
            "faults": self.faults,
            "flows": {
                "arrivals": self.num_arrivals,
                "self": self.num_self,
                "rejected": self.num_rejected,
                "completed": self.num_completed,
            },
            "offered_bytes": self.offered_bytes,
            "delivered_bytes": self.delivered_bytes,
            "horizon": self.horizon,
            "makespan": self.makespan,
            "offered_throughput": self.offered_throughput,
            "delivered_throughput": self.delivered_throughput,
            "fct": self.fct.to_dict(),
            "slowdown": self.slowdown.to_dict(),
            "util": [s.to_dict() for s in self.util],
            "wall_time_s": round(self.wall_time_s, 6),
            **({"driver_stats": self.stats.to_dict()} if self.stats is not None else {}),
        }


def route_stream(algorithm: RoutingAlgorithm, stream: ArrivalStream) -> RouteTable:
    """The routes of a stream's network arrivals (``src != dst``), in stream order.

    One :meth:`~repro.core.base.RoutingAlgorithm.build_table` call over
    the whole stream.  For an oblivious scheme a route depends on the
    pair alone, so these rows equal the scheme's all-pairs rows of the
    same pairs.
    """
    network = stream.src != stream.dst
    return algorithm.build_table(np.stack((stream.src[network], stream.dst[network]), axis=1))


class DynamicDriver:
    """Drives one open-loop arrival stream through a fluid engine.

    Parameters
    ----------
    topo, algorithm:
        The machine and the routing scheme (a live
        :class:`~repro.core.base.RoutingAlgorithm`).
    engine:
        A registered fluid-kind engine name (``fluid`` / ``fluid-vec`` /
        third-party registrations).
    degraded:
        Optional :class:`~repro.faults.DegradedTopology`; routes are
        locally repaired against it and disconnected pairs rejected.
    fct_reservoir / util_capacity:
        Memory bounds of the online metrics layer.
    """

    def __init__(
        self,
        topo,
        algorithm: RoutingAlgorithm,
        engine: str = DEFAULT_ENGINE,
        config: NetworkConfig = PAPER_CONFIG,
        degraded=None,
        repair_seed: int = 0,
        fct_reservoir: int = 8192,
        util_capacity: int = 256,
        sample_seed: int = 0,
    ):
        if algorithm.topo != topo:
            raise ValueError("the algorithm routes a different topology")
        if degraded is not None and degraded.topo != topo:
            raise ValueError("the degraded topology does not match the machine")
        self.topo = topo
        self.algorithm = algorithm
        self.engine = engine
        self.config = config
        self.degraded = degraded
        self.repair_seed = int(repair_seed)
        self.fct_reservoir = int(fct_reservoir)
        self.util_capacity = int(util_capacity)
        self.sample_seed = int(sample_seed)
        self.space = xgft_link_space(topo)
        self._obs_on = _obs_active()
        self._route_s = 0.0
        self._oblivious = is_oblivious(algorithm)
        # per run, for an oblivious scheme: the stream's (repaired)
        # routes and each stream position's row in them (-1: a self-pair
        # or a rejected arrival)
        self._routes: RouteTable | None = None
        self._row_of: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _timed_route(self, fn, batch: int, *args):
        """Run one routing step of ``batch`` arrivals inside ``route_s``
        (and its span)."""
        t0 = time.perf_counter()
        if self._obs_on and TRACER.enabled:
            with TRACER.span("driver.table_lookup", batch=batch):
                out = fn(*args)
        else:
            out = fn(*args)
        self._route_s += time.perf_counter() - t0
        return out

    def _repair(self, table: RouteTable) -> tuple[RouteTable, np.ndarray]:
        """``(surviving routes, kept-mask over table rows)`` on this fabric."""
        if self.degraded is None:
            return table, np.ones(len(table), dtype=bool)
        from ..faults import repair_table

        result = repair_table(table, self.degraded, seed=self.repair_seed)
        return result.table, ~result.disconnected

    def _route_whole_stream(self, stream: ArrivalStream) -> None:
        """Route (and repair) every network arrival of the stream at once."""
        self._routes, kept = self._repair(route_stream(self.algorithm, stream))
        self._row_of = np.full(len(stream), -1, dtype=np.int64)
        network = np.flatnonzero(stream.src != stream.dst)
        self._row_of[network[kept]] = np.arange(len(self._routes), dtype=np.int64)

    def _route_batch(
        self, ids: np.ndarray, src: np.ndarray, dst: np.ndarray
    ) -> tuple[RouteTable, np.ndarray]:
        """Routes of one batch's network arrivals (stream positions ``ids``).

        Returns ``(table, kept-mask)``; the mask is over the batch,
        ``False`` marking a rejected arrival (no surviving route under
        the degradation), and the table rows are the kept arrivals, in
        batch order.
        """
        if self._routes is not None:
            idx = self._row_of[ids]
            kept = idx >= 0
            # take() keeps this path table-representation-agnostic:
            # XGFT port tables and graph path tables subset identically
            return self._routes.take(idx[kept]), kept
        return self._repair(self.algorithm.build_table(np.stack((src, dst), axis=1)))

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def run(
        self,
        stream: ArrivalStream,
        workload: str = "",
        seed: int = 0,
        faults: str | None = None,
    ) -> DynamicResult:
        """Drain one arrival stream and return its :class:`DynamicResult`.

        ``workload``/``seed``/``faults`` are identity labels carried
        into the result record (``faults`` defaults to ``"none"`` or
        ``"degraded"`` from the driver's fault state).
        """
        t0 = time.perf_counter()
        stream.validate_leaves(self.topo.num_leaves)
        sim = make_fluid_simulator(
            self.engine, self.space.num_links, self.config.link_bandwidth
        )
        fct = OnlineStat(self.fct_reservoir, seed=self.sample_seed)
        slow = OnlineStat(self.fct_reservoir, seed=self.sample_seed + 1)
        util = UtilSeries(self.util_capacity, seed=self.sample_seed + 2)
        bandwidth = self.config.link_bandwidth
        capacity = np.full(self.space.num_links, bandwidth)

        num_self = num_rejected = num_completed = 0
        offered_bytes = delivered_bytes = 0.0

        def snapshot() -> UtilSample:
            link_rate = sim.link_rates()
            busy = link_rate > 0
            n_busy = int(busy.sum())
            utilization = link_rate / capacity
            return UtilSample(
                time=sim.now,
                active_flows=sim.active_flows,
                max_util=float(utilization.max()) if n_busy else 0.0,
                mean_busy_util=float(utilization[busy].mean()) if n_busy else 0.0,
                busy_fraction=n_busy / self.space.num_links,
            )

        def record(finished) -> None:
            nonlocal num_completed, delivered_bytes
            for res in finished:
                num_completed += 1
                delivered_bytes += res.size
                duration = res.finish - res.start
                fct.add(duration)
                # unloaded reference: the flow alone runs at full link
                # bandwidth; zero-byte flows finish instantly on both
                # fabrics, so their slowdown is 1.0 by convention
                ideal = res.size / bandwidth
                slow.add(duration / ideal if ideal > 0 else 1.0)

        times = stream.times
        n = len(stream)
        i = 0
        max_events = 4 * n + 64
        perf = time.perf_counter
        # spans only when instrumentation is compiled in AND a trace is
        # being recorded; phase timers always run (two clock reads per
        # event — the engines, not this loop, are the overhead-gated path)
        tracing = self._obs_on and TRACER.enabled
        span = TRACER.span if tracing else None
        events = arrival_batches = completion_events = 0
        completions_s = arrivals_s = snapshot_s = refill_s = 0.0
        self._route_s = 0.0
        self._routes = None
        if self._oblivious:
            self._timed_route(self._route_whole_stream, n, stream)
        for _ in range(max_events):
            t_arr = times[i] if i < n else None
            t_phase = perf()
            nc = sim.next_completion_time()
            refill_s += perf() - t_phase
            if t_arr is None and nc is None:
                break
            events += 1
            t_phase = perf()
            if t_arr is None or (nc is not None and nc <= t_arr):
                completion_events += 1
                with span("driver.completions") if span else _NULL_CM:
                    record(sim.advance_to_next_completion())
                completions_s += perf() - t_phase
            else:
                arrival_batches += 1
                with span("driver.arrivals") if span else _NULL_CM as arr_span:
                    record(sim.advance_to(float(t_arr)))
                    j = int(np.searchsorted(times, t_arr, side="right"))
                    if arr_span is not None:
                        arr_span.set("batch", j - i)
                    instant_base = len(sim.results)
                    batch_self, batch_rejected, batch_bytes = self._inject(sim, stream, i, j)
                    num_self += batch_self
                    num_rejected += batch_rejected
                    offered_bytes += batch_bytes
                    # zero-byte flows complete inside add_flows and never
                    # surface as completion events — harvest them here
                    record(sim.results[instant_base:])
                    i = j
                arrivals_s += perf() - t_phase
            t_phase = perf()
            with span("driver.snapshot") if span else _NULL_CM:
                util.consider(snapshot)
            snapshot_s += perf() - t_phase
        else:  # pragma: no cover - defensive
            raise RuntimeError("dynamic driver exceeded its event budget")

        wall_time_s = time.perf_counter() - t0
        engine_tel = sim.telemetry() if hasattr(sim, "telemetry") else {}
        stats = DriverStats(
            events=events,
            arrival_batches=arrival_batches,
            completion_events=completion_events,
            recomputes=(
                int(sim.recomputes) if hasattr(sim, "recomputes") else None
            ),
            wall_time_s=wall_time_s,
            arrivals_s=arrivals_s,
            completions_s=completions_s,
            route_s=self._route_s,
            snapshot_s=snapshot_s,
            refill_s=refill_s,
            engine=engine_tel,
        )
        if self._obs_on:
            # the cumulative process-wide view of the same numbers
            _metrics.counter("driver.events").inc(events)
            _metrics.counter("driver.arrival_batches").inc(arrival_batches)
            _metrics.counter("driver.completion_events").inc(completion_events)
            if stats.recomputes is not None:
                _metrics.counter("driver.recomputes").inc(stats.recomputes)
            # incremental-engine refill split, when the engine reports it
            for key in ("partial_refills", "full_refills"):
                if key in engine_tel:
                    _metrics.counter(f"driver.{key}").inc(engine_tel[key])
            _metrics.counter("driver.rejected").inc(num_rejected)
            _metrics.counter("driver.completed").inc(num_completed)

        return DynamicResult(
            topology=self.topo.spec(),
            algorithm=getattr(self.algorithm, "name", str(self.algorithm)),
            workload=workload,
            engine=str(self.engine),
            seed=int(seed),
            faults=(
                faults
                if faults is not None
                else ("none" if self.degraded is None else "degraded")
            ),
            num_arrivals=n,
            num_self=num_self,
            num_rejected=num_rejected,
            num_completed=num_completed,
            offered_bytes=offered_bytes,
            delivered_bytes=delivered_bytes,
            horizon=stream.horizon,
            makespan=sim.now,
            fct=fct.summary(),
            slowdown=slow.summary(),
            util=util.samples(),
            wall_time_s=wall_time_s,
            stats=stats,
        )

    def _inject(self, sim, stream: ArrivalStream, i: int, j: int) -> tuple[int, int, float]:
        """Route and add arrivals ``[i, j)`` at the engine's clock.

        Returns ``(num_self, num_rejected, offered_bytes)`` for the
        batch; self-pairs never reach the network, rejected pairs had no
        surviving route under the degradation.
        """
        src = stream.src[i:j]
        dst = stream.dst[i:j]
        sizes = stream.sizes[i:j]
        ids = np.arange(i, j, dtype=np.int64)
        network = src != dst
        n_self = int((~network).sum())
        src, dst, sizes, ids = src[network], dst[network], sizes[network], ids[network]
        offered = float(sizes.sum())
        if not len(ids):
            return n_self, 0, offered
        table, kept = self._timed_route(self._route_batch, len(ids), ids, src, dst)
        n_rejected = int((~kept).sum())
        sizes, ids = sizes[kept], ids[kept]
        if not len(ids):
            return n_self, n_rejected, offered
        coo_flow, coo_link = flow_incidence(table, self.space)
        sim.add_flows(ids, sizes, coo_flow, coo_link)
        return n_self, n_rejected, offered
