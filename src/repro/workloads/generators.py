"""The open-loop workload registry: Poisson, bursty ON/OFF, trace replay.

The fifth component registry.  A *workload* is an open-loop traffic
generator: it decides when flows arrive, between which leaves and how
many bytes they carry — and nothing downstream (the routes are already
installed; that is what *oblivious* means) gets to push back.  Builders
take ``(num_leaves, **params)`` like pattern builders and every
workload is addressable through the shared spec DSL::

    poisson(load=0.7)
    poisson(load=0.9,sizes=pareto,alpha=1.5,flows=50000)
    onoff(load=0.6,duty=0.25,burst=64)
    trace(path=arrivals.csv)

``load`` is the offered byte rate as a fraction of the machine's total
injection bandwidth (``num_leaves * link_bandwidth``): at ``load=1.0``
the leaves collectively offer exactly the bytes their adapters can
inject.  Whether the *network* sustains that offer depends on the
topology's slimming and the routing scheme — which is precisely what
the load-vs-FCT curves measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ..registry import Registry, format_spec, parse_spec
from ..sim.config import PAPER_CONFIG
from .sizes import SizeDist, resolve_size_dist
from .stream import ArrivalStream
from .traceio import read_trace

__all__ = [
    "DEFAULT_FLOWS",
    "WORKLOADS",
    "Workload",
    "local_pairs",
    "register_workload",
    "resolve_workload",
    "uniform_pairs",
]

#: default stream length when a workload spec does not set ``flows=``
DEFAULT_FLOWS = 20_000

#: the workload registry: name -> builder(``num_leaves, **params``)
WORKLOADS: Registry = Registry("workload")


@dataclass(frozen=True)
class Workload:
    """A named open-loop arrival-stream generator.

    ``generate(seed, num_flows=None)`` materializes a seeded, repeatable
    :class:`ArrivalStream`; ``flows`` is the spec-declared default
    stream length.  ``spec`` is the canonical spec string — the
    workload's run identity in sweep artifacts.  ``seeded`` declares
    seed sensitivity: trace replay sets it ``False`` (the trace *is*
    the stream), which lets the sweep planner collapse inert seed axes
    instead of re-simulating identical cells.
    """

    name: str
    spec: str
    num_leaves: int
    flows: int
    _generate: Callable[[np.random.Generator, int], ArrivalStream] = field(repr=False)
    seeded: bool = True

    def generate(self, seed: int = 0, num_flows: int | None = None) -> ArrivalStream:
        n = self.flows if num_flows is None else int(num_flows)
        if n < 0:
            raise ValueError("num_flows must be non-negative")
        rng = np.random.default_rng(seed)
        stream = self._generate(rng, n)
        stream.validate_leaves(self.num_leaves)
        return stream


def register_workload(name: str, builder=None, *, override: bool = False):
    """Register ``builder(num_leaves, **params) -> Workload``; decorator form."""
    if builder is None:
        return WORKLOADS.register(name, override=override)
    return WORKLOADS.register(name, builder, override=override)


def resolve_workload(workload: str | Workload, num_leaves: int) -> Workload:
    """A live :class:`Workload` from a spec string (or pass one through)."""
    if isinstance(workload, Workload):
        return workload
    name, kwargs = parse_spec(str(workload))
    return WORKLOADS.get(name)(num_leaves, **kwargs)


def uniform_pairs(
    rng: np.random.Generator, num_leaves: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` uniformly random ordered pairs with ``src != dst``."""
    if num_leaves < 2:
        raise ValueError("uniform pairs need at least two leaves")
    src = rng.integers(0, num_leaves, n)
    dst = (src + rng.integers(1, num_leaves, n)) % num_leaves
    return src, dst


def _flow_rate(load: float, num_leaves: int, dist: SizeDist, bandwidth: float) -> float:
    """Aggregate flow arrival rate (flows/s) realizing an offered load."""
    if load <= 0:
        raise ValueError("load must be positive")
    return load * num_leaves * bandwidth / dist.mean


def local_pairs(
    rng: np.random.Generator,
    num_leaves: int,
    n: int,
    locality: float,
    group: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` ordered pairs, locality-biased toward ``group``-sized blocks.

    Each flow independently stays local with probability ``locality``:
    its destination is drawn inside the source's block of ``group``
    consecutive leaves (the sub-tree under one first-level switch when
    ``group`` matches the topology's ``m1``).  Otherwise the pair is
    machine-wide uniform.  ``src != dst`` always.
    """
    if not 0.0 <= locality <= 1.0:
        raise ValueError("locality must be within [0, 1]")
    if group < 2:
        raise ValueError("locality groups need at least two leaves")
    if num_leaves % group:
        raise ValueError(f"group {group} must divide num_leaves {num_leaves}")
    src, dst = uniform_pairs(rng, num_leaves, n)
    local = rng.random(n) < locality
    k = int(local.sum())
    if k:
        base = (src[local] // group) * group
        dst[local] = base + (src[local] - base + rng.integers(1, group, k)) % group
    return src, dst


@register_workload("poisson")
def _poisson(
    num_leaves: int,
    load: float = 0.7,
    sizes: str = "fixed",
    flows: int = DEFAULT_FLOWS,
    bandwidth: float = PAPER_CONFIG.link_bandwidth,
    locality: float = 0.0,
    group: int = 0,
    **size_params,
) -> Workload:
    """Memoryless open-loop traffic: exponential inter-arrivals, uniform pairs.

    The canonical churn workload: ``load`` fixes the aggregate byte
    arrival rate, ``sizes`` (+ flattened distribution parameters, e.g.
    ``sizes=pareto,alpha=1.5``) decides how the bytes clump into flows.
    ``locality``/``group`` bias destination choice toward the source's
    block of ``group`` consecutive leaves (see :func:`local_pairs`) —
    the regime where contention stays confined to sub-trees.
    """
    dist = resolve_size_dist(sizes, **size_params)
    rate = _flow_rate(load, num_leaves, dist, bandwidth)
    # dist.params spells out the distribution's defaults, so equivalent
    # spellings (sizes=pareto vs sizes=pareto,alpha=2.5) share one
    # canonical spec — the run identity
    params = {"load": float(load), "sizes": sizes, "flows": int(flows), **dist.params}
    if bandwidth != PAPER_CONFIG.link_bandwidth:
        # the spec is the workload's run identity: a non-default
        # bandwidth changes the arrival rate and must round-trip
        params["bandwidth"] = float(bandwidth)
    locality = float(locality)
    if not 0.0 <= locality <= 1.0:
        raise ValueError("locality must be within [0, 1]")
    if locality > 0.0:
        # validate eagerly (the builder, not the first generate, should
        # reject a bad group size); spec keys only when the bias is on,
        # so pre-existing canonical specs stay byte-identical
        group = int(group)
        if group < 2:
            raise ValueError("poisson locality needs group >= 2")
        if num_leaves % group:
            raise ValueError(f"group {group} must divide num_leaves {num_leaves}")
        params["locality"] = locality
        params["group"] = group
    spec = format_spec("poisson", params)

    def generate(rng: np.random.Generator, n: int) -> ArrivalStream:
        times = np.cumsum(rng.exponential(1.0 / rate, n))
        if locality > 0.0:
            src, dst = local_pairs(rng, num_leaves, n, locality, group)
        else:
            src, dst = uniform_pairs(rng, num_leaves, n)
        return ArrivalStream(times, src, dst, dist.sample(rng, n))

    return Workload("poisson", spec, num_leaves, int(flows), generate)


@register_workload("onoff")
def _onoff(
    num_leaves: int,
    load: float = 0.7,
    duty: float = 0.25,
    burst: int = 64,
    sizes: str = "fixed",
    flows: int = DEFAULT_FLOWS,
    bandwidth: float = PAPER_CONFIG.link_bandwidth,
    **size_params,
) -> Workload:
    """Bursty ON/OFF traffic at the same *average* load as ``poisson``.

    An aggregate modulated process: exponential ON periods (mean sized
    to emit ``burst`` flows each) during which arrivals are Poisson at
    ``load / duty`` — the peak the network must absorb — separated by
    exponential OFF gaps sized so the ON fraction is ``duty``.  Smaller
    ``duty`` at fixed average load means taller bursts: the queueing
    regime Poisson smoothness hides.
    """
    if not 0 < duty <= 1:
        raise ValueError("duty must be within (0, 1]")
    if burst < 1:
        raise ValueError("burst must be >= 1")
    dist = resolve_size_dist(sizes, **size_params)
    peak_rate = _flow_rate(load / duty, num_leaves, dist, bandwidth)
    mean_on = burst / peak_rate
    mean_off = mean_on * (1.0 - duty) / duty
    params = {
        "load": float(load),
        "duty": float(duty),
        "burst": int(burst),
        "sizes": sizes,
        "flows": int(flows),
        **dist.params,  # defaults spelled out; see the poisson builder
    }
    if bandwidth != PAPER_CONFIG.link_bandwidth:
        # spec = run identity; see the poisson builder
        params["bandwidth"] = float(bandwidth)
    spec = format_spec("onoff", params)

    def generate(rng: np.random.Generator, n: int) -> ArrivalStream:
        times = np.empty(n, dtype=np.float64)
        filled, t = 0, 0.0
        while filled < n:
            on_end = t + rng.exponential(mean_on)
            while filled < n:
                t += rng.exponential(1.0 / peak_rate)
                if t > on_end:
                    t = on_end
                    break
                times[filled] = t
                filled += 1
            t += rng.exponential(mean_off) if mean_off > 0 else 0.0
        src, dst = uniform_pairs(rng, num_leaves, n)
        return ArrivalStream(times, src, dst, dist.sample(rng, n))

    return Workload("onoff", spec, num_leaves, int(flows), generate)


#: parsed traces, one entry per (path, format): a sweep resolves the
#: same workload once per cell (plus once per planner validation), and
#: re-parsing a large trace file every time would dominate the run.
#: The (mtime_ns, size) signature invalidates rewritten files in place
#: — memory stays O(#paths), never one entry per file version.
#: ArrivalStream is frozen, so sharing one instance is safe.
_TRACE_CACHE: dict[tuple[str, str | None], tuple[tuple[int, int], ArrivalStream]] = {}


def _cached_read_trace(path: str, format: str | None) -> ArrivalStream:
    stat = Path(path).stat()
    signature = (stat.st_mtime_ns, stat.st_size)
    key = (str(path), format)
    hit = _TRACE_CACHE.get(key)
    if hit is None or hit[0] != signature:
        hit = _TRACE_CACHE[key] = (signature, read_trace(path, format=format))
    return hit[1]


@register_workload("trace")
def _trace(num_leaves: int, path: str = "", format: str | None = None) -> Workload:
    """Replay a recorded CSV/JSONL arrival trace (:mod:`.traceio`).

    The trace *is* the stream: seeds change nothing, and the default
    flow budget is the file's full length (``generate(num_flows=...)``
    still truncates).  Endpoints are validated against the machine.
    Parsed files are memoized by (path, mtime, size), so resolving the
    same trace across many sweep cells reads it once.
    """
    if not path:
        raise ValueError("the trace workload needs path=<file>")
    stream = _cached_read_trace(path, format)
    stream.validate_leaves(num_leaves)
    # an explicit format= is part of the identity: without it the spec
    # would not re-resolve for files whose suffix sniffing fails
    params = {"path": str(path)}
    if format is not None:
        params["format"] = format
    spec = format_spec("trace", params)

    def generate(rng: np.random.Generator, n: int) -> ArrivalStream:
        return stream.head(n)

    return Workload("trace", spec, num_leaves, len(stream), generate, seeded=False)
