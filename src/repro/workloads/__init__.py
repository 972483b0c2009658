"""Open-loop dynamic traffic: workload generators, driver, online metrics.

The paper evaluates its oblivious schemes on static, phase-synchronized
patterns; this package opens the *churn* regime — routes installed once,
traffic arriving forever — that oblivious routing is actually for:

* :data:`WORKLOADS` — the fifth component registry (after algorithms,
  patterns, topologies and metrics): ``poisson(load=0.7)`` memoryless
  arrivals, ``onoff(...)`` bursty sources, ``trace(path=...)`` CSV/JSONL
  replay, with registry-selectable size distributions (:data:`SIZES`);
* :class:`DynamicDriver` — the event-driven merge of an arrival stream
  with engine completions over any registered fluid backend, routing
  the stream's arrivals through :func:`route_stream`;
* :mod:`~repro.workloads.online` — bounded-memory FCT / slowdown /
  throughput / utilization measurement.

See ``docs/workloads.md``.
"""

from .driver import DYNAMIC_METRICS, DriverStats, DynamicDriver, DynamicResult, route_stream
from .generators import (
    DEFAULT_FLOWS,
    WORKLOADS,
    Workload,
    local_pairs,
    register_workload,
    resolve_workload,
    uniform_pairs,
)
from .online import OnlineStat, Reservoir, StatSummary, UtilSample, UtilSeries
from .sizes import DEFAULT_MEAN_SIZE, SIZES, SizeDist, register_size_dist, resolve_size_dist
from .stream import ArrivalStream
from .traceio import read_trace, trace_format, write_trace

__all__ = [
    "ArrivalStream",
    "DEFAULT_FLOWS",
    "DEFAULT_MEAN_SIZE",
    "DYNAMIC_METRICS",
    "DriverStats",
    "DynamicDriver",
    "DynamicResult",
    "OnlineStat",
    "Reservoir",
    "SIZES",
    "SizeDist",
    "StatSummary",
    "UtilSample",
    "UtilSeries",
    "WORKLOADS",
    "Workload",
    "local_pairs",
    "read_trace",
    "register_size_dist",
    "register_workload",
    "resolve_size_dist",
    "resolve_workload",
    "route_stream",
    "trace_format",
    "uniform_pairs",
    "write_trace",
]
