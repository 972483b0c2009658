"""repro.obs — tracing, metrics, and logging for the whole package.

Three cooperating pieces, all stdlib+numpy only:

* :mod:`repro.obs.trace` — hierarchical span tracing with JSONL and
  Chrome/Perfetto exporters (:data:`TRACER`, :func:`span`);
* :mod:`repro.obs.metrics` — counters/gauges/histograms with snapshot
  and Prometheus-text exposition (:data:`REGISTRY`);
* :mod:`repro.obs.logs` — per-module stdlib loggers configured once
  via ``repro --log-level`` / ``REPRO_LOG``.

``repro.obs.profile`` (the ``repro profile`` machinery, top-spans
tables and the overhead gate) is *not* imported eagerly — it pulls in
the experiments layer and is only needed by the CLI.

The module-level activity switch
--------------------------------
:func:`active` / :func:`deactivated` exist for the CI overhead gate:
engines capture ``obs.active()`` at construction and skip *all*
telemetry work (even the disabled-tracer attribute check and counter
arithmetic) when it is ``False``.  Comparing a sweep under
``deactivated()`` against the default (instrumented but not tracing)
measures the true cost of carrying the instrumentation, which CI
asserts stays ≤ 2% (``repro profile --overhead-check``).
"""

from __future__ import annotations

from contextlib import contextmanager

from .logs import LOG_ENV, configure_logging, get_logger
from .metrics import REGISTRY, Counter, Gauge, Histogram, MetricsRegistry
from .trace import (
    SLOW_SPAN_ENV,
    TRACE_ENV,
    TRACER,
    SpanRecord,
    Tracer,
    aggregate_spans,
    merge_span_aggregates,
    read_jsonl,
    span,
    trace_file_pair,
    trace_prefix_from_env,
    validate_jsonl,
    validate_perfetto,
    write_jsonl,
    write_perfetto,
    write_trace_files,
)

__all__ = [
    "LOG_ENV",
    "REGISTRY",
    "SLOW_SPAN_ENV",
    "TRACE_ENV",
    "TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanRecord",
    "Tracer",
    "active",
    "aggregate_spans",
    "configure_logging",
    "deactivated",
    "get_logger",
    "merge_span_aggregates",
    "read_jsonl",
    "span",
    "trace_file_pair",
    "trace_prefix_from_env",
    "validate_jsonl",
    "validate_perfetto",
    "write_jsonl",
    "write_perfetto",
    "write_trace_files",
]

_ACTIVE = True


def active() -> bool:
    """Whether instrumentation hooks should be compiled in at all.

    ``True`` in normal operation; engines and the driver capture this
    at construction, so flipping it only affects objects built inside
    a :func:`deactivated` block (that is the point — A/B overhead
    measurement, not a runtime kill switch).
    """
    return _ACTIVE


@contextmanager
def deactivated():
    """Build objects with instrumentation fully compiled out.

    Used by the overhead gate as the baseline arm; not meant for
    production use (the default, instrumentation-on-but-tracing-off
    path is already near-zero-cost).
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = False
    try:
        yield
    finally:
        _ACTIVE = previous
