"""The metrics registry: counters, gauges, histograms + exposition.

One process-wide :class:`MetricsRegistry` (:data:`REGISTRY`) holds
every metric in the package; the pre-existing ad-hoc stats dicts
(``RouteServer.stats()``, ``DriverStats``) are now *views* over
instruments registered here, so
the same numbers are available both in their historical dict shapes
and through :meth:`MetricsRegistry.snapshot` /
:meth:`MetricsRegistry.prometheus`.

Instruments:

* :class:`Counter` — monotone float/int accumulator (``inc``);
* :class:`Gauge` — a settable level (``set``/``inc``/``dec``);
* :class:`Histogram` — exact count/sum/mean/min/max plus quantiles
  estimated from a seeded :class:`repro.workloads.online.Reservoir`
  sample, so memory stays bounded by the reservoir capacity however
  many observations arrive.

Names follow the dotted span convention (``serve.latency.lookup``);
the Prometheus exposition rewrites dots to underscores and renders
labels, counters as ``TYPE counter``, gauges as ``gauge``, and
histograms as summaries (quantile series + ``_sum``/``_count``).

All instruments are thread-safe (one lock per instrument), cheap
enough to update unconditionally, and registered lazily:
``REGISTRY.counter("x")`` returns the existing instrument when the
name/labels pair is already known.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
]

_DEFAULT_QUANTILES = (0.5, 0.9, 0.99)


def _label_key(labels: Mapping[str, str] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared name/labels/lock plumbing for all instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, labels: Mapping[str, str] | None = None):
        if not name:
            raise ValueError("metric name must be non-empty")
        self.name = name
        self.labels = dict(_label_key(labels))
        self._lock = threading.Lock()

    def _identity(self) -> tuple[str, tuple[tuple[str, str], ...]]:
        return (self.name, _label_key(self.labels))


class Counter(_Instrument):
    """A monotone accumulator; negative increments are rejected."""

    kind = "counter"

    def __init__(self, name: str, labels: Mapping[str, str] | None = None):
        super().__init__(name, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        value = self.value
        return {"value": int(value) if value.is_integer() else value}


class Gauge(_Instrument):
    """A settable level, e.g. active flows or open connections."""

    kind = "gauge"

    def __init__(self, name: str, labels: Mapping[str, str] | None = None):
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        value = self.value
        return {"value": int(value) if value.is_integer() else value}


class Histogram(_Instrument):
    """Exact count/sum/min/max + reservoir-sampled quantiles.

    The reservoir (Algorithm R, seeded — quantiles are repeatable for
    a given observation order) bounds memory at ``capacity`` samples
    regardless of how many values are observed.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        *,
        capacity: int = 2048,
        seed: int = 0,
        quantiles: Iterable[float] = _DEFAULT_QUANTILES,
    ):
        super().__init__(name, labels)
        # Imported lazily: repro.workloads pulls in the driver → engines →
        # obs.trace chain, which would cycle back into this module at
        # package-import time if hoisted to the top level.
        from ..workloads.online import Reservoir

        self.quantiles = tuple(float(q) for q in quantiles)
        self._reservoir = Reservoir(capacity, seed=seed)
        self.count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            self._reservoir.offer(value)

    def snapshot(self) -> dict:
        import numpy as np

        with self._lock:
            count = self.count
            total = self._sum
            lo, hi = self._min, self._max
            sampled = self._reservoir.values()
        if not count:
            out = {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0}
            out.update({_q_label(q): 0.0 for q in self.quantiles})
            return out
        arr = np.asarray(sampled, dtype=np.float64)
        qs = np.quantile(arr, self.quantiles) if len(arr) else [0.0] * len(self.quantiles)
        out = {
            "count": count,
            "sum": round(total, 9),
            "mean": round(total / count, 9),
            "min": round(lo, 9),
            "max": round(hi, 9),
        }
        out.update({_q_label(q): round(float(v), 9) for q, v in zip(self.quantiles, qs)})
        return out


def _q_label(q: float) -> str:
    return "p" + f"{q * 100:g}".replace(".", "_")


class MetricsRegistry:
    """A named collection of instruments with deterministic exports."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], _Instrument] = {}

    def _get_or_make(self, cls, name: str, labels, **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}, "
                        f"not {cls.kind}"
                    )
                return existing
            instrument = cls(name, labels, **kwargs)
            self._metrics[key] = instrument
            return instrument

    def counter(self, name: str, labels: Mapping[str, str] | None = None) -> Counter:
        return self._get_or_make(Counter, name, labels)

    def gauge(self, name: str, labels: Mapping[str, str] | None = None) -> Gauge:
        return self._get_or_make(Gauge, name, labels)

    def histogram(
        self, name: str, labels: Mapping[str, str] | None = None, **kwargs
    ) -> Histogram:
        return self._get_or_make(Histogram, name, labels, **kwargs)

    def instruments(self) -> list[_Instrument]:
        with self._lock:
            return [self._metrics[key] for key in sorted(self._metrics)]

    def clear(self) -> None:
        """Forget all instruments (tests and fresh server processes)."""
        with self._lock:
            self._metrics = {}

    def snapshot(self, prefix: str = "") -> dict:
        """All instruments as a deterministic (sorted) nested dict.

        ``prefix`` filters by metric-name prefix (``"serve."`` selects
        the server family).  Labelled instruments get a
        ``name{k=v,...}`` key so different label sets stay distinct.
        """
        out: dict[str, dict] = {}
        for instrument in self.instruments():
            if prefix and not instrument.name.startswith(prefix):
                continue
            key = instrument.name
            if instrument.labels:
                rendered = ",".join(f"{k}={v}" for k, v in sorted(instrument.labels.items()))
                key = f"{instrument.name}{{{rendered}}}"
            out[key] = {"kind": instrument.kind, **instrument.snapshot()}
        return out

    def prometheus(self, prefix: str = "") -> str:
        """Prometheus text exposition (dots become underscores)."""
        lines: list[str] = []
        seen_headers: set[str] = set()
        for instrument in self.instruments():
            if prefix and not instrument.name.startswith(prefix):
                continue
            flat = instrument.name.replace(".", "_").replace("-", "_")
            if flat not in seen_headers:
                seen_headers.add(flat)
                kind = "summary" if instrument.kind == "histogram" else instrument.kind
                lines.append(f"# TYPE {flat} {kind}")
            base_labels = dict(instrument.labels)
            if instrument.kind == "histogram":
                snap = instrument.snapshot()
                for q in instrument.quantiles:
                    labels = _render_labels({**base_labels, "quantile": f"{q:g}"})
                    lines.append(f"{flat}{labels} {_fmt(snap[_q_label(q)])}")
                labels = _render_labels(base_labels)
                lines.append(f"{flat}_sum{labels} {_fmt(snap['sum'])}")
                lines.append(f"{flat}_count{labels} {snap['count']}")
            else:
                labels = _render_labels(base_labels)
                lines.append(f"{flat}{labels} {_fmt(instrument.value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return f"{{{inner}}}"


def _fmt(value: float) -> str:
    value = float(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


#: the process-wide registry every subsystem hangs its instruments on
REGISTRY = MetricsRegistry()


def counter(name: str, labels: Mapping[str, str] | None = None) -> Counter:
    """``REGISTRY.counter`` shorthand."""
    return REGISTRY.counter(name, labels)


def gauge(name: str, labels: Mapping[str, str] | None = None) -> Gauge:
    """``REGISTRY.gauge`` shorthand."""
    return REGISTRY.gauge(name, labels)


def histogram(name: str, labels: Mapping[str, str] | None = None, **kwargs) -> Histogram:
    """``REGISTRY.histogram`` shorthand."""
    return REGISTRY.histogram(name, labels, **kwargs)
