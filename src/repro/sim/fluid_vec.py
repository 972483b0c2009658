"""Vectorized batch max-min fluid engine (full refill per epoch).

:class:`VecFluidSimulator` computes the same max-min fair allocation as
the scalar :class:`repro.sim.fluid.FluidSimulator` — the allocation is
unique, so the two engines are interchangeable up to floating-point
noise (``tests/sim/test_fluid_vec.py`` proves this property-based) —
by running the parallel progressive-filling kernel
(:func:`repro.sim.maxmin.progressive_fill`) over every active flow once
per epoch: all arrivals and completions at one instant share one
refill.  It keeps the active flows' incidence as flat COO entries next
to the link matrix, so the kernel never re-derives them.

Bytes drain eagerly: every clock step subtracts ``rate * dt`` from each
active flow, and all flows reaching zero remaining bytes complete
together, their incidence entries mask-filtered out, so
``run_until_idle`` advances in O(completion events) vectorized steps.
At 10⁴+ concurrent flows this is the difference between seconds and
minutes (measured history in ``docs/performance.md``).

The public surface (:class:`repro.sim.maxmin.BatchFluidEngine`) mirrors
the scalar engine and adds :meth:`add_flows`, a batch injection path
that accepts a ready-made COO incidence so the phase driver
(:func:`repro.sim.network.simulate_phase_fluid`) never materializes
per-flow Python link lists.
"""

from __future__ import annotations

import numpy as np

from ..obs.trace import TRACER
from .fluid import FlowResult, _EPS
from .maxmin import BatchFluidEngine

__all__ = ["VecFluidSimulator"]


class VecFluidSimulator(BatchFluidEngine):
    """Batch max-min fluid simulation over a fixed link set.

    Drop-in replacement for :class:`repro.sim.fluid.FluidSimulator`
    (same constructor, same public methods, same semantics — including
    zero-size flows completing immediately at their start time), backed
    by struct-of-arrays flow state and one full vectorized refill per
    epoch.
    """

    def __init__(self, num_links: int, capacity: float | np.ndarray):
        super().__init__(num_links, capacity)
        self._rates_valid = False
        # COO incidence of the *active* flows, by slot (any order;
        # completions mask entries out)
        self._e_flow = np.empty(0, dtype=np.int64)
        self._e_link = np.empty(0, dtype=np.int64)

    def _added(self, slots, e_f, e_l, counts) -> None:
        self._e_flow = np.concatenate((self._e_flow, slots[e_f]))
        self._e_link = np.concatenate((self._e_link, e_l))
        self._rates_valid = False
        if self._obs_on and self._n_active > self.active_flows_hwm:
            self.active_flows_hwm = self._n_active

    # ------------------------------------------------------------------
    # Max-min rate computation
    # ------------------------------------------------------------------
    def _ensure_rates(self) -> None:
        if self._rates_valid:
            return
        self.recomputes += 1
        self._rates_valid = True
        if self._obs_on and TRACER.enabled:
            with TRACER.span("fluid.fill", flows=self._n_active):
                self._fill_rates()
        else:
            self._fill_rates()

    def _fill_rates(self) -> None:
        slots = np.nonzero(self._act[: self._n])[0]
        if len(slots) == 0:
            return
        # compact flow-id space 0..len(slots)-1 over the active slots
        inv = np.empty(self._n, dtype=np.int64)
        inv[slots] = np.arange(len(slots), dtype=np.int64)
        fill = self._fill(self._lm[slots], self.capacity, (inv[self._e_flow], self._e_link))
        self._rate[slots] = fill.rates

    # ------------------------------------------------------------------
    # Time advancement
    # ------------------------------------------------------------------
    def next_completion_time(self) -> float | None:
        """Absolute time of the earliest flow completion (None if idle)."""
        if self._n_active == 0:
            return None
        self._ensure_rates()
        rem, rate = self._rem[: self._n], self._rate[: self._n]
        moving = self._act[: self._n] & (rate > _EPS)
        if not moving.any():  # pragma: no cover - all rates zero
            raise RuntimeError("active flows but no positive rates; check capacities")
        return self.now + float((rem[moving] / rate[moving]).min())

    def _drain_to(self, t: float, at: float) -> list[FlowResult]:
        n = self._n
        act, rem = self._act[:n], self._rem[:n]
        rem[act] -= self._rate[:n][act] * (t - self.now)
        self.now = t
        done = act & (rem <= _EPS * self._size[:n] + _EPS)
        if not done.any():
            return []
        _, results = self._retire(np.nonzero(done)[0], at)
        keep = ~done[self._e_flow]
        self._e_flow = self._e_flow[keep]
        self._e_link = self._e_link[keep]
        self._rates_valid = False
        return results
