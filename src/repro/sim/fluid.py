"""Max-min fair fluid network model (progressive filling).

The fast network engine used for the full-scale figure sweeps.  Flows are
fluid streams over capacitated directed links; at every instant each flow
receives its *max-min fair* rate (computed by the classic progressive-
filling / water-filling algorithm), and the simulation advances from
completion to completion.

Why this is a faithful substitute for the flit-level engine at the
paper's operating point: messages are large (hundreds of segments), the
adapters interleave segments round-robin, and switches arbitrate
round-robin per output port — in steady state this realizes a
bandwidth-fair share on every contended link, which is exactly the
max-min allocation.  ``tests/sim/test_cross_validation.py`` quantifies
the agreement between the two engines on small configurations.

The model deliberately ignores propagation latency (bandwidth dominates
at 750 KB messages; the flit-level engine models latency).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..obs import active as _obs_active
from ..obs.trace import TRACER

__all__ = ["FluidSimulator", "FlowResult"]

_EPS = 1e-9


@dataclass
class FlowResult:
    """Outcome of one simulated flow."""

    flow_id: int
    start: float
    finish: float
    size: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


class _ActiveFlow:
    __slots__ = ("flow_id", "links", "remaining", "rate", "start", "size")

    def __init__(self, flow_id: int, links: tuple[int, ...], size: float, start: float):
        self.flow_id = flow_id
        self.links = links
        self.remaining = float(size)
        self.size = float(size)
        self.rate = 0.0
        self.start = start


class FluidSimulator:
    """An incremental max-min fluid simulation over a fixed link set.

    Parameters
    ----------
    num_links:
        Size of the directed-link index space.
    capacity:
        Scalar (uniform) or per-link array of capacities in bytes/second.

    Usage: :meth:`add_flow` at the current time, then either
    :meth:`run_until_idle` (batch) or repeated
    :meth:`advance_to_next_completion` (interactive).  It is the test
    oracle of the vectorized engines and of the replay run on them.
    """

    def __init__(self, num_links: int, capacity: float | np.ndarray):
        if num_links <= 0:
            raise ValueError("need at least one link")
        cap = np.asarray(capacity, dtype=np.float64)
        if cap.ndim == 0:
            cap = np.full(num_links, float(cap))
        if cap.shape != (num_links,):
            raise ValueError(f"capacity must be scalar or shape ({num_links},)")
        if not np.isfinite(cap).all():
            raise ValueError("capacities must be finite")
        if (cap <= 0).any():
            raise ValueError("capacities must be positive")
        self.capacity = cap
        self.num_links = num_links
        self.now = 0.0
        self._flows: dict[int, _ActiveFlow] = {}
        self._rates_valid = False
        self._results: list[FlowResult] = []
        #: number of max-min recomputations (diagnostics / benchmarks)
        self.recomputes = 0
        # telemetry (see telemetry()); _obs_on is captured at
        # construction so the overhead gate can A/B with obs.deactivated()
        self._obs_on = _obs_active()
        self.fill_rounds = 0
        self.compactions = 0
        self.active_flows_hwm = 0

    # ------------------------------------------------------------------
    # Flow management
    # ------------------------------------------------------------------
    def add_flow(self, flow_id: int, links: Sequence[int], size: float) -> None:
        """Inject a flow at the current time.

        Zero-size flows carry no bytes: they complete immediately at the
        current time (their :class:`FlowResult` has ``start == finish``)
        without ever joining the active set.
        """
        self._admit(flow_id, self._checked(flow_id, links, size), size)

    def _checked(self, flow_id: int, links: Sequence[int], size: float) -> tuple[int, ...]:
        """Validate one flow; its links with repeats collapsed."""
        if flow_id in self._flows:
            raise ValueError(f"flow id {flow_id} already active")
        # a repeated link would double-count the flow against that
        # link's capacity; routes never produce one, so collapse them
        links = tuple(dict.fromkeys(int(l) for l in links))
        if not links:
            raise ValueError("a flow must traverse at least one link")
        for l in links:
            if not 0 <= l < self.num_links:
                raise ValueError(f"link {l} out of range")
        if not math.isfinite(size):
            raise ValueError(f"flow size must be finite, got {size}")
        if size < 0:
            raise ValueError("flow size must be non-negative")
        return links

    def _admit(self, flow_id: int, links: tuple[int, ...], size: float) -> None:
        if size == 0:
            self._results.append(FlowResult(flow_id, self.now, self.now, 0.0))
            return
        self._flows[flow_id] = _ActiveFlow(flow_id, links, size, self.now)
        self._rates_valid = False
        if self._obs_on and len(self._flows) > self.active_flows_hwm:
            self.active_flows_hwm = len(self._flows)

    def add_flows(
        self,
        flow_ids: Sequence[int] | np.ndarray,
        sizes: Sequence[float] | np.ndarray,
        coo_flow: np.ndarray,
        coo_link: np.ndarray,
    ) -> None:
        """Batch :meth:`add_flow` from a COO incidence.

        Same contract as :meth:`VecFluidSimulator.add_flows
        <repro.sim.fluid_vec.VecFluidSimulator.add_flows>`: ``coo_flow``
        indexes into ``flow_ids`` and ``coo_link`` lists the traversed
        links.  The scalar engine unpacks the batch, checks every flow
        (ids unique within the batch too), then admits them: a rejected
        batch admits nothing.
        """
        if len(sizes) != len(flow_ids):
            raise ValueError("flow_ids and sizes must be parallel 1-d arrays")
        coo_flow = np.asarray(coo_flow, dtype=np.int64)
        coo_link = np.asarray(coo_link, dtype=np.int64)
        if len(coo_flow) and (coo_flow.min() < 0 or coo_flow.max() >= len(flow_ids)):
            raise ValueError("coo_flow indexes outside the batch")
        per_flow: list[list[int]] = [[] for _ in range(len(flow_ids))]
        for f, l in zip(coo_flow.tolist(), coo_link.tolist()):
            per_flow[f].append(l)
        batch = []
        for fid, size, links in zip(flow_ids, sizes, per_flow):
            fid, size = int(fid), float(size)
            batch.append((fid, self._checked(fid, links, size), size))
        if len({fid for fid, _, _ in batch}) != len(batch):
            raise ValueError("duplicate flow ids within the batch")
        for fid, links, size in batch:
            self._admit(fid, links, size)

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    @property
    def results(self) -> list[FlowResult]:
        """Completed flows, in completion order."""
        return self._results

    # ------------------------------------------------------------------
    # Max-min rate computation (progressive filling)
    # ------------------------------------------------------------------
    def _recompute_rates(self) -> None:
        self.recomputes += 1
        if self._obs_on and TRACER.enabled:
            with TRACER.span("fluid.fill", flows=len(self._flows)):
                self._fill_rates()
        else:
            self._fill_rates()

    def _fill_rates(self) -> None:
        flows = self._flows
        rounds = 0
        remaining = self.capacity.copy()
        link_users: dict[int, set[int]] = {}
        for fid, fl in flows.items():
            for l in fl.links:
                link_users.setdefault(l, set()).add(fid)
        unfrozen = set(flows)
        while unfrozen:
            # bottleneck link: minimal fair share among links with users
            best_share = math.inf
            best_link = -1
            for l, users in link_users.items():
                if not users:
                    continue
                share = remaining[l] / len(users)
                if share < best_share - _EPS or (
                    share < best_share + _EPS and l < best_link
                ):
                    best_share = share
                    best_link = l
            if best_link < 0:  # pragma: no cover - defensive
                break
            rounds += 1
            best_share = max(best_share, 0.0)
            for fid in list(link_users[best_link]):
                fl = flows[fid]
                fl.rate = best_share
                unfrozen.discard(fid)
                for l in fl.links:
                    link_users[l].discard(fid)
                    remaining[l] -= best_share
            remaining = np.maximum(remaining, 0.0)
        if self._obs_on:
            self.fill_rounds += rounds
        self._rates_valid = True

    def telemetry(self) -> dict:
        """Per-engine fill telemetry (all counters monotone).

        ``compactions`` is always 0 for the scalar engine (only the
        vectorized engine compacts its working set); the key is kept so
        both engines report the same shape.
        """
        return {
            "recomputes": self.recomputes,
            "fill_rounds": self.fill_rounds,
            "compactions": self.compactions,
            "active_flows_hwm": self.active_flows_hwm,
        }

    def rates(self) -> dict[int, float]:
        """Current max-min rates of the active flows (bytes/second)."""
        if not self._rates_valid:
            self._recompute_rates()
        return {fid: fl.rate for fid, fl in self._flows.items()}

    def link_rates(self) -> np.ndarray:
        """Current load of every link: the sum of its active users' rates."""
        if not self._rates_valid:
            self._recompute_rates()
        load = np.zeros(self.num_links, dtype=np.float64)
        for fl in self._flows.values():
            load[list(fl.links)] += fl.rate
        return load

    # ------------------------------------------------------------------
    # Time advancement
    # ------------------------------------------------------------------
    def next_completion_time(self) -> float | None:
        """Absolute time of the earliest flow completion (None if idle)."""
        if not self._flows:
            return None
        if not self._rates_valid:
            self._recompute_rates()
        best = math.inf
        for fl in self._flows.values():
            if fl.rate > _EPS:
                best = min(best, self.now + fl.remaining / fl.rate)
        if best is math.inf:  # pragma: no cover - all rates zero
            raise RuntimeError("active flows but no positive rates; check capacities")
        return best

    def advance_to(self, t: float) -> list[FlowResult]:
        """Advance the clock to ``t`` (< next completion), draining bytes."""
        if t < self.now - _EPS:
            raise ValueError(f"cannot rewind time: {t} < {self.now}")
        if t <= self.now:
            # same-instant advance: a no-op, and deliberately *before*
            # the next-completion query so a completion group and an
            # arrival batch landing at one timestamp stay in the same
            # refill epoch (one recompute serves both)
            return []
        nc = self.next_completion_time()
        if nc is not None and t > nc + _EPS:
            raise ValueError(
                f"advance_to({t}) would skip a completion at {nc}; "
                "call advance_to_next_completion first"
            )
        dt = t - self.now
        finished = []
        if dt > 0:
            for fl in self._flows.values():
                fl.remaining -= fl.rate * dt
            self.now = t
            # a t landing in (nc, nc + _EPS] is accepted above, but any
            # flow draining dry in this step completed at nc, not t —
            # stamp the true instant, or dense arrival streams (which
            # advance in sub-_EPS hops) systematically inflate FCTs
            finished = self._collect_finished(
                at=nc if nc is not None and t > nc else None
            )
        return finished

    def _collect_finished(self, at: float | None = None) -> list[FlowResult]:
        finish = self.now if at is None else at
        done = [fid for fid, fl in self._flows.items() if fl.remaining <= _EPS * fl.size + _EPS]
        results = []
        for fid in sorted(done):
            fl = self._flows.pop(fid)
            res = FlowResult(fid, fl.start, finish, fl.size)
            results.append(res)
            self._results.append(res)
        if done:
            self._rates_valid = False
        return results

    def advance_to_next_completion(self) -> list[FlowResult]:
        """Jump to the earliest completion; returns the finished flows."""
        t = self.next_completion_time()
        if t is None:
            return []
        dt = t - self.now
        for fl in self._flows.values():
            fl.remaining -= fl.rate * dt
        self.now = t
        return self._collect_finished()

    def run_until_idle(self, max_steps: int | None = None) -> float:
        """Drain all active flows; returns the final time."""
        steps = 0
        while self._flows:
            if max_steps is not None and steps >= max_steps:
                raise RuntimeError("fluid simulation exceeded its step budget")
            finished = self.advance_to_next_completion()
            if not finished:  # pragma: no cover - defensive
                raise RuntimeError("no progress in fluid simulation")
            steps += 1
        return self.now
