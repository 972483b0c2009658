"""The max-min filling kernel and the vectorized engines' shared surface.

:func:`progressive_fill` is the one parallel progressive-filling loop
behind both vectorized fluid engines:
:class:`repro.sim.fluid_vec.VecFluidSimulator` runs it over every
active flow once per epoch, and
:class:`repro.sim.fluid_inc.IncFluidSimulator` over a bottleneck
component against residual capacities.  The scalar
:class:`repro.sim.fluid.FluidSimulator` keeps its own textbook loop as
the test oracle.

The kernel reads the flow↔link incidence twice: as a dense ``(flows,
W)`` *link matrix* (W = the longest path, ``2h + 2`` links on an XGFT —
tree hops plus the two adapter links — rows padded with the virtual
link ``num_links``, so every per-flow reduction is a SIMD row operation
instead of a ragged segment reduction) and as flat COO entries.
Filling runs in *parallel rounds*: instead of freezing one bottleneck
level per round (which degenerates to one link at a time at cluster
scale), every round freezes every **locally minimal** link — a link
freezes at its current fair share iff no unfrozen user of it has a
strictly smaller share on another link.  This is exact because shares
never decrease during progressive filling: removing users at or below
a link's fair share cannot lower it, so a locally minimal link's user
set is stable until it saturates, and sequential filling would freeze
the same flows at the same level.  Rounds therefore track the
*dependency depth* of the bottleneck structure (tens) rather than the
number of distinct water levels (thousands).  Frozen rows are compacted
away once they are half the working set, so per-round cost follows the
shrinking unfrozen set and total compaction cost stays O(nnz).

:class:`BatchFluidEngine` is what the two engines share around the
kernel: the capacity check, append-only struct-of-arrays flow slots
with their link-matrix rows, batch ingest (``add_flows`` validation,
duplicate-link collapse, zero-size completion), ``rates`` and
``link_rates``, the ``advance_to`` guards and ``run_until_idle``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ..obs import active as _obs_active
from .fluid import FlowResult, _EPS

__all__ = ["BatchFluidEngine", "Fill", "progressive_fill"]


class Fill(NamedTuple):
    """One progressive filling: rates by link-matrix row, the COO
    incidence it ran on, and its work counters."""

    rates: np.ndarray
    e_f: np.ndarray
    e_l: np.ndarray
    rounds: int
    compactions: int


def progressive_fill(
    lm: np.ndarray,
    capacity: np.ndarray,
    coo: tuple[np.ndarray, np.ndarray] | None = None,
) -> Fill:
    """Max-min fair rates of the flows whose links are the rows of ``lm``.

    ``lm`` is the ``(F, W)`` link matrix, padded with ``len(capacity)``;
    ``capacity`` the per-link capacity (full or residual; not modified).
    ``coo = (e_f, e_l)`` lists the same incidence as (row, link) entries
    in any order; it is derived from ``lm`` when omitted.
    """
    n = len(lm)
    num_links = len(capacity)
    inf = np.inf
    width = lm.shape[1]
    if coo is None:
        flat = lm.ravel()
        real = flat < num_links
        e_f = np.repeat(np.arange(n, dtype=np.int64), width)[real]
        e_l = flat[real]
    else:
        e_f, e_l = coo
    coo_f, coo_l = e_f, e_l

    counts = np.bincount(e_l, minlength=num_links).astype(np.float64)
    remaining_cap = np.array(capacity, dtype=np.float64)
    # shares_ext[num_links] is the pad link: share inf, never frozen
    shares_ext = np.full(num_links + 1, inf, dtype=np.float64)
    shares = shares_ext[:num_links]
    np.divide(remaining_cap, counts, out=shares, where=counts > 0.0)

    rate_c = np.zeros(n, dtype=np.float64)  # final rates, by original row
    mbuf = np.empty(n, dtype=np.float64)  # per-flow bottleneck, by original row
    unfrozen_full = np.ones(n, dtype=bool)  # by original row
    orig = np.arange(n, dtype=np.int64)  # current row -> original row
    unfrozen = np.ones(n, dtype=bool)  # by current row
    blocked = np.empty(num_links + 1, dtype=bool)
    n_unfrozen = n
    last_compact = n
    rounds = compactions = 0
    while n_unfrozen:
        # per-flow bottleneck: the minimal share over the flow's links
        m = shares_ext[lm].min(axis=1)
        m[~unfrozen] = inf
        mbuf[orig] = m
        # a link freezes at its current share iff no unfrozen user has
        # a strictly smaller bottleneck elsewhere — exact, because
        # shares never decrease during progressive filling, so every
        # other link of its users saturates at a level no lower than
        # this one's.  Frozen flows carry an inf bottleneck and never
        # block.
        blocker = mbuf[e_f] < shares[e_l] - _EPS
        blocked[:] = False
        blocked[num_links] = True  # the pad link never freezes a flow
        blocked[e_l[blocker]] = True
        # a flow freezes (at its bottleneck share) once any real link
        # of its path is unblocked
        hit = ~blocked[lm].all(axis=1)
        hit &= unfrozen
        if not hit.any():  # pragma: no cover - defensive
            break
        rounds += 1
        np.maximum(m, 0.0, out=m)
        frozen_now = orig[hit]
        rate_c[frozen_now] = m[hit]
        unfrozen_full[frozen_now] = False
        unfrozen &= ~hit
        n_unfrozen -= int(hit.sum())
        # release the frozen flows' bandwidth from every link they use
        flat = lm[hit].ravel()
        weights = np.repeat(m[hit], width)
        real = flat < num_links
        flat = flat[real]
        counts -= np.bincount(flat, minlength=num_links)
        remaining_cap -= np.bincount(flat, weights=weights[real], minlength=num_links)
        np.maximum(remaining_cap, 0.0, out=remaining_cap)
        shares[:] = inf
        np.divide(remaining_cap, counts, out=shares, where=counts > 0.0)
        # drop frozen rows and entries once they are half the working
        # set: per-round cost then tracks the shrinking unfrozen set
        # and total compaction cost stays O(nnz)
        if n_unfrozen and n_unfrozen <= last_compact // 2:
            keep = unfrozen_full[e_f]
            e_f, e_l = e_f[keep], e_l[keep]
            lm = lm[unfrozen]
            orig = orig[unfrozen]
            unfrozen = np.ones(n_unfrozen, dtype=bool)
            last_compact = n_unfrozen
            compactions += 1
    return Fill(rate_c, coo_f, coo_l, rounds, compactions)


class BatchFluidEngine:
    """Flow slots, batch ingest and clock guards of the vectorized engines.

    Flows live in append-only slots (amortized doubling; completed slots
    are never reused) of parallel arrays, plus one link-matrix row per
    slot.  A subclass supplies the rate and clock machinery:

    * ``_added(slots, e_f, e_l, counts)`` — bookkeeping for a freshly
      ingested batch (``e_f`` indexes into ``slots``, entries are
      flow-sorted, ``counts`` are links per flow);
    * ``_ensure_rates()`` — make ``_rate`` current for the active slots;
    * ``next_completion_time()``;
    * ``_drain_to(t, at)`` — move the clock to ``t`` and complete every
      flow drained dry, stamped ``at``.
    """

    #: per-slot arrays, grown together
    _SLOTS: dict[str, type] = {
        "_fid": np.int64,
        "_size": np.float64,
        "_start": np.float64,
        "_rem": np.float64,  # remaining bytes (the lazy engine: as of _sync)
        "_rate": np.float64,
        "_act": bool,
    }

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
        self._results: list[FlowResult] = []
        # captured at construction so the overhead gate can A/B with
        # obs.deactivated()
        self._obs_on = _obs_active()
        # telemetry (see telemetry())
        self.recomputes = 0
        self.fill_rounds = 0
        self.compactions = 0
        self.active_flows_hwm = 0

        self._n = 0
        self._n_active = 0
        self._id_to_slot: dict[int, int] = {}
        for name, dtype in self._SLOTS.items():
            setattr(self, name, np.zeros(0, dtype=dtype))
        self._lm = np.full((0, 1), num_links, dtype=np.int64)

    # ------------------------------------------------------------------
    # Flow management
    # ------------------------------------------------------------------
    def add_flow(self, flow_id: int, links: Sequence[int], size: float) -> None:
        """Inject a single flow at the current time (scalar-compatible)."""
        link_arr = np.asarray([int(l) for l in links], dtype=np.int64)
        self.add_flows(
            np.asarray([int(flow_id)], dtype=np.int64),
            np.asarray([float(size)], dtype=np.float64),
            np.zeros(len(link_arr), dtype=np.int64),
            link_arr,
        )

    def add_flows(
        self,
        flow_ids: np.ndarray | Sequence[int],
        sizes: np.ndarray | Sequence[float],
        coo_flow: np.ndarray,
        coo_link: np.ndarray,
    ) -> None:
        """Inject a batch of flows at the current time.

        ``coo_flow[k]`` indexes into ``flow_ids`` (0-based within this
        batch) and ``coo_link[k]`` is the directed link that flow
        traverses; entries may arrive in any order.  Zero-size flows
        complete immediately at the current time; negative or
        non-finite sizes raise.
        """
        flow_ids = np.asarray(flow_ids, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.float64)
        coo_flow = np.asarray(coo_flow, dtype=np.int64)
        coo_link = np.asarray(coo_link, dtype=np.int64)
        if flow_ids.ndim != 1 or sizes.shape != flow_ids.shape:
            raise ValueError("flow_ids and sizes must be parallel 1-d arrays")
        if coo_flow.shape != coo_link.shape:
            raise ValueError("coo_flow and coo_link must be parallel 1-d arrays")
        if len(flow_ids) == 0:
            return
        if not np.isfinite(sizes).all():
            raise ValueError(f"flow size must be finite, got {sizes[~np.isfinite(sizes)][0]}")
        if (sizes < 0).any():
            raise ValueError("flow size must be non-negative")
        if len(np.unique(flow_ids)) != len(flow_ids):
            raise ValueError("duplicate flow ids within the batch")
        for fid in flow_ids.tolist():
            if fid in self._id_to_slot:
                raise ValueError(f"flow id {fid} already active")
        nl = self.num_links
        if len(coo_link) and (coo_link.min() < 0 or coo_link.max() >= nl):
            bad = coo_link[(coo_link < 0) | (coo_link >= nl)][0]
            raise ValueError(f"link {int(bad)} out of range")
        if len(coo_flow) and (coo_flow.min() < 0 or coo_flow.max() >= len(flow_ids)):
            raise ValueError("coo_flow indexes outside the batch")
        # zero-*size* flows complete instantly, but every flow still
        # needs a route; zero-*link* flows are a caller bug either way
        if (np.bincount(coo_flow, minlength=len(flow_ids)) == 0).any():
            raise ValueError("a flow must traverse at least one link")
        # a repeated (flow, link) entry would double-count the flow
        # against that link's capacity (the scalar engine collapses
        # repeats too); np.unique also leaves the entries flow-sorted
        key = np.unique(coo_flow * np.int64(nl) + coo_link)
        coo_flow, coo_link = key // nl, key % nl

        instant = sizes == 0.0
        for fid in flow_ids[instant].tolist():
            self._results.append(FlowResult(int(fid), self.now, self.now, 0.0))
        if instant.all():
            return
        keep = ~instant
        entry_keep = keep[coo_flow]
        # batch index -> index among the kept flows
        e_f = (np.cumsum(keep) - 1)[coo_flow[entry_keep]]
        e_l = coo_link[entry_keep]
        ids = flow_ids[keep]
        n_new = len(ids)
        counts = np.bincount(e_f, minlength=n_new)
        base = self._n
        self._grow(base + n_new, int(counts.max()))
        slots = np.arange(base, base + n_new, dtype=np.int64)
        self._fid[slots] = ids
        self._size[slots] = sizes[keep]
        self._rem[slots] = sizes[keep]
        self._start[slots] = self.now
        self._rate[slots] = 0.0
        self._act[slots] = True
        # column of each (flow-sorted) entry within its flow's row
        cols = np.arange(len(e_f), dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
        self._lm[slots[e_f], cols] = e_l
        self._id_to_slot.update(zip(ids.tolist(), slots.tolist()))
        self._n = base + n_new
        self._n_active += n_new
        self._added(slots, e_f, e_l, counts)

    def _grow(self, need: int, width: int) -> None:
        """Make room for ``need`` slots of up to ``width`` links each."""
        cap = len(self._fid)
        if need > cap:
            cap = max(need, 2 * cap)
            for name in self._SLOTS:
                old = getattr(self, name)
                new = np.zeros(cap, dtype=old.dtype)
                new[: self._n] = old[: self._n]
                setattr(self, name, new)
        lm = self._lm
        if cap > len(lm) or width > lm.shape[1]:
            self._lm = np.full((cap, max(width, lm.shape[1])), self.num_links, dtype=np.int64)
            self._lm[: self._n, : lm.shape[1]] = lm[: self._n]

    def _retire(self, slots: np.ndarray, at: float) -> tuple[np.ndarray, list[FlowResult]]:
        """Complete ``slots`` at time ``at``; returns them in completion
        order (ascending flow id, like the scalar engine) with their
        results."""
        slots = slots[np.argsort(self._fid[slots], kind="stable")]
        results = [
            FlowResult(fid, start, at, size)
            for fid, start, size in zip(
                self._fid[slots].tolist(),
                self._start[slots].tolist(),
                self._size[slots].tolist(),
            )
        ]
        self._results.extend(results)
        for res in results:
            del self._id_to_slot[res.flow_id]
        self._act[slots] = False
        self._n_active -= len(slots)
        return slots, results

    @property
    def active_flows(self) -> int:
        return self._n_active

    @property
    def results(self) -> list[FlowResult]:
        """Completed flows, in completion order."""
        return self._results

    # ------------------------------------------------------------------
    # Rates and telemetry
    # ------------------------------------------------------------------
    def _fill(
        self,
        lm: np.ndarray,
        capacity: np.ndarray,
        coo: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> Fill:
        """:func:`progressive_fill`, with its counters added to telemetry."""
        fill = progressive_fill(lm, capacity, coo)
        if self._obs_on:
            self.fill_rounds += fill.rounds
            self.compactions += fill.compactions
        return fill

    def rates(self) -> dict[int, float]:
        """Current max-min rates of the active flows (bytes/second)."""
        self._ensure_rates()
        slots = np.nonzero(self._act[: self._n])[0]
        return dict(zip(self._fid[slots].tolist(), self._rate[slots].tolist()))

    def link_rates(self) -> np.ndarray:
        """Current load of every link: the sum of its active users' rates.

        One weighted ``np.bincount`` over the active slots' link-matrix
        rows, in slot order, so each link's sum runs from 0.0 in the
        order of :meth:`rates` — the same floats as a per-flow loop.
        """
        self._ensure_rates()
        slots = np.nonzero(self._act[: self._n])[0]
        lm = self._lm[slots]
        weights = np.repeat(self._rate[slots], lm.shape[1])
        nl = self.num_links
        return np.bincount(lm.ravel(), weights=weights, minlength=nl + 1)[:nl]

    def telemetry(self) -> dict:
        """Per-engine fill telemetry (all counters monotone).

        Same shape as :meth:`FluidSimulator.telemetry
        <repro.sim.fluid.FluidSimulator.telemetry>`; here ``fill_rounds``
        counts *parallel* rounds (the bottleneck dependency depth) and
        ``compactions`` counts working-set compactions.
        """
        return {
            "recomputes": self.recomputes,
            "fill_rounds": self.fill_rounds,
            "compactions": self.compactions,
            "active_flows_hwm": self.active_flows_hwm,
        }

    # ------------------------------------------------------------------
    # Time advancement
    # ------------------------------------------------------------------
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
        # a t landing in (nc, nc + _EPS] is accepted above, but any flow
        # draining dry in this step completed at nc, not t — stamp the
        # true instant, or dense arrival streams (which advance in
        # sub-_EPS hops) systematically inflate FCTs
        return self._drain_to(t, nc if nc is not None and t > nc else t)

    def advance_to_next_completion(self) -> list[FlowResult]:
        """Jump to the earliest completion; returns the finished flows."""
        nc = self.next_completion_time()
        return [] if nc is None else self._drain_to(nc, nc)

    def run_until_idle(self, max_steps: int | None = None) -> float:
        """Drain all active flows; returns the final time."""
        steps = 0
        while self._n_active:
            if max_steps is not None and steps >= max_steps:
                raise RuntimeError("fluid simulation exceeded its step budget")
            finished = self.advance_to_next_completion()
            if not finished:  # pragma: no cover - defensive
                raise RuntimeError("no progress in fluid simulation")
            steps += 1
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({self.num_links} links, "
            f"{self._n_active} active, t={self.now:g})"
        )
