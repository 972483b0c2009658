"""Incremental max-min fluid engine (component-local progressive filling).

:class:`IncFluidSimulator` computes the same max-min fair allocation as
the scalar :class:`repro.sim.fluid.FluidSimulator` and the vectorized
:class:`repro.sim.fluid_vec.VecFluidSimulator`, with the same filling
kernel (:func:`repro.sim.maxmin.progressive_fill`), but treats each
arrival/completion batch as a *local* perturbation: instead of
re-running progressive filling over the whole active set, it identifies
the **bottleneck dependency component** of the event — the links whose
frozen water level can actually move — refills only the flows inside
it, and reuses the frozen levels everywhere else.

The machinery rests on the classic bottleneck characterization of
max-min fairness: an allocation is *the* (unique) max-min allocation
iff it is feasible and every flow has a **certificate link** on its
path that is saturated and on which the flow's rate is maximal among
the link's users.  The engine maintains, per link, the committed
**water level** ``W(l)`` — the maximum user rate if the link is
saturated, ``+inf`` otherwise — and grows the component as the at-level
fixpoint closure of the event's seed links:

1. *Seeds*: the links of every flow that arrived or completed since the
   last refill (same-timestamp mutations accumulate into one epoch — a
   whole Poisson burst, or a simultaneous completion group, costs one
   refill).
2. *Closure*: a flow joins the component iff it crosses a component
   link ``l`` at that link's level (``rate >= W(l) - eps``); a joining
   flow contributes all its links.  Iterate to a fixpoint.
3. *Local fill*: run the filling kernel over the inside flows only,
   against residual capacities (the outside users of component links
   are fixed background consumption).
4. *Verify*: recompute saturation and max-user levels on the component
   links (background included) and check the bottleneck certificate of
   every refilled flow.  Certificates of *outside* flows hold
   structurally: an outside flow's certificate link is, by the closure
   rule, never a component link (the flow sits at that link's level and
   would have joined), so no inside flow crosses it and its balance is
   untouched.
5. *Commit, expand, or fall back*: on success, write the new rates and
   water levels (restamping only the flows whose rate actually moved —
   unchanged flows keep their live completion-heap entry).  A
   certificate failure means a *background* flow ended up above the
   component's new level on some shared link — the event lowered a
   water level below a bystander the one-sided at-level closure could
   not see coming.  Those blockers are identified exactly (outside
   users above the inside maximum on a failed flow's link), pulled into
   the component, and the closure/fill retried, up to
   ``_MAX_EXPANSIONS`` rounds.  Only when expansion is exhausted or the
   component grows past the budget does the engine fall back to a full
   from-scratch refill — the exactness escape hatch.

Flow bytes drain **lazily**: a flow's remaining volume is materialized
only when its rate changes or it completes, and completions pop from a
generation-stamped lazy heap — so an event that refills a 50-link
component does O(component) work even with 10^5 concurrent flows.

The public surface is :class:`repro.sim.maxmin.BatchFluidEngine`'s,
like the other vectorized engine's; it is registered as
``fluid-vec-inc``.  Telemetry adds ``partial_refills`` /
``full_refills`` / ``cert_fallbacks``, cumulative ``links_touched`` /
``flows_touched`` (work actually done) against ``links_active`` /
``flows_active`` (what full refills would have done), and
``component_size_hwm`` — see ``docs/performance.md`` for the
algorithm, the exactness argument and the telemetry contract.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..obs.trace import TRACER
from .fluid import FlowResult, _EPS
from .maxmin import BatchFluidEngine

__all__ = ["IncFluidSimulator"]

#: a flow is "at level" on a link when its rate reaches the link's
#: committed water level within this relative margin — generous, so
#: float noise never hides a dependency (too-eager joining only grows
#: the component; too-lazy joining would be a correctness bug)
_JOIN_REL = 1e-6

#: a component link counts as saturated when its residual capacity is
#: below this fraction of the raw capacity — progressive filling leaves
#: ~1e-16 relative residue on true bottlenecks, so this over-marks,
#: which is the safe direction (at-level flows join more eagerly)
_SAT_REL = 1e-9

#: certificate slack: a refilled flow passes when its rate reaches the
#: max-user level of a saturated path link within this relative margin
_CERT_REL = 1e-12

#: certificate-failure recovery: how many times a component may pull in
#: its blocking background flows and retry before giving up and running
#: a full refill (each retry is still budget-bounded by ``_closure``)
_MAX_EXPANSIONS = 4


class IncFluidSimulator(BatchFluidEngine):
    """Incremental max-min fluid simulation over a fixed link set.

    Drop-in replacement for the other fluid engines (same constructor,
    same public methods, same semantics — including zero-size flows
    completing immediately at their start time), backed by
    component-local refills, lazy byte draining and a generation-stamped
    completion heap.
    """

    _SLOTS = {
        **BatchFluidEngine._SLOTS,
        "_sync": np.float64,  # when _rem was last materialized
        "_gen": np.int64,  # live heap-entry generation
        "_inside": bool,  # in the refilling component (False between refills)
    }

    def __init__(self, num_links: int, capacity: float | np.ndarray):
        super().__init__(num_links, capacity)
        # telemetry (see telemetry())
        self.partial_refills = 0
        self.full_refills = 0
        self.cert_fallbacks = 0
        self.links_touched = 0
        self.flows_touched = 0
        self.links_active = 0
        self.flows_active = 0
        self.component_size_hwm = 0
        self.mutation_events = 0

        self._nnz_active = 0
        # per-slot python link tuples (fast closure scans)
        self._links: list[tuple[int, ...]] = []
        # per-link state
        self._users: list[set[int]] = [set() for _ in range(num_links)]
        self._n_links_used = 0
        # committed water levels: max user rate if saturated, else +inf
        self._W = np.full(num_links, np.inf, dtype=np.float64)
        # global -> component-local link index of the component being
        # filled; -1 for every real link between fills (the last entry
        # is the pad link)
        self._loc = np.full(num_links + 1, -1, dtype=np.int64)

        # lazy completion heap: (finish, slot, gen, slack)
        self._heap: list[tuple[float, int, int, float]] = []

        # dirty state accumulated since the last refill (the epoch)
        self._dirty_links: set[int] = set()
        self._dirty_slots: list[int] = []

    def _added(self, slots, e_f, e_l, counts) -> None:
        """The batch joins the current epoch: however many batches and
        completion groups land at one instant, the next rates query pays
        a single (component-local when possible) refill."""
        self.mutation_events += 1
        self._sync[slots] = self.now
        users = self._users
        dirty = self._dirty_links
        for s, row in zip(slots.tolist(), np.split(e_l, np.cumsum(counts)[:-1])):
            tup = tuple(row.tolist())
            self._links.append(tup)
            self._nnz_active += len(tup)
            for l in tup:
                u = users[l]
                if not u:
                    self._n_links_used += 1
                u.add(s)
                dirty.add(l)
            self._dirty_slots.append(s)
        if self._n_active > self.active_flows_hwm:
            self.active_flows_hwm = self._n_active

    # ------------------------------------------------------------------
    # Refill orchestration
    # ------------------------------------------------------------------
    def _ensure_rates(self) -> None:
        if self._dirty_links or self._dirty_slots:
            self._refill()

    def _refill(self) -> None:
        if self._n_active == 0:
            # everything drained: the dirty links are empty, hence open
            if self._dirty_links:
                self._W[list(self._dirty_links)] = np.inf
            self._dirty_links.clear()
            self._dirty_slots.clear()
            return
        self.recomputes += 1
        self.links_active += self._n_links_used
        self.flows_active += self._n_active
        if self._obs_on and TRACER.enabled:
            with TRACER.span("fluid.fill", flows=self._n_active) as span:
                mode = self._refill_inner()
                span.set("mode", mode)
        else:
            self._refill_inner()
        self._dirty_links.clear()
        self._dirty_slots.clear()

    def _refill_inner(self) -> str:
        act = self._act
        comp_flows = {s for s in self._dirty_slots if act[s]}
        comp_links = set(self._dirty_links)
        ok = self._closure(comp_flows, comp_links, list(comp_links))
        attempts = 0
        cert_failed = False
        while ok:
            out = self._try_partial(comp_flows, comp_links)
            if out is True:
                self.partial_refills += 1
                # count the links the fill actually processed: a link
                # whose last user departed is in the component only for
                # its O(1) level reset, and counting it could push
                # links_touched past the full-refill-equivalent
                users = self._users
                self.links_touched += sum(1 for l in comp_links if users[l])
                self.flows_touched += len(comp_flows)
                if len(comp_links) > self.component_size_hwm:
                    self.component_size_hwm = len(comp_links)
                return "partial"
            cert_failed = True
            attempts += 1
            if not out or attempts >= _MAX_EXPANSIONS:
                break
            # pull the blocking background flows in and re-run the
            # closure from their links only (growth is monotone)
            scan: list[int] = []
            links = self._links
            for s in out:
                comp_flows.add(s)
                for l in links[s]:
                    if l not in comp_links:
                        comp_links.add(l)
                        scan.append(l)
            ok = self._closure(comp_flows, comp_links, scan)
        if cert_failed:
            self.cert_fallbacks += 1
        self._full_refill()
        self.full_refills += 1
        self.links_touched += self._n_links_used
        self.flows_touched += self._n_active
        return "full"

    def _closure(
        self,
        comp_flows: set[int],
        comp_links: set[int],
        scan: list[int],
    ) -> bool:
        """Grow ``(comp_flows, comp_links)`` in place to the at-level
        fixpoint, scanning from the links in ``scan``.

        Returns ``False`` when the component grows past the point where
        a local fill stops being cheaper than a full one (the budget
        abort) — the sets are then partially grown and must be
        discarded.
        """
        W = self._W
        rate = self._rate
        users = self._users
        links = self._links
        flow_cap = max(64, self._n_active // 2)
        ops_budget = max(1024, self._nnz_active)
        ops = 0
        inf = np.inf
        while scan:
            l = scan.pop()
            w = float(W[l])
            if w == inf:
                continue  # open links have no at-level users
            u = users[l]
            if not u:
                continue
            thr = w - _JOIN_REL * w - 1e-12
            ops += len(u)
            for s in u:
                if s in comp_flows or rate[s] < thr:
                    continue
                comp_flows.add(s)
                for l2 in links[s]:
                    if l2 not in comp_links:
                        comp_links.add(l2)
                        scan.append(l2)
            if ops > ops_budget or len(comp_flows) > flow_cap:
                return False
        return True

    def _try_partial(self, ins_set: set[int], cl_set: set[int]) -> bool | set[int]:
        """Fill the component locally; commit iff the certificates hold.

        Returns ``True`` on commit.  On a certificate failure it returns
        the set of *blocking* background slots — outside flows sitting
        above the component's new inside maximum on a failed flow's
        saturated link (the exact reason the certificate failed) — for
        the caller to pull in and retry; an empty set means no blocker
        was identified and a full refill is the only recovery.

        All work is sized by the component: its links are relabelled
        ``0..k-1`` in sorted order (the pad link becomes ``k``), so the
        fill and every check run on length-``k`` arrays.  The relabel
        keeps link order and entry order, so each per-link sum adds the
        same floats in the same order as over the global index.
        """
        nl = self.num_links
        cl = np.fromiter(cl_set, np.int64, len(cl_set))
        cl.sort()
        cl_links = cl.tolist()
        k = len(cl_links)
        ins = np.fromiter(ins_set, np.int64, len(ins_set))
        ins.sort()
        inside = self._inside
        inside[ins] = True
        # background: outside users of component links are fixed
        # consumption, subtracted from capacity before the local fill
        rate = self._rate
        users = self._users
        bg_sum = np.zeros(k, dtype=np.float64)
        bg_max = np.zeros(k, dtype=np.float64)
        for i, l in enumerate(cl_links):
            ssum = 0.0
            smax = 0.0
            for s in users[l]:
                if not inside[s]:
                    r = rate[s]
                    ssum += r
                    if r > smax:
                        smax = r
            bg_sum[i] = ssum
            bg_max[i] = smax
        cap = self.capacity[cl]
        resid = cap - bg_sum
        np.maximum(resid, 0.0, out=resid)
        if not len(ins):
            # departure-only component with no at-level survivors: the
            # links merely gained slack; refresh their levels in place
            sat = resid <= _SAT_REL * cap
            self._W[cl] = np.where(sat & (bg_max > 0.0), bg_max, np.inf)
            return True
        loc = self._loc
        loc[cl] = np.arange(k, dtype=np.int64)
        loc[nl] = k
        lm = loc[self._lm[ins]]
        loc[cl] = -1
        fill = self._fill(lm, resid)
        rates_new, e_l = fill.rates, fill.e_l
        entry_rate = rates_new[fill.e_f]
        cons = np.bincount(e_l, weights=entry_rate, minlength=k)
        maxu = np.zeros(k, dtype=np.float64)
        np.maximum.at(maxu, e_l, entry_rate)
        # per component link, then the pad link: never saturated, no users
        sat_ext = np.zeros(k + 1, dtype=bool)
        sat_cl = sat_ext[:k]
        np.less_equal(resid - cons, _SAT_REL * cap, out=sat_cl)
        mx_ext = np.zeros(k + 1, dtype=np.float64)
        maxu_cl = mx_ext[:k]
        np.maximum(maxu, bg_max, out=maxu_cl)
        # bottleneck certificates for every refilled flow: a saturated
        # path link where the flow's rate is (within slack) maximal
        ok = (
            sat_ext[lm] & (rates_new[:, None] >= mx_ext[lm] * (1.0 - _CERT_REL) - _EPS)
        ).any(axis=1)
        if not ok.all():
            # identify the blockers: on the failed flows' links, the
            # background users strictly above the inside maximum (they
            # are what pushed mx_ext past the refilled rates)
            bad = lm[~ok].ravel()
            extra: set[int] = set()
            for i in np.unique(bad[bad < k]).tolist():
                lvl = maxu[i]
                if bg_max[i] <= lvl:
                    continue  # an inside flow is maximal here; not this link
                for s in users[cl_links[i]]:
                    if not inside[s] and rate[s] > lvl:
                        extra.add(s)
            inside[ins] = False
            return extra
        inside[ins] = False
        self._W[cl] = np.where(sat_cl, maxu_cl, np.inf)
        self._commit(ins, rates_new)
        return True

    def _full_refill(self) -> None:
        slots = np.nonzero(self._act[: self._n])[0]
        fill = self._fill(self._lm[slots], self.capacity)
        rates_new, e_l = fill.rates, fill.e_l
        entry_rate = rates_new[fill.e_f]
        nl = self.num_links
        cons = np.bincount(e_l, weights=entry_rate, minlength=nl)
        maxu = np.zeros(nl, dtype=np.float64)
        np.maximum.at(maxu, e_l, entry_rate)
        counts = np.bincount(e_l, minlength=nl)
        sat = (self.capacity - cons <= _SAT_REL * self.capacity) & (counts > 0)
        self._W = np.where(sat, maxu, np.inf)
        self._commit(slots, rates_new)

    def _commit(self, slots: np.ndarray, rates_new: np.ndarray) -> None:
        """Write new rates: materialize lazy drains, restamp the heap.

        Only flows whose rate actually moved are touched: an unchanged
        flow keeps its lazy ``(_sync, _rem)`` pair and its live heap
        entry (same rate + same drain line = the same finish time), so
        a refill that re-derives mostly-identical rates — a full refill
        after a local event, a component whose level did not shift —
        costs heap traffic proportional to the *change*, not the size.
        """
        old = self._rate[slots]
        changed = rates_new != old
        if not changed.all():
            slots = slots[changed]
            rates_new = rates_new[changed]
            old = old[changed]
        if not len(slots):
            return
        now = self.now
        self._rem[slots] = self._rem[slots] - old * (now - self._sync[slots])
        self._sync[slots] = now
        self._rate[slots] = rates_new
        self._gen[slots] += 1
        heap = self._heap
        rem = self._rem
        size = self._size
        gen = self._gen
        moving = rates_new > _EPS
        for s, r in zip(slots[moving].tolist(), rates_new[moving].tolist()):
            finish = now + rem[s] / r
            slack = (_EPS * size[s] + _EPS) / r
            heapq.heappush(heap, (finish, s, int(gen[s]), slack))

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def telemetry(self) -> dict:
        """Per-engine fill telemetry (all counters monotone).

        Superset of the other engines' shape.  ``recomputes ==
        partial_refills + full_refills``; ``links_touched`` /
        ``flows_touched`` accumulate the links/flows each refill
        actually processed, while ``links_active`` / ``flows_active``
        accumulate what a from-scratch refill would have processed at
        the same instants — their ratio is the refill-work reduction.
        ``component_size_hwm`` is the largest committed component (in
        links); ``cert_fallbacks`` counts certificate-failure full
        refills (a subset of ``full_refills``); ``mutation_events``
        counts arrival batches + completion groups, so
        ``mutation_events - recomputes`` is the epoch-batching win.
        """
        return {
            **super().telemetry(),
            "partial_refills": self.partial_refills,
            "full_refills": self.full_refills,
            "cert_fallbacks": self.cert_fallbacks,
            "links_touched": self.links_touched,
            "flows_touched": self.flows_touched,
            "links_active": self.links_active,
            "flows_active": self.flows_active,
            "component_size_hwm": self.component_size_hwm,
            "mutation_events": self.mutation_events,
        }

    # ------------------------------------------------------------------
    # Time advancement
    # ------------------------------------------------------------------
    def next_completion_time(self) -> float | None:
        """Absolute time of the earliest flow completion (None if idle)."""
        if self._n_active == 0:
            return None
        self._ensure_rates()
        heap = self._heap
        gen = self._gen
        act = self._act
        while heap:
            finish, s, g, _slack = heap[0]
            if act[s] and gen[s] == g:
                return finish if finish > self.now else self.now
            heapq.heappop(heap)
        raise RuntimeError("active flows but no positive rates; check capacities")

    def _drain_to(self, t: float, at: float) -> list[FlowResult]:
        """Pop and complete every heap entry whose trigger time is <= t.

        A flow completes at time ``t`` when its remaining volume is
        within the completion tolerance (``_EPS * size + _EPS`` bytes,
        like the other engines), i.e. when ``finish - slack <= t``.
        """
        self.now = t
        heap = self._heap
        gen = self._gen
        act = self._act
        due: list[int] = []
        while heap:
            finish, s, g, slack = heap[0]
            if not act[s] or gen[s] != g:
                heapq.heappop(heap)
                continue
            if finish - slack > t:
                break
            heapq.heappop(heap)
            due.append(s)
        if not due:
            return []
        self.mutation_events += 1
        slots, results = self._retire(np.asarray(due, dtype=np.int64), at)
        gen[slots] += 1
        self._rem[slots] = 0.0
        users = self._users
        dirty = self._dirty_links
        for s in slots.tolist():
            tup = self._links[s]
            self._nnz_active -= len(tup)
            for l in tup:
                u = users[l]
                u.discard(s)
                if not u:
                    self._n_links_used -= 1
                dirty.add(l)
        return results
