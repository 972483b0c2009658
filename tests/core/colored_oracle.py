"""The Colored optimizer before its array rewrite, kept as a test oracle.

:class:`OracleColored` is the original dict-and-``Counter`` implementation
of :class:`repro.core.colored.Colored`: per-link ``_LinkState``
bookkeeping, ``Route``-based link expansion per candidate, one
``move_cost`` call per candidate per flow.  It is slow but transparent,
and the equivalence suite (``test_colored_optimizer.py``) requires the
array-native optimizer to reproduce its assignments, scores and route
tables exactly.  The one addition is :attr:`OracleColored.best_score`,
the winning ``(max, sum of squares)`` score of the last ``_optimize``.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from typing import Dict, Sequence

import numpy as np

from repro.core.base import RoutingAlgorithm
from repro.core.colored import bipartite_edge_coloring
from repro.core.route import Route
from repro.topology import XGFT

__all__ = ["OracleColored"]


class _LinkState:
    """Incremental endpoint-aware contention bookkeeping for one link."""

    __slots__ = ("sources", "dests")

    def __init__(self) -> None:
        self.sources: Counter = Counter()
        self.dests: Counter = Counter()

    @property
    def num_flows(self) -> int:
        return sum(self.sources.values())

    @property
    def contention(self) -> int:
        return min(len(self.sources), len(self.dests))

    def add(self, s: int, d: int) -> None:
        self.sources[s] += 1
        self.dests[d] += 1

    def remove(self, s: int, d: int) -> None:
        self.sources[s] -= 1
        if self.sources[s] == 0:
            del self.sources[s]
        self.dests[d] -= 1
        if self.dests[d] == 0:
            del self.dests[d]

    def contention_with(self, s: int, d: int) -> int:
        ns = len(self.sources) + (0 if s in self.sources else 1)
        nd = len(self.dests) + (0 if d in self.dests else 1)
        return min(ns, nd)


class OracleColored(RoutingAlgorithm):
    """The original :class:`~repro.core.colored.Colored`, same parameters.

    ``_optimize`` returns the assignment dict and records the winning
    score in :attr:`best_score`.
    """

    name = "colored"

    def __init__(
        self,
        topo: XGFT,
        seed: int = 0,
        restarts: int = 2,
        local_search_passes: int = 40,
        max_candidates: int = 4096,
        endpoint_aware: bool = True,
    ):
        super().__init__(topo)
        self.seed = int(seed)
        self.restarts = int(restarts)
        self.local_search_passes = int(local_search_passes)
        self.max_candidates = int(max_candidates)
        self.endpoint_aware = bool(endpoint_aware)
        self._assignment: Dict[tuple[int, int], tuple[int, ...]] = {}
        self.best_score: tuple[int, int] | None = None

    # ------------------------------------------------------------------
    # RoutingAlgorithm interface
    # ------------------------------------------------------------------
    def prepare(self, pairs: Sequence[tuple[int, int]]) -> None:
        flows = sorted({(s, d) for s, d in pairs if s != d})
        self._assignment = self._optimize(flows)

    def up_ports(self, src: int, dst: int) -> tuple[int, ...]:
        try:
            return self._assignment[(src, dst)]
        except KeyError:
            # fall back to the D-mod-k digit rule for unprepared pairs
            from repro.core.smodk import source_digit_port

            lvl = self.topo.nca_level(src, dst)
            d = np.asarray([dst], dtype=np.int64)
            return tuple(
                int(source_digit_port(self.topo, level, d)[0]) for level in range(lvl)
            )

    def port_array(self, level: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        out = np.empty(len(src), dtype=np.int64)
        for i, (s, d) in enumerate(zip(src.tolist(), dst.tolist())):
            out[i] = self.up_ports(s, d)[level]
        return out

    # ------------------------------------------------------------------
    # Optimizer
    # ------------------------------------------------------------------
    def _candidates(self, lvl: int, rng: np.random.Generator) -> list[tuple[int, ...]]:
        """All up-port vectors reaching an NCA at ``lvl`` (possibly sampled)."""
        spaces = [range(self.topo.w[i]) for i in range(lvl)]
        total = int(np.prod([len(sp) for sp in spaces])) if spaces else 1
        if total <= self.max_candidates:
            return [tuple(c) for c in itertools.product(*spaces)]
        picks = rng.integers(
            0,
            np.asarray([len(sp) for sp in spaces])[None, :],
            size=(self.max_candidates, lvl),
        )
        return [tuple(int(x) for x in row) for row in picks]

    def _route_links(self, s: int, d: int, ports: tuple[int, ...]) -> tuple[int, ...]:
        """Directed links a candidate route occupies, as cost terms.

        In endpoint-aware mode (default) the full link set is used,
        including the host-switch (level-0) links where a node's
        unavoidable injection/ejection serialization accumulates: the
        optimizer's (max flows/link, sum of squares) objective then
        tracks the max-min fluid completion time of equal-size phases.
        The ``endpoint_aware=False`` ablation drops the level-0 links —
        the classic "flows per switch-to-switch link" objective, blind to
        endpoint contention (DESIGN.md Sec. 6).
        """
        links = Route(s, d, ports).links(self.topo)
        if self.endpoint_aware:
            return tuple(links)
        topo = self.topo
        host_up = topo.num_up_links(0)
        base = topo.num_links_per_direction
        return tuple(
            l for l in links if not (l < host_up or base <= l < base + host_up)
        )

    def _optimize(
        self, flows: list[tuple[int, int]]
    ) -> Dict[tuple[int, int], tuple[int, ...]]:
        if not flows:
            self.best_score = (0, 0)
            return {}
        rng = np.random.default_rng(np.random.SeedSequence([0xC0105ED, self.seed & 0xFFFFFFFF]))
        best: Dict[tuple[int, int], tuple[int, ...]] | None = None
        best_score: tuple[int, int] | None = None
        # Warm starts, most-informed first: the self-routing mod-k
        # assignments (so Colored can never end up *behind* them), the
        # Koenig edge coloring (optimal for permutations on h=2), then
        # cold randomized greedy restarts.  Ties keep the earlier seed.
        seeds: list[Dict[tuple[int, int], tuple[int, ...]] | None] = []
        seeds.extend(self._modk_warm_starts(flows))
        koenig = self._warm_start(flows)
        if koenig is not None:
            seeds.append(koenig)
        seeds.extend([None] * max(1, self.restarts))
        for restart, warm in enumerate(seeds):
            order = list(range(len(flows)))
            if warm is None and restart > 0:
                rng.shuffle(order)
            assignment, score = self._greedy_and_search(flows, order, warm, rng)
            if best_score is None or score < best_score:
                best, best_score = assignment, score
        assert best is not None
        self.best_score = best_score
        return best

    def _modk_warm_starts(
        self, flows: list[tuple[int, int]]
    ) -> list[Dict[tuple[int, int], tuple[int, ...]]]:
        """The S-mod-k and D-mod-k assignments as optimizer seeds."""
        from repro.core.dmodk import DModK
        from repro.core.smodk import SModK

        starts = []
        for cls in (SModK, DModK):
            table = cls(self.topo).build_table(flows)
            starts.append({flows[f]: table.route(f).up_ports for f in range(len(flows))})
        return starts

    def _warm_start(
        self, flows: list[tuple[int, int]]
    ) -> Dict[tuple[int, int], tuple[int, ...]] | None:
        """König edge-coloring warm start for two-level topologies."""
        topo = self.topo
        if topo.h != 2 or topo.w[0] != 1:
            return None
        m1 = topo.m[0]
        num_sw = topo.num_leaves // m1
        top_flows = [(s, d) for s, d in flows if topo.nca_level(s, d) == 2]
        if not top_flows:
            return None
        edges = [(s // m1, d // m1) for s, d in top_flows]
        colors = bipartite_edge_coloring(edges, num_sw, num_sw)
        w2 = topo.w[1]
        warm: Dict[tuple[int, int], tuple[int, ...]] = {}
        for (s, d), c in zip(top_flows, colors):
            warm[(s, d)] = (0, c % w2)
        return warm

    def _greedy_and_search(
        self,
        flows: list[tuple[int, int]],
        order: list[int],
        warm: Dict[tuple[int, int], tuple[int, ...]] | None,
        rng: np.random.Generator,
    ) -> tuple[Dict[tuple[int, int], tuple[int, ...]], tuple[int, int]]:
        topo = self.topo
        links: defaultdict[int, _LinkState] = defaultdict(_LinkState)
        assignment: Dict[tuple[int, int], tuple[int, ...]] = {}
        flow_links: Dict[tuple[int, int], tuple[int, ...]] = {}
        cand_cache: Dict[int, list[tuple[int, ...]]] = {}

        def candidates(lvl: int) -> list[tuple[int, ...]]:
            if lvl not in cand_cache:
                cand_cache[lvl] = self._candidates(lvl, rng)
            return cand_cache[lvl]

        def place(flow: tuple[int, int], ports: tuple[int, ...]) -> None:
            s, d = flow
            lids = self._route_links(s, d, ports)
            for lid in lids:
                links[lid].add(s, d)
            assignment[flow] = ports
            flow_links[flow] = lids

        def unplace(flow: tuple[int, int]) -> None:
            s, d = flow
            for lid in flow_links[flow]:
                links[lid].remove(s, d)
            del assignment[flow]
            del flow_links[flow]

        def link_cost(state: _LinkState) -> int:
            # raw flow count: with adapter pseudo-links in the route set
            # (endpoint-aware mode) this equals the per-link divisor of the
            # max-min fluid model, so (max, sum-of-squares) minimization
            # tracks simulated completion time of equal-size phases.
            return state.num_flows

        def link_cost_with(state: _LinkState, s: int, d: int) -> int:
            return state.num_flows + 1

        def move_cost(flow: tuple[int, int], ports: tuple[int, ...]) -> tuple[int, int]:
            """(max contention on touched links, sum of squared contentions)."""
            s, d = flow
            worst = 0
            sumsq = 0
            for lid in self._route_links(s, d, ports):
                c = link_cost_with(links[lid], s, d)
                worst = max(worst, c)
                sumsq += c * c
            return worst, sumsq

        # -- greedy construction ----------------------------------------
        for idx in order:
            flow = flows[idx]
            s, d = flow
            lvl = topo.nca_level(s, d)
            if warm is not None and flow in warm:
                place(flow, warm[flow])
                continue
            if lvl == 0:
                place(flow, ())
                continue
            best_ports: tuple[int, ...] | None = None
            best_cost: tuple[int, int] | None = None
            for ports in candidates(lvl):
                cost = move_cost(flow, ports)
                if best_cost is None or cost < best_cost:
                    best_ports, best_cost = ports, cost
            assert best_ports is not None
            place(flow, best_ports)

        # -- local search -------------------------------------------------
        for _ in range(self.local_search_passes):
            global_max = max((link_cost(st) for st in links.values()), default=0)
            if global_max <= 1:
                break
            hot_flows = [
                f
                for f, lids in flow_links.items()
                if any(link_cost(links[lid]) >= global_max for lid in lids)
            ]
            improved = False
            for flow in hot_flows:
                s, d = flow
                lvl = topo.nca_level(s, d)
                if lvl == 0:
                    continue
                current = assignment[flow]
                unplace(flow)
                cur_cost = move_cost(flow, current)
                best_ports, best_cost = current, cur_cost
                for ports in candidates(lvl):
                    if ports == current:
                        continue
                    cost = move_cost(flow, ports)
                    if cost < best_cost:
                        best_ports, best_cost = ports, cost
                place(flow, best_ports)
                if best_ports != current:
                    improved = True
            if not improved:
                break

        global_max = max((link_cost(st) for st in links.values()), default=0)
        sumsq = sum(link_cost(st) ** 2 for st in links.values())
        return assignment, (global_max, sumsq)
