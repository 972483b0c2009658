"""Pattern-aware "Colored" routing — the achievable-performance baseline.

The paper compares its oblivious schemes against the authors' own
pattern-aware router (ref. [4], ICS'09), which assigns NCAs *knowing the
communication pattern* and serves as an upper bound on what any routing
of the same topology can achieve.  We reproduce it as a combinatorial
optimizer over NCA assignments:

* The optimization variable of a flow is its up-port vector (equivalently
  its NCA) — the descending path is then forced.
* The objective is the lexicographic pair ``(max flows per link, sum of
  squared flows per link)`` over the directed links the routes occupy.
  By default these include the host-switch (level-0) links, where a
  node's unavoidable injection/ejection serialization accumulates, so
  the objective tracks the max-min fluid completion time of equal-size
  phases: flows that already serialize at a shared endpoint (WRF's
  same-source flows) gain nothing from being spread.
  ``endpoint_aware=False`` drops the level-0 links: the classic
  flows-per-switch-to-switch-link objective, blind to endpoint
  contention.
* For two-level XGFTs routing a permutation this is the classic Clos
  middle-stage assignment; a König/Euler bipartite *edge coloring* of the
  inter-switch flow multigraph yields a provably optimal warm start
  (``ceil(degree / w2)`` flows per link), which a greedy + local-search
  pass then refines under the full objective (needed for
  non-permutation patterns such as WRF's).

The search runs on one int64 load array over the directed links.  A
route's link ids split into a per-flow base, fixed by the endpoint
digits, plus a per-candidate offset, fixed by the up-ports; scoring
all candidates of a flow is one gather, a row max and sum of squares,
and one argmin (see "Colored optimizer" in docs/performance.md).

The optimizer is exact on the paper's configurations in the sense that it
reaches the analytic lower bound (tests assert this for CG phase 5 and
WRF); for general patterns/topologies it is a high-quality heuristic,
which is all the baseline role requires.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
import numpy.typing as npt

from ..obs import active as _obs_active
from ..obs import metrics as _metrics
from ..topology import XGFT
from .base import PairInput, RoutingAlgorithm, pair_array
from .dmodk import DModK
from .smodk import SModK, source_digit_port

__all__ = ["Colored", "bipartite_edge_coloring"]

IntArray = npt.NDArray[np.int64]
BoolArray = npt.NDArray[np.bool_]
#: an optimizer start: dense ``(F, h)`` up-ports and the flows it places
Start = tuple[IntArray, BoolArray]
#: the optimizer's flows: an ``(F, 2)`` pair array (or a list of pairs)
Flows = Union[IntArray, Sequence[tuple[int, int]]]


def bipartite_edge_coloring(
    edges: Sequence[tuple[int, int]],
    num_left: int,
    num_right: int,
) -> list[int]:
    """Proper edge coloring of a bipartite multigraph with Δ colors.

    Implements the constructive proof of König's edge-coloring theorem:
    insert edges one by one; if some color is free at both endpoints use
    it, otherwise flip an alternating path to make one.  Runs in
    O(E * (V + Δ)).

    Returns a color per edge, in ``range(Δ)`` where Δ is the maximum
    degree of the multigraph.
    """
    degree_left = Counter(u for u, _ in edges)
    degree_right = Counter(v for _, v in edges)
    delta = max(
        [degree_left.most_common(1)[0][1] if degree_left else 0,
         degree_right.most_common(1)[0][1] if degree_right else 0]
    )
    if delta == 0:
        return []
    # at_left[u][c] / at_right[v][c] = edge index currently colored c at
    # that vertex, or -1.
    at_left = np.full((num_left, delta), -1, dtype=np.int64)
    at_right = np.full((num_right, delta), -1, dtype=np.int64)
    colors = [-1] * len(edges)
    edge_list = list(edges)

    def first_free(row: np.ndarray) -> int:
        free = np.nonzero(row < 0)[0]
        return int(free[0])

    for e, (u, v) in enumerate(edge_list):
        alpha = first_free(at_left[u])  # free at u
        beta = first_free(at_right[v])  # free at v
        if at_right[v, alpha] < 0:
            c = alpha
        elif at_left[u, beta] < 0:
            c = beta
        else:
            # Alternating alpha/beta path from v: right nodes are left via
            # their alpha edge, left nodes via their beta edge.  The path
            # is simple (a repeat vertex would carry two same-colored
            # edges) and cannot reach u (u has no alpha edge and left
            # nodes are only *entered* through alpha edges), so flipping
            # alpha <-> beta along it frees alpha at v and keeps the
            # coloring proper everywhere else (Koenig's construction).
            path: list[int] = []
            x, need, side_right = v, alpha, True
            while True:
                row = at_right[x] if side_right else at_left[x]
                e2 = int(row[need])
                if e2 < 0:
                    break
                path.append(e2)
                u2, v2 = edge_list[e2]
                x = u2 if side_right else v2
                side_right = not side_right
                need = beta if need == alpha else alpha
            # two-pass flip: clear all slots, then set the new ones
            for e2 in path:
                u2, v2 = edge_list[e2]
                at_left[u2, colors[e2]] = -1
                at_right[v2, colors[e2]] = -1
                colors[e2] = beta if colors[e2] == alpha else alpha
            for e2 in path:
                u2, v2 = edge_list[e2]
                at_left[u2, colors[e2]] = e2
                at_right[v2, colors[e2]] = e2
            c = alpha
        colors[e] = c
        at_left[u, c] = e
        at_right[v, c] = e
    return colors


@dataclass(frozen=True)
class _Layout:
    """The pattern side of one optimization, shared by all its restarts.

    Link slots come in up/down pairs per counted level.  A flow's route
    occupies ``base[f, k] + offset_k(ports)`` on its first ``width[f]``
    slots; array rows pad the rest with ``sentinel``, an extra link
    whose load stays 0.
    """

    nca: IntArray  # (F,) NCA level
    forced: BoolArray  # (F,) the level admits one up-port vector only
    width: IntArray  # (F,) counted link slots
    base: IntArray  # (F, W) link-id bases
    sentinel: int
    scale: int  # exceeds any candidate's sum of squares: key = max * scale + sumsq


class Colored(RoutingAlgorithm):
    """Pattern-aware NCA assignment by edge coloring + local search.

    Parameters
    ----------
    topo:
        Topology to route.
    seed:
        Seed for tie-breaking and restart shuffles.
    restarts:
        Number of randomized greedy restarts (best kept).
    local_search_passes:
        Maximum sweeps of the move-based local search per restart.
    max_candidates:
        Cap on enumerated up-port vectors per flow (random subsample
        beyond it; never reached on the paper's topologies); at least 1.
    endpoint_aware:
        When True (default) the objective counts the host-switch
        (level-0) links as well; when False only switch-to-switch links
        count — the ablation of DESIGN.md Sec. 6, which makes the
        optimizer blind to endpoint contention (it then needlessly
        spreads WRF's same-source flows).

    Routing queries for pairs outside the prepared pattern fall back to
    D-mod-k-style digit routing (a pattern-aware router has no opinion on
    flows that never occur).  With obs active at construction, each
    optimization adds the candidate sets it scored to the
    ``colored.evaluations`` counter and its local-search re-routes to
    ``colored.moves``.
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
        if int(max_candidates) < 1:
            raise ValueError(f"colored: max_candidates must be >= 1, got {max_candidates}")
        self.seed = int(seed)
        self.restarts = int(restarts)
        self.local_search_passes = int(local_search_passes)
        self.max_candidates = int(max_candidates)
        self.endpoint_aware = bool(endpoint_aware)
        #: first link level the objective counts
        self._lo = 0 if self.endpoint_aware else 1
        self._obs_on = _obs_active()
        # the prepared pattern: sorted pair keys src * n + dst and their
        # dense (F, h) up-port assignment
        self._keys: IntArray = np.empty(0, dtype=np.int64)
        self._ports: IntArray = np.empty((0, topo.h), dtype=np.int64)

    # ------------------------------------------------------------------
    # RoutingAlgorithm interface
    # ------------------------------------------------------------------
    def prepare(self, pairs: PairInput) -> None:
        n = self.topo.num_leaves
        arr = pair_array(pairs, n)
        src, dst = arr[:, 0], arr[:, 1]
        # sorted distinct keys src * n + dst = the non-self pairs in (src, dst) order
        keys = np.unique((src * n + dst)[src != dst])
        ports, _ = self._optimize(np.stack(np.divmod(keys, n), axis=1))
        self._keys = keys
        self._ports = ports

    def port_array(self, level: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        out = source_digit_port(self.topo, level, dst)
        if len(self._keys):
            keys = src * self.topo.num_leaves + dst
            rows = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
            hit = self._keys[rows] == keys
            out[hit] = self._ports[rows[hit], level]
        return out

    # ------------------------------------------------------------------
    # Optimizer
    # ------------------------------------------------------------------
    def _candidates(self, lvl: int, rng: np.random.Generator) -> IntArray:
        """All ``(C, lvl)`` up-port vectors reaching an NCA at ``lvl`` (possibly sampled)."""
        sizes = self.topo.w[:lvl]
        if math.prod(sizes) <= self.max_candidates:
            # last port fastest: itertools.product order
            return np.indices(sizes, dtype=np.int64).reshape(lvl, -1).T
        return rng.integers(0, np.asarray(sizes)[None, :], size=(self.max_candidates, lvl))

    def _offsets(self, ports: IntArray) -> IntArray:
        """Per-slot link-id offsets of up-port rows ``(k, l)``.

        At level ``i`` a route's up and down link share the offset
        ``prefix * w_i + r_i`` with ``prefix = sum_{j<i} r_j * wprod(j)``,
        as in :meth:`~repro.core.route.RouteTable.flow_links`.
        """
        topo, lo = self.topo, self._lo
        out = np.empty((len(ports), 2 * max(ports.shape[1] - lo, 0)), dtype=np.int64)
        prefix = np.zeros(len(ports), dtype=np.int64)
        for i in range(ports.shape[1]):
            if i >= lo:
                out[:, 2 * (i - lo)] = out[:, 2 * (i - lo) + 1] = prefix * topo.w[i] + ports[:, i]
            prefix += ports[:, i] * topo.wprod(i)
        return out

    def _layout(self, flows: Flows) -> _Layout:
        topo, lo = self.topo, self._lo
        pairs = np.asarray(flows, dtype=np.int64).reshape(-1, 2)
        src, dst = pairs[:, 0], pairs[:, 1]
        nca = topo.nca_level_array(src, dst)
        base = np.empty((len(flows), 2 * (topo.h - lo)), dtype=np.int64)
        level_base = 0
        for i in range(topo.h):
            if i >= lo:
                stride = topo.wprod(i + 1)
                base[:, 2 * (i - lo)] = level_base + (src // topo.mprod(i)) * stride
                base[:, 2 * (i - lo) + 1] = (
                    topo.num_links_per_direction + level_base + (dst // topo.mprod(i)) * stride
                )
            level_base += topo.num_up_links(i)
        single = np.asarray([math.prod(topo.w[:lvl]) == 1 for lvl in range(topo.h + 1)])
        # a link carries at most F flows, so candidate sums of squares stay below scale
        scale = base.shape[1] * len(flows) ** 2 + 1
        if len(flows) * scale >= 2**63:
            raise ValueError(f"colored: {len(flows)} flows overflow the int64 objective")
        return _Layout(
            nca, single[nca], 2 * np.maximum(nca - lo, 0), base, topo.num_directed_links, scale
        )

    def _optimize(self, flows: Flows) -> tuple[IntArray, tuple[int, int]]:
        """The best assignment of sorted, distinct, non-self ``flows``.

        Returns the dense ``(F, h)`` up-port matrix in ``flows`` order
        and its ``(max flows per link, sum of squared flows)`` score.
        """
        flows = np.asarray(flows, dtype=np.int64).reshape(-1, 2)
        if not len(flows):
            return np.zeros((0, self.topo.h), dtype=np.int64), (0, 0)
        lay = self._layout(flows)
        rng = np.random.default_rng(np.random.SeedSequence([0xC0105ED, self.seed & 0xFFFFFFFF]))
        # Warm starts, most-informed first: the self-routing mod-k
        # assignments (so Colored can never end up *behind* them), the
        # Koenig edge coloring (optimal for permutations on h=2), then
        # cold randomized greedy restarts.  Ties keep the earlier seed.
        seeds: list[Start | None] = list(self._modk_warm_starts(flows))
        koenig = self._warm_start(flows, lay.nca)
        if koenig is not None:
            seeds.append(koenig)
        seeds.extend([None] * max(1, self.restarts))
        num = len(flows)
        cold = (np.zeros((num, self.topo.h), dtype=np.int64), np.zeros(num, dtype=bool))
        best: tuple[IntArray, tuple[int, int]] | None = None
        evaluations = moves = 0
        for restart, warm in enumerate(seeds):
            order = list(range(num))
            if warm is None and restart > 0:
                rng.shuffle(order)
            ports, score, n_eval, n_move = self._greedy_and_search(
                lay, order, cold if warm is None else warm, rng
            )
            evaluations += n_eval
            moves += n_move
            if best is None or score < best[1]:
                best = ports, score
        if self._obs_on:
            _metrics.counter("colored.evaluations").inc(evaluations)
            _metrics.counter("colored.moves").inc(moves)
        assert best is not None
        return best

    def _modk_warm_starts(self, flows: IntArray) -> list[Start]:
        """The S-mod-k and D-mod-k assignments as optimizer seeds."""
        every = np.ones(len(flows), dtype=bool)
        return [(cls(self.topo).build_table(flows).ports, every) for cls in (SModK, DModK)]

    def _warm_start(self, flows: IntArray, nca: IntArray) -> Start | None:
        """König edge-coloring warm start for two-level topologies."""
        topo = self.topo
        top = nca == 2
        if topo.h != 2 or topo.w[0] != 1 or not top.any():
            return None
        m1 = topo.m[0]
        num_sw = topo.num_leaves // m1
        edges = flows[top] // m1
        colors = bipartite_edge_coloring(list(map(tuple, edges.tolist())), num_sw, num_sw)
        ports = np.zeros((len(flows), 2), dtype=np.int64)
        ports[top, 1] = np.asarray(colors, dtype=np.int64) % topo.w[1]
        return ports, top

    def _greedy_and_search(
        self, lay: _Layout, order: list[int], start: Start, rng: np.random.Generator
    ) -> tuple[IntArray, tuple[int, int], int, int]:
        """Greedy construction in ``order`` from ``start``, then local search.

        Returns ``(ports, score, evaluations, moves)``.
        """
        nca, width, base = lay.nca, lay.width, lay.base
        ports = start[0].copy()
        # forced flows keep their all-zero ports: nothing to choose
        fixed = start[1] | lay.forced
        cur = base + self._offsets(ports)
        cur[np.arange(cur.shape[1]) >= width[:, None]] = lay.sentinel
        load = np.zeros(lay.sentinel + 1, dtype=np.int64)
        cache: dict[int, tuple[IntArray, IntArray]] = {}

        def candidates(lvl: int) -> tuple[IntArray, IntArray]:
            # lazy, so a sampled level draws from the RNG when first needed
            if lvl not in cache:
                cand = self._candidates(lvl, rng)
                cache[lvl] = cand, self._offsets(cand)
            return cache[lvl]

        def keys(rows: IntArray) -> IntArray:
            # fused (max, sumsq) of link costs load + 1; the max drops the
            # +1, which shifts every key of a flow alike
            g = load[rows]
            return g.max(axis=-1, initial=0) * lay.scale + ((g + 1) ** 2).sum(axis=-1)

        def place_run(flows: IntArray) -> None:
            if len(flows):
                np.add.at(load, cur[flows], 1)
                load[lay.sentinel] = 0

        # -- greedy construction: fixed flows in bulk between choices ----
        seq = np.asarray(order, dtype=np.int64)
        todo = np.flatnonzero(~fixed[seq]).tolist()
        done = 0
        for p in todo:
            place_run(seq[done:p])
            f = int(seq[p])
            lvl, w = int(nca[f]), int(width[f])
            cand, off = candidates(lvl)
            rows = base[f, :w] + off
            j = int(keys(rows).argmin())
            ports[f, :lvl] = cand[j]
            cur[f, :w] = rows[j]
            load[rows[j]] += 1
            done = p + 1
        place_run(seq[done:])

        # -- local search -------------------------------------------------
        evaluations, moves = len(todo), 0
        for _ in range(self.local_search_passes):
            global_max = int(load.max())
            if global_max <= 1:
                break
            # hot flows re-queue behind the rest, in the order visited
            hot = (load[cur] >= global_max).any(axis=1)[seq]
            visit = seq[hot]
            seq = np.concatenate([seq[~hot], visit])
            visit = visit[~lay.forced[visit]]
            evaluations += len(visit)
            improved = False
            for f in visit.tolist():
                lvl, w = int(nca[f]), int(width[f])
                now = cur[f, :w]
                load[now] -= 1
                cand, off = candidates(lvl)
                rows = base[f, :w] + off
                costs = keys(rows)
                j = int(costs.argmin())
                if costs[j] < keys(now):
                    ports[f, :lvl] = cand[j]
                    cur[f, :w] = now = rows[j]
                    improved = True
                    moves += 1
                load[now] += 1
            if not improved:
                break

        return ports, (int(load.max()), int((load * load).sum())), evaluations, moves
