"""Graph-general oblivious routing schemes.

Two scheme families that need no NCA structure, plus the bridge that
runs the paper's schemes through the same path machinery:

* ``random-walk`` — Schapira & Shahaf, *Oblivious Routing via Random
  Walks*: each pair routes along a seeded loop-erased random walk
  (capped, with a deterministic shortest-path fallback).  Walk
  randomness is drawn per ``(seed, src, dst)``, so routes are a pure
  function of the pair — the scheme is oblivious, and building a subset
  of pairs agrees bit-for-bit with the all-pairs table.
* ``racke-tree`` — Räcke & Schmid, *Compact Oblivious Routing*: a
  seeded FRT-style hierarchical tree decomposition of the switch
  fabric; each pair walks its tree path (center chain up, center chain
  down), unfolded into graph shortest paths and loop-erased.
  ``trees=T`` builds ``T`` independent decompositions and assigns each
  pair to one per-pair-deterministically, spreading load the way
  Räcke's tree distribution does.
* ``xgft-path`` — wraps any *oblivious* XGFT scheme (default
  ``d-mod-k``) and replays its routes as arc paths on the lowered
  graph via :attr:`~repro.graphs.graph.GeneralGraph.xgft_link_map`.
  This is the cross-validation bridge: its per-arc loads must equal
  the XGFT link census index-for-index through the link map.

All three emit :class:`~repro.graphs.table.PathTable` and accept
either a :class:`~repro.graphs.graph.GeneralGraph` or an XGFT (lowered
on the spot), so they run on every registered topology.  None of them
override :meth:`~repro.core.base.RoutingAlgorithm.prepare` — they stay
structurally oblivious, so a dynamic scenario routes its whole stream
of arrivals in one ``build_table`` call, as it does for the XGFT
schemes.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from ..core.base import PairInput, RoutingAlgorithm, pair_array
from ..core.factory import ALGORITHMS, is_oblivious, make_algorithm
from ..topology import XGFT
from .graph import GeneralGraph, GraphError
from .table import PathTable

__all__ = [
    "PathRoutingAlgorithm",
    "RandomWalkRouting",
    "RackeTreeRouting",
    "XGFTPathRouting",
]


def _loop_erase(node_seq: Sequence[int], arc_seq: Sequence[int]) -> list[int]:
    """Erase loops from a walk, keeping the first visit of every node.

    ``node_seq`` has one more entry than ``arc_seq``.  Returns the arc
    sequence of the resulting simple path.
    """
    stack_nodes = [node_seq[0]]
    stack_arcs: list[int] = []
    pos = {node_seq[0]: 0}
    for arc, node in zip(arc_seq, node_seq[1:]):
        if node in pos:
            k = pos[node]
            for n in stack_nodes[k + 1 :]:
                del pos[n]
            del stack_nodes[k + 1 :]
            del stack_arcs[k:]
        else:
            pos[node] = len(stack_nodes)
            stack_nodes.append(node)
            stack_arcs.append(arc)
    return stack_arcs


class PathRoutingAlgorithm(RoutingAlgorithm):
    """Base of schemes that emit arc paths instead of port digits.

    Subclasses implement :meth:`pair_arcs`; :meth:`build_table` routes
    each *unique* pair once and scatters the paths into a
    :class:`PathTable`.  XGFT topologies are lowered via
    :meth:`GeneralGraph.from_xgft` so the schemes run on every
    registered topology.
    """

    name = "path-abstract"

    def __init__(self, topo, seed: int = 0):
        if isinstance(topo, XGFT):
            topo = GeneralGraph.from_xgft(topo)
        if not isinstance(topo, GeneralGraph):
            raise TypeError(
                f"{type(self).__name__} needs a GeneralGraph or XGFT, "
                f"got {type(topo).__name__}"
            )
        super().__init__(topo)
        self.seed = int(seed)

    # -- path interface -------------------------------------------------
    def pair_arcs(self, src: int, dst: int) -> list[int]:
        """The arc path for one ``src != dst`` leaf pair."""
        raise NotImplementedError

    def up_ports(self, src: int, dst: int) -> tuple[int, ...]:
        raise TypeError(f"{self.name} emits arc paths, not XGFT port digits")

    def build_table(self, pairs: PairInput) -> PathTable:
        """Route a batch of pairs into a :class:`PathTable`."""
        arr = pair_array(pairs, self.topo.num_leaves)
        self.prepare(arr)
        if not len(arr):
            empty = np.empty(0, dtype=np.int64)
            return PathTable(self.topo, empty, empty, np.zeros(1, dtype=np.int64), empty)
        src, dst = arr[:, 0], arr[:, 1]
        uniq, inverse = np.unique(arr, axis=0, return_inverse=True)
        uniq_paths = []
        for s, d in uniq.tolist():
            if s == d:
                uniq_paths.append(np.empty(0, dtype=np.int64))
            else:
                uniq_paths.append(np.asarray(self.pair_arcs(int(s), int(d)), dtype=np.int64))
        counts = np.asarray([len(p) for p in uniq_paths], dtype=np.int64)[inverse]
        offsets = np.zeros(len(src) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        if offsets[-1]:
            arcs = np.concatenate([uniq_paths[i] for i in inverse])
        else:
            arcs = np.empty(0, dtype=np.int64)
        return PathTable(self.topo, src, dst, offsets, arcs)

    # -- shared helpers -------------------------------------------------
    @cached_property
    def _transit_blocked(self) -> np.ndarray:
        """No-transit mask for path unfolding: all hosts are blocked."""
        return self.topo.host_mask.copy()

    def _blocked_tree(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        """Cached host-transit-free BFS tree rooted at ``source``."""
        cache = self.__dict__.setdefault("_tree_cache", {})
        tree = cache.get(source)
        if tree is None:
            tree = self.topo.bfs_parents(source, blocked=self._transit_blocked)
            cache[source] = tree
        return tree

    def _shortest_arcs(self, source: int, target: int) -> list[int]:
        """One deterministic host-transit-free shortest path."""
        return self.topo.shortest_path_arcs(source, target, parents=self._blocked_tree(source))


class RandomWalkRouting(PathRoutingAlgorithm):
    """Seeded loop-erased random-walk routing (Schapira & Shahaf).

    Each pair walks from its source host, choosing a uniformly random
    out-arc at every switch (never stepping into a host other than the
    destination), until the destination is reached or ``cap`` steps
    pass — then the loop-erased walk is the route, or, past the cap,
    the deterministic shortest path.  ``cap=0`` auto-sizes to
    ``max(64, 4 * num_nodes)``.
    """

    name = "random-walk"

    def __init__(self, topo, seed: int = 0, cap: int = 0):
        super().__init__(topo, seed=seed)
        cap = int(cap)
        if cap < 0:
            raise ValueError("cap must be >= 0 (0 = auto)")
        self.cap = cap if cap else max(64, 4 * self.topo.num_nodes)

    def pair_arcs(self, src: int, dst: int) -> list[int]:
        g = self.topo
        s_node, t_node = g.host_node(src), g.host_node(dst)
        rng = np.random.default_rng((self.seed, src, dst))
        nodes = [s_node]
        arcs: list[int] = []
        current = s_node
        for _ in range(self.cap):
            lo, hi = int(g.indptr[current]), int(g.indptr[current + 1])
            heads = g.indices[lo:hi]
            ok = np.nonzero(~g.host_mask[heads] | (heads == t_node))[0]
            if len(ok) == 0:
                break  # dead end (all neighbors are foreign hosts)
            arc = lo + int(ok[rng.integers(len(ok))])
            current = int(g.indices[arc])
            arcs.append(arc)
            nodes.append(current)
            if current == t_node:
                return _loop_erase(nodes, arcs)
        return self._shortest_arcs(s_node, t_node)


class RackeTreeRouting(PathRoutingAlgorithm):
    """FRT/Räcke-style tree-decomposition routing.

    Builds ``trees`` seeded FRT hierarchies over the switch fabric
    (random permutation + radius scale ``beta`` per tree; level-``i``
    clusters have radius ``beta * 2**(i-1)``).  A pair picks its tree
    per-pair-deterministically, climbs its source's center chain to the
    first level where both endpoints share a cluster, descends the
    destination's chain, unfolds consecutive centers into shortest
    paths, and loop-erases the result.
    """

    name = "racke-tree"

    def __init__(self, topo, seed: int = 0, trees: int = 4):
        super().__init__(topo, seed=seed)
        trees = int(trees)
        if trees < 1:
            raise ValueError("trees must be >= 1")
        if self.topo.num_switches == 0:
            raise GraphError("racke-tree needs at least one switch node")
        self.trees = trees

    @cached_property
    def _switches(self) -> np.ndarray:
        return np.nonzero(~self.topo.host_mask)[0]

    @cached_property
    def _switch_dist(self) -> np.ndarray:
        """Host-transit-free hop distances between switches."""
        rows = [self._blocked_tree(int(v))[0] for v in self._switches]
        dist = np.stack(rows)[:, self._switches]
        if (dist < 0).any():
            raise GraphError("switch fabric is disconnected")
        return dist

    @cached_property
    def _decompositions(self) -> list[np.ndarray]:
        """Per tree: a ``(levels + 1, num_switches)`` center matrix.

        Row ``i`` holds each switch's level-``i`` cluster center (a
        switch *node id*); row 0 is the switch itself, the top row is
        one global center.
        """
        dist = self._switch_dist
        n = len(self._switches)
        diam = int(dist.max(initial=0))
        levels = max(1, int(np.ceil(np.log2(max(diam, 1)))) + 1)
        out = []
        for t in range(self.trees):
            rng = np.random.default_rng((self.seed, t))
            pi = rng.permutation(n)
            beta = float(rng.uniform(1.0, 2.0))
            centers = np.empty((levels + 1, n), dtype=np.int64)
            centers[0] = self._switches
            ordered = dist[pi]  # row k: distances from the k-th node in pi order
            for i in range(1, levels + 1):
                radius = beta * 2.0 ** (i - 1)
                first = np.argmax(ordered <= radius, axis=0)
                centers[i] = self._switches[pi[first]]
            out.append(centers)
        return out

    @cached_property
    def _switch_index(self) -> np.ndarray:
        idx = np.full(self.topo.num_nodes, -1, dtype=np.int64)
        idx[self._switches] = np.arange(len(self._switches), dtype=np.int64)
        return idx

    def _attach(self, host_node: int) -> tuple[int, int]:
        """``(arc, switch)``: the host's first attachment point."""
        g = self.topo
        lo, hi = int(g.indptr[host_node]), int(g.indptr[host_node + 1])
        for arc in range(lo, hi):
            head = int(g.indices[arc])
            if not g.host_mask[head]:
                return arc, head
        raise GraphError(f"host node {host_node} attaches to no switch")

    def pair_arcs(self, src: int, dst: int) -> list[int]:
        g = self.topo
        s_node, t_node = g.host_node(src), g.host_node(dst)
        s_arc, s_switch = self._attach(s_node)
        t_arc, t_switch = self._attach(t_node)
        tree_id = int(np.random.default_rng((self.seed, src, dst)).integers(self.trees))
        centers = self._decompositions[tree_id]
        si, ti = int(self._switch_index[s_switch]), int(self._switch_index[t_switch])
        eq = centers[:, si] == centers[:, ti]
        differ = np.nonzero(~eq)[0]
        meet = int(differ.max()) + 1 if len(differ) else 0
        chain = [int(centers[i, si]) for i in range(meet + 1)]
        chain += [int(centers[i, ti]) for i in range(meet - 1, -1, -1)]
        nodes = [s_node, s_switch]
        arcs = [s_arc]
        prev = s_switch
        for center in chain:
            if center == prev:
                continue
            seg = self._shortest_arcs(prev, center)
            arcs.extend(seg)
            nodes.extend(int(g.indices[a]) for a in seg)
            prev = center
        # t_switch == chain[-1]; hop down into the destination host
        arcs.append(int(g.arc_reverse[t_arc]))
        nodes.append(t_node)
        return _loop_erase(nodes, arcs)


class XGFTPathRouting(PathRoutingAlgorithm):
    """Replay an oblivious XGFT scheme as graph arc paths.

    ``scheme`` names any registered *oblivious* XGFT algorithm
    (default ``d-mod-k``); its routes translate arc-for-link through
    :attr:`GeneralGraph.xgft_link_map`, which makes per-arc loads equal
    the XGFT link census index-for-index — the adapter the
    cross-validation suite pins.
    """

    name = "xgft-path"

    def __init__(self, topo, seed: int = 0, scheme: str = "d-mod-k"):
        super().__init__(topo, seed=seed)
        if self.topo.xgft is None or self.topo.xgft_link_map is None:
            raise GraphError(
                "xgft-path requires a graph lowered from an XGFT "
                "(pass an XGFT topology or GeneralGraph.from_xgft)"
            )
        self.scheme = str(scheme)
        self.inner = make_algorithm(self.scheme, self.topo.xgft, seed=seed)
        if not is_oblivious(self.inner):
            raise ValueError(
                f"xgft-path wraps oblivious schemes only; {self.scheme!r} is pattern-aware"
            )

    def pair_arcs(self, src: int, dst: int) -> list[int]:
        return self.build_table([(src, dst)]).arcs.tolist()

    def build_table(self, pairs: PairInput) -> PathTable:
        """Route the batch with one ``inner.build_table`` call.

        Each flow's XGFT links become arcs through the link map, placed
        in path order: up links by ascending level, then down links by
        descending level, as :meth:`~repro.core.route.Route.links`
        yields them.
        """
        table = self.inner.build_table(pairs)
        flows, links = table.flow_links()
        level, down = self.inner.topo.link_levels(links)
        hop = np.where(down, 2 * table.nca_level[flows] - 1 - level, level)
        offsets = np.zeros(len(table) + 1, dtype=np.int64)
        np.cumsum(2 * table.nca_level, out=offsets[1:])
        arcs = np.empty(offsets[-1], dtype=np.int64)
        arcs[offsets[flows] + hop] = self.topo.xgft_link_map[links]
        return PathTable(self.topo, table.src, table.dst, offsets, arcs)


def _register(cls):
    def build(topo, seed=0, **kw):
        return cls(topo, seed=seed, **kw)

    build.supports_graphs = True  # accepts GeneralGraph (and lowers XGFT)
    build.emits_paths = True  # tables are PathTables, not port tables
    ALGORITHMS.register(cls.name, build)
    return cls


_register(RandomWalkRouting)
_register(RackeTreeRouting)
_register(XGFTPathRouting)
