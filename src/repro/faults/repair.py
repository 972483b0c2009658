"""Local route repair over a degraded topology.

An oblivious scheme's tables are installed once; after a failure the only
cheap response is *local repair*: keep every surviving route untouched
and re-route just the broken flows through surviving NCAs.  This module
implements that, in two forms:

* :func:`repair_table` — vectorized batch repair of a
  :class:`~repro.core.base.RouteTable`: broken flows get a fresh up-path
  drawn (seeded, uniformly) among the surviving W-prefixes shared by the
  pair; pairs with no surviving NCA are rejected with a diagnostic.
* :class:`RepairedRouting` — the same policy as a
  :class:`~repro.core.base.RoutingAlgorithm` wrapper, so the replay
  engine and the LFT exporter can route through a degraded fabric
  transparently.

Repair policies:

``rerandomize`` (default)
    Uniform seeded choice among *all* surviving shared prefixes.
    Complete (repairs every connected pair) and oblivious, but the
    choice depends on the pair, so a destination-deterministic base
    scheme generally loses LFT-expressibility for the repaired flows.

``greedy-dst``
    Climb towards the destination, at each switch replacing a dead
    up-port by the cyclically next surviving one.  The port choice is a
    function of ``(switch, destination)`` only, so a
    destination-deterministic base scheme *stays* destination-
    deterministic and its LFTs can be re-exported via
    :func:`repro.core.forwarding.build_forwarding_tables`
    (:func:`export_repaired_lfts`).  The price of per-switch determinism
    is completeness: a greedy climb can dead-end in a slimmed tree even
    when another NCA survives; such pairs are rejected.

This is the compact-routing trade-off of Räcke & Schmid in miniature:
full repairability needs per-pair state, per-switch tables constrain
what can be repaired.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.base import RouteTable, RoutingAlgorithm
from ..core.random_nca import splitmix64
from .degraded import DegradedTopology

__all__ = [
    "UnreachablePairError",
    "RepairResult",
    "repair_table",
    "repair_pairs",
    "RepairedRouting",
    "export_repaired_lfts",
    "PAIR_INTACT",
    "PAIR_REPAIRED",
    "PAIR_DISCONNECTED",
]

REPAIR_POLICIES = ("rerandomize", "greedy-dst")

#: per-pair outcome codes of :func:`repair_pairs`
PAIR_INTACT = 0
PAIR_REPAIRED = 1
PAIR_DISCONNECTED = 2


class UnreachablePairError(ValueError):
    """No surviving route exists between a pair (under the active policy)."""

    def __init__(self, src: int, dst: int, reason: str):
        super().__init__(f"no surviving route {src} -> {dst}: {reason}")
        self.src = src
        self.dst = dst
        self.reason = reason


@dataclass(frozen=True)
class RepairResult:
    """Outcome of a batch repair.

    ``table`` holds the surviving flows (intact + repaired) in their
    original order with disconnected flows removed; the three masks are
    indexed by the *original* flow positions.
    """

    table: RouteTable
    #: flows whose original route crossed a dead link
    broken: np.ndarray
    #: broken flows successfully re-routed
    repaired: np.ndarray
    #: broken flows with no surviving NCA (dropped from ``table``)
    disconnected: np.ndarray
    #: one human-readable line per disconnected flow
    diagnostics: tuple[str, ...]

    @property
    def num_broken(self) -> int:
        return int(self.broken.sum())

    @property
    def num_repaired(self) -> int:
        return int(self.repaired.sum())

    @property
    def num_disconnected(self) -> int:
        return int(self.disconnected.sum())

    @property
    def disconnected_fraction(self) -> float:
        total = len(self.broken)
        return self.num_disconnected / total if total else 0.0

    def surviving_rows(self) -> np.ndarray:
        """Original row indices of the flows kept in ``table``."""
        return np.nonzero(~self.disconnected)[0]


def _decode_prefix(topo, prefix: int, level: int) -> tuple[int, ...]:
    """W-prefix value (mixed radix w_1..w_level, LSB first) -> port tuple."""
    ports = []
    for i in range(level):
        prefix, digit = divmod(prefix, topo.w[i])
        ports.append(digit)
    return tuple(ports)


def _draw_prefix(
    alive_row: np.ndarray, seed: int, src: int, dst: int
) -> int | None:
    """Seeded uniform choice among alive prefix values (None if none)."""
    candidates = np.nonzero(alive_row)[0]
    if len(candidates) == 0:
        return None
    h = splitmix64(np.asarray([np.uint64((seed & 0xFFFFFFFF))], dtype=np.uint64))
    h = splitmix64(h ^ np.uint64(src))
    h = splitmix64(h ^ (np.uint64(dst) + np.uint64(0x9E3779B97F4A7C15)))
    return int(candidates[int(h[0] % np.uint64(len(candidates)))])


def repair_table(
    table: RouteTable,
    degraded: DegradedTopology,
    seed: int = 0,
) -> RepairResult:
    """Repair a route table against a degraded topology (``rerandomize``).

    Intact routes are kept bit-for-bit (an oblivious scheme never moves
    working traffic); broken routes are re-drawn uniformly among the
    pair's surviving shared W-prefixes, seeded so the repair is itself a
    static oblivious assignment.  Flows with no surviving NCA are dropped
    from the returned table and reported in ``diagnostics``.  It runs
    :func:`repair_pairs` and keeps the rows that draw did not disconnect.
    """
    topo = table.topo
    if degraded.topo != topo:
        raise ValueError("degraded topology does not match the route table")
    ports, status = repair_pairs(
        degraded, table.src, table.dst, table.nca_level, table.ports, seed=seed
    )
    repaired = status == PAIR_REPAIRED
    disconnected = status == PAIR_DISCONNECTED
    diagnostics = tuple(
        f"flow {f}: {table.src[f]} -> {table.dst[f]} disconnected (no surviving NCA at "
        f"level {table.nca_level[f]}; {degraded.num_failed_cables} cables down)"
        for f in np.nonzero(disconnected)[0]
    )
    keep = ~disconnected
    repaired_table = RouteTable(
        topo, table.src[keep], table.dst[keep], table.nca_level[keep], ports[keep]
    )
    return RepairResult(
        table=repaired_table,
        broken=repaired | disconnected,
        repaired=repaired,
        disconnected=disconnected,
        diagnostics=diagnostics,
    )


def repair_pairs(
    degraded: DegradedTopology,
    src: np.ndarray,
    dst: np.ndarray,
    nca_level: np.ndarray,
    ports: np.ndarray,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """What-if repair of queried routes, aligned and copy-on-write.

    The one repair draw, behind :func:`repair_table` too: takes the raw
    arrays of a batch lookup (possibly gathered from a read-only mmap'd
    store entry), never mutates them, and keeps the output aligned with
    the query — disconnected pairs stay in place with zeroed ports
    instead of being dropped.

    Returns ``(ports_out, status)`` where ``ports_out`` is a fresh
    ``(B, h)`` matrix and ``status[b]`` is :data:`PAIR_INTACT`,
    :data:`PAIR_REPAIRED` or :data:`PAIR_DISCONNECTED`.  Same seed,
    same pair → same surviving prefix, so a what-if answer agrees with
    a persisted repaired table.
    """
    table = RouteTable(degraded.topo, src, dst, nca_level, ports)
    broken = degraded.broken_flow_mask(table)
    out = np.array(ports, dtype=np.int64, copy=True)
    status = np.zeros(len(table), dtype=np.int64)
    for f in np.nonzero(broken)[0]:
        s, d = int(table.src[f]), int(table.dst[f])
        level = int(table.nca_level[f])
        alive = degraded.alive_prefixes(level)
        choice = _draw_prefix(alive[s] & alive[d], seed, s, d)
        if choice is None:
            status[f] = PAIR_DISCONNECTED
            out[f, :] = 0
            continue
        out[f, :level] = _decode_prefix(degraded.topo, choice, level)
        out[f, level:] = 0
        status[f] = PAIR_REPAIRED
    return out, status


class RepairedRouting(RoutingAlgorithm):
    """A routing algorithm wrapper that repairs routes on the fly.

    Routes of ``base`` that survive the degradation are returned
    unchanged; broken ones are repaired per the chosen policy (module
    docstring).  Disconnected pairs raise :class:`UnreachablePairError`.
    ``base`` accepts a live algorithm or a registry spec string
    (``"d-mod-k"``, ``"r-nca-d(map_kind=mod)"``), instantiated on the
    degraded fabric's underlying topology with ``seed``.

    The wrapper stays oblivious iff ``base`` is: the pattern hook is
    delegated only when ``base`` overrides it (as an instance attribute,
    which :func:`repro.core.factory.is_oblivious` inspects), so the
    sweep engine's structural obliviousness check and the replay engine
    both work through it.
    """

    def __init__(
        self,
        base: RoutingAlgorithm | str,
        degraded: DegradedTopology,
        seed: int = 0,
        policy: str = "rerandomize",
    ):
        if isinstance(base, str):
            from ..core.factory import make_algorithm

            base = make_algorithm(base, degraded.topo, seed=seed)
        if degraded.topo != base.topo:
            raise ValueError("degraded topology does not match the base algorithm")
        if policy not in REPAIR_POLICIES:
            raise ValueError(
                f"unknown repair policy {policy!r}; known: {', '.join(REPAIR_POLICIES)}"
            )
        super().__init__(base.topo)
        self.base = base
        self.degraded = degraded
        self.seed = int(seed)
        self.policy = policy
        self.name = f"{base.name}+repair"
        if type(base).prepare is not RoutingAlgorithm.prepare:
            # delegate the pattern hook for pattern-aware bases; kept an
            # instance attribute so an oblivious base leaves the class
            # prepare untouched (structural obliviousness check)
            self.prepare = base.prepare

    def up_ports(self, src: int, dst: int) -> tuple[int, ...]:
        base_ports = self.base.up_ports(src, dst)
        if self._route_alive(src, dst, base_ports):
            return base_ports
        if self.policy == "greedy-dst":
            return self._greedy_dst_ports(src, dst, base_ports)
        level = len(base_ports)
        alive = self.degraded.alive_prefixes(level)
        choice = _draw_prefix(alive[src] & alive[dst], self.seed, src, dst)
        if choice is None:
            raise UnreachablePairError(src, dst, f"no surviving NCA at level {level}")
        return _decode_prefix(self.topo, choice, level)

    def _route_alive(self, src: int, dst: int, up_ports: tuple[int, ...]) -> bool:
        topo, alive = self.topo, self.degraded.cable_alive
        for i, port in enumerate(up_ports):
            up_node = topo.subtree_node(src, up_ports, i)
            down_node = topo.subtree_node(dst, up_ports, i)
            if not (
                alive[topo.up_link_index(i, up_node, port)]
                and alive[topo.up_link_index(i, down_node, port)]
            ):
                return False
        return True

    def _greedy_dst_ports(
        self, src: int, dst: int, base_ports: tuple[int, ...]
    ) -> tuple[int, ...]:
        """Destination-deterministic repair: cyclic next-alive-port climb.

        At the level-``i`` switch the chosen port is the first port of
        the cyclic sequence ``r_i, r_i+1, ...`` whose cable is alive *at
        that switch* — a function of (switch, destination) whenever
        ``base`` is destination-deterministic, since ``r_i`` then is.
        The forced descent from the reached ancestor to ``dst`` is then
        checked; any dead element rejects the pair (greedy repair does
        not backtrack — doing so would break per-switch determinism).
        """
        topo, degraded = self.topo, self.degraded
        level = len(base_ports)
        chosen: list[int] = []
        for i in range(level):
            node = topo.subtree_node(src, tuple(chosen), i)
            alive_ports = degraded.alive_up_ports(i, node)
            if not alive_ports:
                raise UnreachablePairError(
                    src, dst, f"greedy-dst dead end: no live up-port at level {i}"
                )
            want = base_ports[i]
            port = min(alive_ports, key=lambda p, want=want, w=topo.w[i]: (p - want) % w)
            chosen.append(port)
        # the descent to dst is forced; verify it survives
        for i in range(level):
            down_node = topo.subtree_node(dst, tuple(chosen), i)
            if not degraded.cable_alive[topo.up_link_index(i, down_node, chosen[i])]:
                raise UnreachablePairError(
                    src,
                    dst,
                    f"greedy-dst dead end: descent blocked at level {i} "
                    "(another NCA may survive; use policy='rerandomize')",
                )
        return tuple(chosen)


def export_repaired_lfts(
    base: RoutingAlgorithm | str,
    degraded: DegradedTopology,
    seed: int = 0,
):
    """Re-export per-switch LFTs for a repaired destination-deterministic scheme.

    ``base`` accepts a live algorithm or a registry spec string (see
    :class:`RepairedRouting`).
    Repairs ``base`` with the ``greedy-dst`` policy and materializes the
    surviving routes as linear forwarding tables via
    :func:`repro.core.forwarding.build_forwarding_tables`.  Pairs the
    greedy policy cannot repair are skipped and returned as diagnostics.

    Returns ``(tables, skipped)`` where ``skipped`` is a tuple of
    ``(src, dst, reason)``.  Raises
    :class:`~repro.core.forwarding.InconsistentRouteError` if ``base``
    is not destination-deterministic (e.g. S-mod-k) — exactly as the
    pristine exporter would.
    """
    from ..core.forwarding import build_forwarding_tables

    repaired = RepairedRouting(base, degraded, seed=seed, policy="greedy-dst")
    pairs: list[tuple[int, int]] = []
    skipped: list[tuple[int, int, str]] = []
    for dst in repaired.topo.leaves():
        for src in repaired.topo.leaves():
            if src == dst:
                continue
            try:
                repaired.up_ports(src, dst)
            except UnreachablePairError as exc:
                skipped.append((src, dst, exc.reason))
                continue
            pairs.append((src, dst))
    tables = build_forwarding_tables(repaired, pairs=pairs)
    return tables, tuple(skipped)
