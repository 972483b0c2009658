"""Local route repair over a degraded topology.

An oblivious scheme's tables are installed once; after a failure the only
cheap response is *local repair*: keep every surviving route untouched
and re-route just the broken flows through surviving NCAs.

:func:`repair_pairs` is the one repair draw (``rerandomize``): a broken
route gets a fresh up-path drawn, seeded and uniform, among the
surviving W-prefixes its pair shares — complete, and oblivious (the
draw depends on the pair and the seed alone).  :func:`repair_table`
runs it over a :class:`~repro.core.base.RouteTable` and drops the pairs
with no surviving NCA.  Every engine, the dynamic driver, the route
store and ``repro serve`` repair through these two.

The draw depends on the source, so a destination-deterministic scheme
loses LFT-expressibility for the repaired flows.
:func:`export_repaired_lfts` instead repairs a broken row by a greedy
climb that replaces each dead up-port by the cyclically next surviving
one: a function of ``(switch, destination)`` only, so D-mod-k and
r-NCA-d keep per-switch tables.  The price is completeness: the climb
can dead-end in a slimmed tree even when another NCA survives.  This is
the compact-routing trade-off of Räcke & Schmid in miniature: full
repairability needs per-pair state, per-switch tables constrain what
can be repaired.
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
    "export_repaired_lfts",
    "PAIR_INTACT",
    "PAIR_REPAIRED",
    "PAIR_DISCONNECTED",
]

#: per-pair outcome codes of :func:`repair_pairs`
PAIR_INTACT = 0
PAIR_REPAIRED = 1
PAIR_DISCONNECTED = 2


class UnreachablePairError(ValueError):
    """No surviving route exists between a pair (for the repair asked for)."""

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


def _greedy_climb(
    degraded: DegradedTopology, src: int, dst: int, base_ports: list[int]
) -> list[int]:
    """Destination-deterministic repair of one route: a cyclic next-alive-port climb.

    At the level-``i`` switch the port is the first of ``r_i, r_i+1,
    ...`` (cyclic) whose cable and parent are alive — a function of
    (switch, destination) when the base scheme's ``r_i`` is.  The forced
    descent to ``dst`` must survive too; the climb never backtracks
    (that would break per-switch determinism) and raises
    :class:`UnreachablePairError` instead.
    """
    topo = degraded.topo
    chosen: list[int] = []
    for i, want in enumerate(base_ports):
        alive_ports = degraded.alive_up_ports(i, topo.subtree_node(src, tuple(chosen), i))
        if not alive_ports:
            reason = f"greedy-dst dead end: no live up-port at level {i}"
            raise UnreachablePairError(src, dst, reason)
        chosen.append(min(alive_ports, key=lambda p, want=want, w=topo.w[i]: (p - want) % w))
    for i, port in enumerate(chosen):
        down_node = topo.subtree_node(dst, tuple(chosen), i)
        if not degraded.cable_alive[topo.up_link_index(i, down_node, port)]:
            raise UnreachablePairError(
                src,
                dst,
                f"greedy-dst dead end: descent blocked at level {i} "
                "(another NCA may survive; repair_table's draw reaches it)",
            )
    return chosen


def export_repaired_lfts(
    base: RoutingAlgorithm | str,
    degraded: DegradedTopology,
    seed: int = 0,
):
    """Re-export per-switch LFTs for a repaired destination-deterministic scheme.

    ``base`` is a live algorithm or a registry spec string
    (``"r-nca-d(map_kind=mod)"``), instantiated on the degraded fabric's
    topology with ``seed``.  It routes every ordered leaf pair in one
    :meth:`~repro.core.base.RoutingAlgorithm.build_table` call; only its
    broken rows take the greedy climb (module docstring), and the
    surviving rows become LFTs through
    :func:`repro.core.forwarding.forwarding_tables_from_table`.

    Returns ``(tables, skipped)``, ``skipped`` holding a destination-major
    ``(src, dst, reason)`` per pair the climb cannot repair.  Raises
    :class:`~repro.core.forwarding.InconsistentRouteError` if ``base``
    is not destination-deterministic (e.g. S-mod-k), as the pristine
    exporter would.
    """
    from ..core.factory import make_algorithm
    from ..core.forwarding import forwarding_tables_from_table

    if isinstance(base, str):
        base = make_algorithm(base, degraded.topo, seed=seed)
    if degraded.topo != base.topo:
        raise ValueError("degraded topology does not match the base algorithm")
    leaves = range(base.topo.num_leaves)
    table = base.build_table([(src, dst) for dst in leaves for src in leaves if src != dst])
    keep = np.ones(len(table), dtype=bool)
    skipped: list[tuple[int, int, str]] = []
    for f in np.flatnonzero(degraded.broken_flow_mask(table)).tolist():
        src, dst, level = int(table.src[f]), int(table.dst[f]), int(table.nca_level[f])
        try:
            row = table.ports[f, :level]  # a view: this call's own table, repaired in place
            row[:] = _greedy_climb(degraded, src, dst, row.tolist())
        except UnreachablePairError as exc:
            skipped.append((src, dst, exc.reason))
            keep[f] = False
    return forwarding_tables_from_table(table.take(np.flatnonzero(keep))), tuple(skipped)
