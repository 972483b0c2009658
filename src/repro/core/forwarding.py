"""Per-switch destination-based forwarding tables (LFT export).

Destination-deterministic schemes (D-mod-k, r-NCA-d and — trivially —
any scheme restricted to a fixed pattern) can be realized on real
hardware as per-switch *linear forwarding tables*: each switch maps a
destination leaf id to one output port, as OpenSM does for InfiniBand
fat trees.  This module derives those tables from a routed
:class:`~repro.core.route.RouteTable` — a scheme's own
:meth:`~repro.core.base.RoutingAlgorithm.build_table`, a stored table
or a repaired one — and verifies consistency (source-dependent schemes
like S-mod-k cannot be expressed this way and are rejected with a
diagnostic).

Port numbering convention for a switch at level ``l``: down-ports
``0..m_l-1`` first, then up-ports ``m_l..m_l+w_{l+1}-1`` (matching the
paper's "local output ports ... numbered from 0 to w_{l+1}-1" for the
ascending part, shifted past the descending ports).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

from ..topology import XGFT
from .base import RoutingAlgorithm
from .route import RouteTable

__all__ = [
    "ForwardingTables",
    "build_forwarding_tables",
    "forwarding_tables_from_table",
    "InconsistentRouteError",
]


class InconsistentRouteError(ValueError):
    """A routing scheme required two different ports for one (switch, destination)."""


@dataclass
class ForwardingTables:
    """Destination-indexed output-port tables for every switch.

    ``tables[(level, node)][dst] = port`` with the port numbering of the
    module docstring.  Missing entries mean the switch never forwards to
    that destination under the routes the tables were built from.
    """

    topo: XGFT
    tables: Dict[tuple[int, int], Dict[int, int]] = field(default_factory=dict)

    def port_for(self, level: int, node: int, dst: int) -> int:
        """Output port of switch ``(level, node)`` towards leaf ``dst``."""
        return self.tables[(level, node)][dst]

    def walk(self, src: int, dst: int, max_hops: int | None = None) -> list[tuple[int, int]]:
        """Follow the tables from ``src`` to ``dst``; returns the node path.

        Raises ``KeyError`` if a switch has no entry for ``dst`` and
        ``RuntimeError`` on a forwarding loop (longer than ``max_hops``).
        """
        topo = self.topo
        if max_hops is None:
            max_hops = 2 * topo.h + 2
        path = [(0, src)]
        level, node = 0, src
        # first hop: a leaf has only up-ports; take the one recorded for it
        while (level, node) != (0, dst):
            if len(path) > max_hops:
                raise RuntimeError(f"forwarding loop routing {src}->{dst}: {path}")
            if level == 0:
                port = self.tables[(0, node)][dst]
                level, node = 1, topo.up_neighbor(0, node, port)
            else:
                port = self.tables[(level, node)][dst]
                m_l = topo.m[level - 1]
                if port < m_l:
                    level, node = level - 1, topo.down_neighbor(level, node, port)
                else:
                    level, node = level + 1, topo.up_neighbor(level, node, port - m_l)
            path.append((level, node))
        return path


def build_forwarding_tables(
    algorithm: RoutingAlgorithm,
    destinations: list[int] | None = None,
    pairs: Iterable[tuple[int, int]] | None = None,
) -> ForwardingTables:
    """Build per-switch LFTs from the algorithm's routes.

    By default every ordered leaf pair is routed; ``destinations``
    restricts the destination set, ``pairs`` (mutually exclusive with
    ``destinations``) restricts to an explicit pair list.  The pairs are
    routed in one :meth:`~repro.core.base.RoutingAlgorithm.build_table`
    call and the LFTs derived from that table
    (:func:`forwarding_tables_from_table`).

    Raises :class:`InconsistentRouteError` if the algorithm's routes are
    not destination-deterministic (two sources would need different ports
    at the same switch for the same destination).
    """
    topo = algorithm.topo
    if pairs is not None and destinations is not None:
        raise ValueError("pass either destinations or pairs, not both")
    if pairs is None:
        if destinations is None:
            destinations = list(topo.leaves())
        pairs = [(src, dst) for dst in destinations for src in topo.leaves() if src != dst]
    return forwarding_tables_from_table(algorithm.build_table(pairs))


def forwarding_tables_from_table(table: RouteTable) -> ForwardingTables:
    """Build per-switch LFTs from an already-routed table, no algorithm needed.

    A :class:`~repro.core.route.RouteTable` (for example one decoded
    from a stored compact artifact) already holds every up-port
    sequence, so the LFTs can be re-derived offline, without
    re-instantiating — or even knowing — the scheme that produced it.
    Rows are recorded in table order.  The same destination-determinism
    check applies: inconsistent tables raise
    :class:`InconsistentRouteError`.
    """
    out = ForwardingTables(table.topo)
    for f in range(len(table)):
        src, dst = int(table.src[f]), int(table.dst[f])
        if src == dst:
            continue
        lvl = int(table.nca_level[f])
        _record_route(out, src, dst, tuple(int(p) for p in table.ports[f, :lvl]))
    return out


def _record_route(out: ForwardingTables, src: int, dst: int, up_ports: tuple[int, ...]) -> None:
    """Trace one route into the tables (ascending up-ports, forced descent)."""
    topo = out.topo
    lvl = len(up_ports)

    def record(level: int, node: int, dst: int, port: int) -> None:
        table = out.tables.setdefault((level, node), {})
        prev = table.get(dst)
        if prev is None:
            table[dst] = port
        elif prev != port:
            raise InconsistentRouteError(
                f"switch (level={level}, node={node}) would need both port "
                f"{prev} and port {port} for destination {dst}; the routes "
                "are not destination-deterministic"
            )

    if lvl == 0:
        return
    # ascending part: at the leaf and at levels 1..lvl-1 record up-ports
    record(0, src, dst, up_ports[0])
    node = topo.up_neighbor(0, src, up_ports[0])
    for i in range(1, lvl):
        m_l = topo.m[i - 1]
        record(i, node, dst, m_l + up_ports[i])
        node = topo.up_neighbor(i, node, up_ports[i])
    # descending part: record down-ports along the unique path to dst
    for i in range(lvl, 0, -1):
        down_port = (dst // topo.mprod(i - 1)) % topo.m[i - 1]
        record(i, node, dst, down_port)
        node = topo.down_neighbor(i, node, down_port)
    assert node == dst, "descending walk must terminate at the destination"
