"""NetworkX export and plain-text rendering of XGFT topologies.

These helpers exist for interoperability (analysis with the standard
graph toolbox, verification of structural claims with independent code)
and for the examples; none of the performance-critical paths go through
networkx.  networkx is an optional dependency: only :func:`to_networkx`
imports it, so ``import repro`` works on a numpy-only install.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .xgft import XGFT

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["to_networkx", "ascii_art", "degree_histogram"]


def to_networkx(topo: XGFT) -> nx.Graph:
    """Undirected graph with nodes ``(level, id)`` and edge attrs ``up_port``/``down_port``.

    Node attributes: ``level``, ``label`` (Table-I tuple, MSB first),
    ``kind`` (``"host"`` / ``"switch"``).
    """
    import networkx as nx

    g = nx.Graph(topology=topo.spec())
    for level, node in topo.nodes():
        g.add_node(
            (level, node),
            level=level,
            label=topo.label(level, node),
            kind="host" if level == 0 else "switch",
        )
    for level in range(topo.h):
        for node in range(topo.num_nodes(level)):
            for port in range(topo.w[level]):
                parent = topo.up_neighbor(level, node, port)
                g.add_edge(
                    (level, node),
                    (level + 1, parent),
                    up_port=port,
                    down_port=topo.down_port_to(level + 1, parent, node),
                    level=level,
                )
    return g


def degree_histogram(topo: XGFT) -> dict[int, dict[int, int]]:
    """Per-level histogram ``{level: {degree: count}}`` of total node degree."""
    out: dict[int, dict[int, int]] = {}
    for level in range(topo.h + 1):
        degree = topo.num_up_ports(level) + topo.num_down_ports(level)
        out.setdefault(level, {})[degree] = topo.num_nodes(level)
    return out


def ascii_art(topo: XGFT, max_width: int = 100) -> str:
    """A small plain-text sketch of the topology, one line per level.

    Intended for logs and the quickstart example; for large topologies the
    per-node rendering is elided and only counts are shown.
    """
    lines = [f"{topo.spec()}  ({topo.num_leaves} hosts, {topo.num_switches} switches)"]
    for level in range(topo.h, -1, -1):
        n = topo.num_nodes(level)
        tag = "hosts " if level == 0 else "switch"
        if n * 4 <= max_width:
            cells = " ".join(f"{node:>2d}" for node in range(n))
            lines.append(f"L{level} {tag} [{n:>4d}]  {cells}")
        else:
            lines.append(f"L{level} {tag} [{n:>4d}]  (elided)")
    return "\n".join(lines)
