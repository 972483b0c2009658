"""Glue between topologies, routing tables, patterns and the engines.

Defines the common *link index space* used by every network model:

* indices ``[0, topo.num_directed_links)`` — the XGFT's inter-level links
  (per :meth:`repro.topology.XGFT.up_link_index` and friends);
* then one *injection* link per leaf (host adapter, host -> first switch
  queue) and one *ejection* link per leaf.

The injection/ejection links are where endpoint contention materializes:
they exist in every model, including the ideal Full-Crossbar, so
slowdown ratios measure added *network* contention only — exactly the
paper's methodology (Sec. VI-B).

Note the modelled adapter links are distinct from the level-0 tree links:
the level-0 up/down links represent the host-switch cable (shared by the
same flows as the adapter, so for ``w1 == 1`` they are redundant but
harmless), while the adapter links exist in all models uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.base import RouteTable
from ..patterns.base import Pattern, Phase
from ..topology import XGFT
from .config import NetworkConfig, PAPER_CONFIG
from .engines import DEFAULT_ENGINE, make_fluid_simulator

__all__ = [
    "LinkSpace",
    "xgft_link_space",
    "crossbar_link_space",
    "flow_incidence",
    "simulate_phase_fluid",
    "crossbar_flows_time",
    "crossbar_phase_time",
    "crossbar_pattern_time",
]


@dataclass(frozen=True)
class LinkSpace:
    """A directed-link index space plus helpers to place flows into it."""

    num_links: int
    num_leaves: int
    #: first index of the injection links
    injection_base: int
    #: first index of the ejection links
    ejection_base: int

    def injection(self, leaf: int) -> int:
        return self.injection_base + leaf

    def ejection(self, leaf: int) -> int:
        return self.ejection_base + leaf


def xgft_link_space(topo: XGFT) -> LinkSpace:
    """Link space of an XGFT: tree links then injection/ejection links."""
    base = topo.num_directed_links
    return LinkSpace(
        num_links=base + 2 * topo.num_leaves,
        num_leaves=topo.num_leaves,
        injection_base=base,
        ejection_base=base + topo.num_leaves,
    )


def crossbar_link_space(num_leaves: int) -> LinkSpace:
    """Link space of the ideal single-stage crossbar: adapters only."""
    return LinkSpace(
        num_links=2 * num_leaves,
        num_leaves=num_leaves,
        injection_base=0,
        ejection_base=num_leaves,
    )


def flow_incidence(
    table: RouteTable, space: LinkSpace
) -> tuple[np.ndarray, np.ndarray]:
    """COO flow↔link incidence: tree links plus adapter links.

    Fully vectorized — :meth:`RouteTable.flow_links` already yields the
    tree-link expansion as arrays, and the injection/ejection links are
    plain offsets of the src/dst columns.
    """
    flows, links = table.flow_links()
    n = len(table)
    ids = np.arange(n, dtype=np.int64)
    coo_flow = np.concatenate((flows, ids, ids))
    coo_link = np.concatenate(
        (links, space.injection_base + table.src, space.ejection_base + table.dst)
    )
    return coo_flow, coo_link


def _makespan(
    num_links: int,
    sizes: np.ndarray,
    coo_flow: np.ndarray,
    coo_link: np.ndarray,
    config: NetworkConfig,
    engine: str,
) -> float:
    """Time for flows that all start at t=0 to drain on a fresh engine.

    ``coo_flow``/``coo_link`` is the flow↔link incidence over a
    ``num_links`` link space, with flow ``i`` moving ``sizes[i]`` bytes.
    The one engine run behind every phase and crossbar time.
    """
    sim = make_fluid_simulator(engine, num_links, config.link_bandwidth)
    sim.add_flows(np.arange(len(sizes), dtype=np.int64), sizes, coo_flow, coo_link)
    return sim.run_until_idle()


def simulate_phase_fluid(
    table: RouteTable,
    sizes: Sequence[float],
    config: NetworkConfig = PAPER_CONFIG,
    degraded=None,
    engine: str = DEFAULT_ENGINE,
) -> float:
    """Makespan of one bulk-synchronous phase on an XGFT (fluid engine).

    ``table`` routes the phase's flows; ``sizes`` gives per-flow bytes.
    All flows start at t=0; the phase ends when the last one drains.

    ``engine`` names a registered fluid-kind backend
    (:data:`repro.sim.engines.ENGINES`): the vectorized ``fluid-vec``
    default, or the scalar ``fluid`` reference.

    ``degraded`` (a :class:`repro.faults.DegradedTopology`) asserts the
    table was repaired against that failure mask: a flow routed over a
    dead link is a caller bug and raises instead of silently simulating
    bandwidth a failed cable no longer has.
    """
    if len(sizes) != len(table):
        raise ValueError("need one size per routed flow")
    if degraded is not None:
        broken = degraded.broken_flow_mask(table)
        if broken.any():
            f = int(np.nonzero(broken)[0][0])
            raise ValueError(
                f"flow {f} ({int(table.src[f])} -> {int(table.dst[f])}) and "
                f"{int(broken.sum()) - 1} other(s) traverse dead links; repair "
                "the table against the degraded topology first"
            )
    space = xgft_link_space(table.topo)
    coo_flow, coo_link = flow_incidence(table, space)
    return _makespan(
        space.num_links, np.asarray(sizes, dtype=np.float64), coo_flow, coo_link, config, engine
    )


def crossbar_flows_time(
    pairs,
    sizes,
    num_leaves: int,
    config: NetworkConfig = PAPER_CONFIG,
    engine: str = DEFAULT_ENGINE,
) -> float:
    """Completion time of one phase's flows on the ideal Full-Crossbar.

    Only injection/ejection serialization applies: "the best performance
    that can be obtained in the absence of network contention".
    ``pairs`` are ``(src, dst)`` leaves (any ``(F, 2)`` integer
    array-like) and ``sizes`` the F message sizes; self-pairs move no
    network bytes and are dropped.  An endpoint outside ``[0,
    num_leaves)`` raises.
    """
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if ((arr < 0) | (arr >= num_leaves)).any():
        raise ValueError(f"crossbar endpoint outside leaves 0..{num_leaves - 1}")
    sizes = np.asarray(sizes, dtype=np.float64)
    keep = arr[:, 0] != arr[:, 1]
    arr, sizes = arr[keep], sizes[keep]
    if not len(arr):
        return 0.0
    space = crossbar_link_space(num_leaves)
    ids = np.arange(len(arr), dtype=np.int64)
    return _makespan(
        space.num_links,
        sizes,
        np.concatenate((ids, ids)),
        np.concatenate((space.injection_base + arr[:, 0], space.ejection_base + arr[:, 1])),
        config,
        engine,
    )


def crossbar_phase_time(
    phase: Phase,
    num_leaves: int,
    config: NetworkConfig = PAPER_CONFIG,
    engine: str = DEFAULT_ENGINE,
) -> float:
    """Full-Crossbar time of one phase; see :func:`crossbar_flows_time`."""
    return crossbar_flows_time(
        np.column_stack((phase.src, phase.dst)), phase.sizes, num_leaves, config, engine=engine
    )


def crossbar_pattern_time(
    pattern: Pattern,
    num_leaves: int,
    config: NetworkConfig = PAPER_CONFIG,
    engine: str = DEFAULT_ENGINE,
) -> float:
    """Total Full-Crossbar time of a multi-phase pattern."""
    return sum(
        crossbar_phase_time(phase, num_leaves, config, engine=engine)
        for phase in pattern.phases
    )
