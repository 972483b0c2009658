"""Generalized contention analytics for path-routed graphs.

The XGFT contention census (:mod:`repro.contention`) already runs on
:class:`~repro.graphs.table.PathTable` through the duck-typed
``flow_links()`` surface — ``max_link_load`` and friends need nothing
new.  What the graph side adds is *capacity-aware congestion* and the
oblivious-routing quality measure the literature states results in:

* :func:`arc_congestion` — per-arc load divided by arc capacity;
* :func:`congestion_lower_bound` — an LP-free lower bound on the max
  relative congestion *any* routing (fractional or integral) must
  incur for a demand set, from two families of demand cuts:

  - **host cuts**: all traffic leaving (entering) a host must cross
    that host's out- (in-) arcs, so
    ``max_congestion >= demand_out(h) / cap_out(h)``;
  - **the distance cut**: a unit of ``s -> t`` demand consumes at
    least ``dist(s, t)`` arc-capacity units, so
    ``max_congestion >= sum(demand * dist) / sum(capacity)``.

* :func:`competitive_ratio` — achieved max congestion over that lower
  bound; the empirical analogue of the competitive ratios proven by
  Räcke (``O(log n)``) and Schapira–Shahaf.

The module registers ``max_congestion``, ``mean_congestion``,
``congestion_lower_bound`` and ``competitive_ratio`` in
:data:`~repro.metrics.METRICS`; they compute on path tables and answer
:data:`~repro.metrics.SKIPPED` on XGFT port tables (whose census the
paper's own metrics already cover).
"""

from __future__ import annotations

import numpy as np

from ..metrics import SKIPPED, EvalContext, register_metric
from .graph import GeneralGraph
from .table import PathTable

__all__ = [
    "arc_loads",
    "arc_congestion",
    "congestion_lower_bound",
    "competitive_ratio",
]


def arc_loads(table: PathTable, weights: np.ndarray | None = None) -> np.ndarray:
    """Per-arc traffic of a path table (flow count or ``weights`` sum)."""
    flow_ids, link_ids = table.flow_links()
    w = None if weights is None else np.asarray(weights, dtype=np.float64)[flow_ids]
    return np.bincount(
        link_ids, weights=w, minlength=table.topo.num_directed_links
    ).astype(np.float64)


def arc_congestion(table: PathTable, weights: np.ndarray | None = None) -> np.ndarray:
    """Per-arc relative congestion: load over arc capacity."""
    return arc_loads(table, weights) / table.topo.capacity


def congestion_lower_bound(
    graph: GeneralGraph,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | None = None,
) -> float:
    """LP-free lower bound on any routing's max relative congestion.

    ``src``/``dst`` are per-flow leaf ids; ``weights`` per-flow demand
    (default 1).  The bound is the max of the host-cut bounds and the
    distance cut (see module docstring); it holds for every routing,
    fractional ones included, so dividing an achieved congestion by it
    never understates the competitive ratio.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if len(src) == 0:
        return 0.0
    w = np.ones(len(src)) if weights is None else np.asarray(weights, dtype=np.float64)
    out_demand = np.bincount(src, weights=w, minlength=graph.num_leaves)
    in_demand = np.bincount(dst, weights=w, minlength=graph.num_leaves)
    bound = 0.0
    for leaf in np.nonzero(out_demand + in_demand)[0]:
        node = graph.host_node(int(leaf))
        cap = float(graph.capacity[graph.indptr[node] : graph.indptr[node + 1]].sum())
        # in- and out-capacity agree: both arcs of a cable share its rating
        bound = max(bound, out_demand[leaf] / cap, in_demand[leaf] / cap)
    dist = graph.host_distances[src, graph.hosts[dst]]
    bound = max(bound, float((w * dist).sum() / graph.capacity.sum()))
    return float(bound)


def competitive_ratio(table: PathTable, weights: np.ndarray | None = None) -> float:
    """Achieved max congestion over the demand's lower bound (>= 1)."""
    achieved = float(arc_congestion(table, weights).max(initial=0.0))
    bound = congestion_lower_bound(table.topo, table.src, table.dst, weights)
    return achieved / bound if bound > 0 else 0.0


# ----------------------------------------------------------------------
# Registered metrics (path tables only; SKIPPED on XGFT port tables)
# ----------------------------------------------------------------------
def _path_tables(ctx: EvalContext) -> list[PathTable]:
    """The phase tables of a path-routed scenario (none for port tables)."""
    if not ctx.tables or not isinstance(ctx.tables[0], PathTable):
        return []
    return ctx.tables


@register_metric(
    "max_congestion", description="max per-arc load/capacity over phases (graphs)"
)
def _max_congestion(ctx: EvalContext):
    tables = _path_tables(ctx)
    if not tables:
        return SKIPPED
    return max(float(arc_congestion(t).max(initial=0.0)) for t in tables)


@register_metric(
    "mean_congestion", description="mean used-arc load/capacity over phases (graphs)"
)
def _mean_congestion(ctx: EvalContext):
    tables = _path_tables(ctx)
    if not tables:
        return SKIPPED
    total, used = 0.0, 0
    for table in tables:
        congestion = arc_congestion(table)
        mask = congestion > 0
        total += float(congestion[mask].sum())
        used += int(mask.sum())
    return total / used if used else 0.0


@register_metric(
    "congestion_lower_bound",
    description="LP-free demand-cut bound on any routing's max congestion (graphs)",
)
def _congestion_lower_bound(ctx: EvalContext):
    tables = _path_tables(ctx)
    if not tables:
        return SKIPPED
    return max(congestion_lower_bound(t.topo, t.src, t.dst) for t in tables)


@register_metric(
    "competitive_ratio",
    description="achieved max congestion over the demand lower bound (graphs)",
)
def _competitive_ratio(ctx: EvalContext):
    tables = _path_tables(ctx)
    if not tables:
        return SKIPPED
    worst = max(competitive_ratio(table) for table in tables)
    return worst if worst > 0 else SKIPPED


GRAPH_METRICS = (
    "max_congestion",
    "mean_congestion",
    "congestion_lower_bound",
    "competitive_ratio",
)
