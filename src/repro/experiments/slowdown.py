"""Slowdown-vs-Full-Crossbar measurement (the paper's y-axis).

"We have scaled the reported times against the time employed by a single
ideal single-stage crossbar network connecting all the nodes" (Sec.
VI-B).  The helpers here run a pattern on an XGFT under a routing scheme
and on the crossbar, and report the ratio.  ``engine`` names any
registered backend (:data:`repro.sim.engines.ENGINES`):

* fluid-kind engines (``"fluid-vec"`` — the vectorized default — and
  the scalar ``"fluid"`` reference) run the bulk-synchronous phase
  model on the max-min fluid allocation (the sweep workhorse);
* ``engine="replay"`` runs a full trace replay through the
  Dimemas-substitute engine (slower, models the causal structure;
  cross-checked against the phase model by the integration tests).
"""

from __future__ import annotations

from ..core.factory import make_algorithm
from ..patterns.base import Pattern
from ..sim.config import NetworkConfig, PAPER_CONFIG
from ..sim.engines import DEFAULT_ENGINE, is_fluid_engine
from ..sim.network import crossbar_pattern_time, simulate_pattern_fluid
from ..topology import XGFT

__all__ = ["slowdown", "crossbar_time"]


def crossbar_time(
    pattern: Pattern,
    num_leaves: int,
    config: NetworkConfig = PAPER_CONFIG,
    engine: str = DEFAULT_ENGINE,
) -> float:
    """Full-Crossbar reference time for a pattern."""
    if is_fluid_engine(engine):
        return crossbar_pattern_time(pattern, num_leaves, config, engine=engine)
    from ..dimemas import pattern_trace, replay_on_crossbar

    return replay_on_crossbar(pattern_trace(pattern), num_leaves, config).total_time


def slowdown(
    topo: XGFT,
    algorithm_name: str,
    pattern: Pattern,
    seed: int = 0,
    config: NetworkConfig = PAPER_CONFIG,
    engine: str = DEFAULT_ENGINE,
    reference_time: float | None = None,
    **algorithm_kwargs,
) -> float:
    """Slowdown of ``pattern`` on ``topo`` under an algorithm vs crossbar.

    ``reference_time`` short-circuits the crossbar run when the caller
    sweeps many topologies/algorithms over one pattern.
    """
    algorithm = make_algorithm(algorithm_name, topo, seed=seed, **algorithm_kwargs)
    if is_fluid_engine(engine):
        t_net = simulate_pattern_fluid(topo, algorithm, pattern, config, engine=engine)
    else:
        from ..dimemas import pattern_trace, replay_on_xgft

        # the replay network asks for routes pair by pair, so pattern-aware
        # schemes must see the pattern up front (with the default
        # sequential mapping rank ids equal leaf ids)
        algorithm.prepare(
            sorted({(s, d) for s, d in pattern.pairs() if s != d})
        )
        t_net = replay_on_xgft(pattern_trace(pattern), topo, algorithm, config).total_time
    t_ref = (
        reference_time
        if reference_time is not None
        else crossbar_time(pattern, topo.num_leaves, config, engine)
    )
    if t_ref <= 0:
        # a degenerate pattern whose flows all move zero network bytes
        # (self-pairs, zero sizes) drains instantly on both fabrics
        # (t_net == t_ref == 0): slowdown is 1.0 by convention — no
        # bytes moved, so no contention was added.  A pattern with no
        # flows at all, or a zero reference against a positive network
        # time, is still a caller error, never a silent inf/nan
        if t_net <= 0 and any(phase.flows for phase in pattern.phases):
            return 1.0
        raise ValueError("reference time must be positive (empty pattern?)")
    return t_net / t_ref
