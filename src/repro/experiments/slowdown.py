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
from ..metrics import crossbar_reference as crossbar_time
from ..metrics import slowdown_ratio
from ..patterns.base import Pattern
from ..sim.config import NetworkConfig, PAPER_CONFIG
from ..sim.engines import DEFAULT_ENGINE, is_fluid_engine
from ..sim.network import simulate_pattern_fluid
from ..topology import XGFT

__all__ = ["slowdown", "crossbar_time"]


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

    ``reference_time`` short-circuits the crossbar run (``crossbar_time``,
    the metric layer's :func:`~repro.metrics.crossbar_reference`) when
    the caller sweeps many topologies/algorithms over one pattern.  The
    ratio follows :func:`~repro.metrics.slowdown_ratio`, as the
    ``slowdown`` metric does.
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
    return slowdown_ratio(t_net, t_ref, pattern)
