"""Work-count ceilings: counts of work done that repeat exactly per seed.

Wall-clock cannot gate a shared runner tightly, but these counts are
pure functions of the inputs, so they cannot flake.  Each is pinned as
an upper bound equal to its value when the pin was set: a change that
does more work (an extra refill per epoch, an extra route-table build)
fails here, and a change that does less passes and lowers the pin to
record its gain.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.core import make_algorithm
from repro.dimemas import FluidTransferNetwork, ReplayEngine, pattern_trace
from repro.experiments import SweepSpec, run_sweep
from repro.patterns import cg_pattern, wrf_pattern
from repro.sim import PAPER_CONFIG, FluidSimulator
from repro.sim.network import xgft_link_space
from repro.topology import XGFT

#: two trees x three patterns x four schemes x two seeds (36 cells)
SWEEP = SweepSpec(
    topologies=("XGFT(2;4,4;1,4)", "XGFT(2;4,4;1,2)"),
    patterns=("shift-1", "bit-reversal", "transpose"),
    algorithms=("d-mod-k", "random", "colored", "r-nca-d"),
    seeds=2,
    metrics=("max_link_load",),
)
#: one all-pairs table per tree for d-mod-k, one per tree and seed for
#: random and r-nca-d; Colored is pattern-aware and never cached
MAX_TABLE_BUILDS = 10

#: one stream that reaches all three refill paths of the incremental
#: engine: component-local partial refills, full refills, and
#: certificate-failure fallbacks to a full refill
STREAM = Scenario(
    "XGFT(3;4,4,4;1,4,2)",
    "none",
    "d-mod-k",
    workload="poisson(load=0.9,sizes=uniform,spread=0.5,flows=800)",
    seed=0,
)
MAX_ENGINE_WORK = {
    "recomputes": 1_599,
    "partial_refills": 1_570,
    "full_refills": 29,
    "cert_fallbacks": 27,
    "fill_rounds": 6_879,
    "links_touched": 150_732,
}


def test_sweep_route_table_builds():
    result = run_sweep(SWEEP)
    assert len(result.runs) == 36
    assert result.cache_stats["table_builds"] <= MAX_TABLE_BUILDS


@pytest.fixture(scope="module")
def engine_work() -> dict:
    dynamic = STREAM.evaluate(engine="fluid-vec-inc").dynamic
    # the same stream, fully drained: fewer counts must come from less
    # work, not from less traffic
    assert dynamic.num_arrivals == 800
    assert dynamic.num_completed + dynamic.num_self + dynamic.num_rejected == 800
    return dynamic.stats.engine


@pytest.mark.parametrize("counter", sorted(MAX_ENGINE_WORK))
def test_incremental_engine_work(engine_work, counter):
    assert engine_work[counter] <= MAX_ENGINE_WORK[counter]


def test_stream_reaches_every_refill_path(engine_work):
    assert engine_work["partial_refills"] > 0
    assert engine_work["full_refills"] > engine_work["cert_fallbacks"] > 0
    assert engine_work["recomputes"] == (
        engine_work["partial_refills"] + engine_work["full_refills"]
    )


#: refills of one barrier-phased replay on XGFT(2;16,16;1,8) under
#: random routing (seed 0): the replay steps every rank due at an
#: instant before it asks the network for its next completion, so the
#: engine refills once per instant, not once per rank step (260 and 325)
MAX_REPLAY_REFILLS = {"wrf-256": 21, "cg-128": 18}


@pytest.mark.parametrize("oracle", [False, True], ids=["default-engine", "scalar"])
@pytest.mark.parametrize("app", sorted(MAX_REPLAY_REFILLS))
def test_replay_refills_once_per_instant(app, oracle):
    topo = XGFT((16, 16), (1, 8))
    alg = make_algorithm("random", topo, seed=0)
    pattern = wrf_pattern(256) if app == "wrf-256" else cg_pattern(128)
    net = FluidTransferNetwork(xgft_link_space(topo), lambda s, d: alg.route(s, d).links(topo))
    if oracle:
        net.sim = FluidSimulator(net.space.num_links, PAPER_CONFIG.link_bandwidth)
    ReplayEngine(pattern_trace(pattern), net).run()
    assert net.sim.telemetry()["recomputes"] <= MAX_REPLAY_REFILLS[app]
