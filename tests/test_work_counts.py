"""Work-count ceilings: counts of work done that repeat exactly per seed.

Wall-clock cannot gate a shared runner tightly, but these counts are
pure functions of the inputs, so they cannot flake.  Each is pinned as
an upper bound equal to its value when the pin was set: a change that
does more work (an extra refill per epoch, an extra route-table build)
fails here, and a change that does less passes and lowers the pin to
record its gain.  The pairs a sweep or a stream routes are pinned
exactly: a cell routes the pairs its traffic sends, so fewer would mean
a pair went unrouted.  No evaluation builds an all-pairs table.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.core import make_algorithm
from repro.dimemas import FluidTransferNetwork, ReplayEngine, pattern_trace, route_trace
from repro.experiments import SweepSpec, run_sweep
from repro.patterns import cg_pattern, wrf_pattern
from repro.sim import PAPER_CONFIG, FluidSimulator
from repro.sim.network import xgft_link_space
from repro.topology import XGFT
from tests.helpers import count_routing

#: two trees x three patterns x four schemes x two seeds (36 cells)
SWEEP = SweepSpec(
    topologies=("XGFT(2;4,4;1,4)", "XGFT(2;4,4;1,2)"),
    patterns=("shift-1", "bit-reversal", "transpose"),
    algorithms=("d-mod-k", "random", "colored", "r-nca-d"),
    seeds=2,
    metrics=("max_link_load",),
)
#: the cells' own pairs, 16 + 12 + 12 per (tree, scheme, seed) group
#: for shift-1, bit-reversal and transpose on 16 leaves (12 x 40 = 480),
#: plus the S-mod-k and D-mod-k warm starts Colored routes for its six
#: cells (160).  Each cell used to cut its rows from an all-pairs table
#: of 240 pairs, which routed 2,640 pairs in all.
ROUTED_PAIRS = 640

#: a phase cell, a dynamic cell and an adversarial dynamic cell
MIXED_SWEEP = SweepSpec(
    topologies=("XGFT(2;4,4;1,4)",),
    patterns=("shift-1",),
    algorithms=("d-mod-k",),
    metrics=("max_link_load",),
    faults=("none", "worst-links:count=2"),
    workloads=("none", "poisson(load=0.5,flows=40)"),
)
#: shift-1's 16 pairs per phase cell and 40 arrivals per dynamic cell;
#: an adversarial cell realizes its faults against the routes it runs.
#: The worst-links dynamic cell used to route its stream a second time.
MIXED_ROUTED_PAIRS = 16 + 16 + 40 + 40

#: the xgft-path bridge on a paper-size tree, one cell per pattern
BRIDGE_SWEEP = SweepSpec(
    topologies=("XGFT(2;16,16;1,8)",),
    patterns=("shift-1", "bit-reversal", "wrf-256"),
    algorithms=("xgft-path(scheme=d-mod-k)",),
    metrics=("max_link_load",),
)
#: each cell routes its pairs in one call of the wrapped d-mod-k:
#: shift-1's 256, bit-reversal's 240 (16 fixed points on 8 bits) and
#: WRF-256's 480.  The bridge used to make one route() call per
#: distinct pair, 976 in all.
BRIDGE_ROUTED_PAIRS = [256, 240, 480]

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


def test_sweep_route_table_builds(routing_calls):
    result = run_sweep(SWEEP)
    assert len(result.runs) == 36
    assert routing_calls["all_pairs"] == 0
    assert sum(routing_calls["pairs"]) == ROUTED_PAIRS


def test_mixed_sweep_builds_no_all_pairs_table(routing_calls):
    result = run_sweep(MIXED_SWEEP)
    assert len(result.runs) == 4
    assert routing_calls["all_pairs"] == 0
    assert sum(routing_calls["pairs"]) == MIXED_ROUTED_PAIRS


def test_bridge_routes_each_cell_in_one_batch(routing_calls):
    result = run_sweep(BRIDGE_SWEEP)
    assert len(result.runs) == 3
    assert routing_calls == {"pairs": BRIDGE_ROUTED_PAIRS, "all_pairs": 0, "route": 0}


@pytest.fixture(scope="module")
def stream_run() -> tuple:
    with count_routing() as calls:
        dynamic = STREAM.evaluate(engine="fluid-vec-inc").dynamic
    # the same stream, fully drained: fewer counts must come from less
    # work, not from less traffic
    assert dynamic.num_arrivals == 800
    assert dynamic.num_completed + dynamic.num_self + dynamic.num_rejected == 800
    return dynamic, calls


@pytest.fixture(scope="module")
def engine_work(stream_run) -> dict:
    return stream_run[0].stats.engine


def test_stream_routes_its_arrivals_once(stream_run):
    """The driver routes the stream's 800 arrivals in one call; it used
    to route the scheme's 64 x 63 = 4,032 all-pairs rows."""
    _, calls = stream_run
    assert calls == {"pairs": [800], "all_pairs": 0, "route": 0}


@pytest.mark.parametrize("counter", sorted(MAX_ENGINE_WORK))
def test_incremental_engine_work(engine_work, counter):
    assert engine_work[counter] <= MAX_ENGINE_WORK[counter]


def test_stream_reaches_every_refill_path(engine_work):
    assert engine_work["partial_refills"] > 0
    assert engine_work["full_refills"] > engine_work["cert_fallbacks"] > 0
    assert engine_work["recomputes"] == (
        engine_work["partial_refills"] + engine_work["full_refills"]
    )


#: a paper-size replay cell: XGFT(2;16,16;1,8), the two applications
#: at their paper sizes
REPLAY_TOPOLOGY = "XGFT(2;16,16;1,8)"
REPLAY_PATTERNS = {"wrf-256": wrf_pattern(256), "cg-128": cg_pattern(128)}


@pytest.mark.parametrize("app", sorted(REPLAY_PATTERNS))
def test_replay_routes_its_pairs_in_one_batch(app, routing_calls):
    """The replay installs its routes before it starts: one build_table
    call over the trace's distinct pairs beside the phase tables, and no
    per-transfer route() call (it used to make 480 for WRF-256 and 624
    for CG-128)."""
    pattern = REPLAY_PATTERNS[app]
    scenario = Scenario(REPLAY_TOPOLOGY, pattern, "d-mod-k")
    scenario.evaluate(metrics=("sim_time",), engine="replay")
    phases = [int((ph.src != ph.dst).sum()) for ph in pattern.phases]
    distinct = len({p for p in pattern.pairs() if p[0] != p[1]})
    assert routing_calls == {"pairs": [*phases, distinct], "all_pairs": 0, "route": 0}
    if app == "wrf-256":
        assert routing_calls["pairs"] == [480, 480]


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
    trace = pattern_trace(REPLAY_PATTERNS[app])
    net = FluidTransferNetwork(xgft_link_space(topo), route_trace(trace, alg))
    if oracle:
        net.sim = FluidSimulator(net.space.num_links, PAPER_CONFIG.link_bandwidth)
    ReplayEngine(trace, net).run()
    assert net.sim.telemetry()["recomputes"] <= MAX_REPLAY_REFILLS[app]
