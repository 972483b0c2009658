"""Both engines accept repaired tables over degraded topologies."""

from __future__ import annotations

import pytest

from repro.core import make_algorithm
from repro.faults import DegradedTopology, random_switch_faults, repair_table
from repro.sim.config import NetworkConfig
from repro.sim.network import simulate_phase_fluid
from repro.sim.venus import VenusSimulator
from repro.topology import XGFT

CONFIG = NetworkConfig(link_bandwidth=1e9, segment_size=64, buffer_segments=4)


@pytest.fixture
def scenario():
    topo = XGFT((4, 4), (1, 4))
    # one dead root: every flow survives, some reroute
    deg = DegradedTopology(topo, random_switch_faults(topo, count=1, seed=1, level=2))
    table = make_algorithm("d-mod-k", topo).build_table(
        [(s, (s + 4) % 16) for s in range(16)]
    )
    repaired = repair_table(table, deg, seed=0)
    assert repaired.num_broken > 0 and repaired.num_disconnected == 0
    return topo, deg, table, repaired.table


class TestFluidDegraded:
    def test_rejects_unrepaired_table(self, scenario):
        topo, deg, broken, _ = scenario
        with pytest.raises(ValueError, match="dead links"):
            simulate_phase_fluid(broken, [1000.0] * len(broken), CONFIG, degraded=deg)

    def test_accepts_repaired_table(self, scenario):
        topo, deg, _, repaired = scenario
        assert simulate_phase_fluid(repaired, [1000.0] * len(repaired), CONFIG, degraded=deg) > 0


class TestVenusDegraded:
    def test_rejects_route_over_dead_channel(self, scenario):
        topo, deg, broken, _ = scenario
        sim = VenusSimulator(topo, CONFIG, degraded=deg)
        with pytest.raises(ValueError, match="unknown channel"):
            sim.inject_table(broken, [256] * len(broken))

    def test_repaired_messages_complete(self, scenario):
        topo, deg, _, repaired = scenario
        sim = VenusSimulator(topo, CONFIG, degraded=deg)
        sim.inject_table(repaired, [256] * len(repaired))
        result = sim.run()
        assert len(result.message_finish) == len(repaired)
        assert result.duration > 0

    def test_topology_mismatch(self, scenario):
        _, deg, _, _ = scenario
        with pytest.raises(ValueError, match="does not match"):
            VenusSimulator(XGFT((2, 2), (1, 2)), CONFIG, degraded=deg)

    def test_degraded_at_least_as_slow_as_pristine(self, scenario):
        topo, deg, table, repaired = scenario
        pristine = VenusSimulator(topo, CONFIG)
        pristine.inject_table(table, [256] * len(table))
        degraded = VenusSimulator(topo, CONFIG, degraded=deg)
        degraded.inject_table(repaired, [256] * len(repaired))
        assert degraded.run().duration >= pristine.run().duration - 1e-9
