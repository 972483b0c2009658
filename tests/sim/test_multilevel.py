"""Deep-tree (h = 3) coverage for both engines and the whole route stack.

The paper's evaluation uses h = 2 topologies; the XGFT machinery is
defined for any height, so these tests pin the engines' behaviour on a
3-level mixed-radix tree (6 hops end to end, two routing decisions per
route).
"""

from __future__ import annotations

import pytest

from repro.contention import max_network_contention
from repro.core import DModK, RandomNCA, RNCADown
from repro.sim import NetworkConfig, VenusSimulator, simulate_phase_fluid
from repro.topology import XGFT


@pytest.fixture
def topo():
    return XGFT((4, 4, 2), (1, 2, 2))  # 32 leaves, slimmed at level 2


@pytest.fixture
def cfg():
    return NetworkConfig(hop_latency=0.0)


class TestDeepRoutes:
    def test_route_depth(self, topo):
        alg = DModK(topo)
        route = alg.route(0, topo.num_leaves - 1)
        assert route.nca_level == 3
        assert route.hop_count() == 6
        levels = [l for l, _ in route.node_path(topo)]
        assert levels == [0, 1, 2, 3, 2, 1, 0]

    def test_cross_sub_tree_contention(self, topo):
        """All leaves of the first half send to the second half: the
        level-2/3 cut (2 * 8 = wprod(3) = 4... ) binds."""
        pairs = [(s, s + 16) for s in range(16)]
        c = max_network_contention(DModK(topo).build_table(pairs))
        # 16 cross-tree flows over wprod(3) = 4 top links, best case 4
        assert c >= 4


class TestEnginesOnDeepTree:
    def test_single_message_pipeline(self, topo, cfg):
        alg = DModK(topo)
        sim = VenusSimulator(topo, cfg)
        route = tuple(alg.route(0, 31).links(topo))
        assert len(route) == 6
        sim.inject(0, 31, 4 * cfg.segment_size, route)
        res = sim.run()
        assert res.duration == pytest.approx((4 + 6 - 1) * cfg.segment_time)

    @pytest.mark.parametrize("alg_cls", [DModK, RNCADown, RandomNCA])
    def test_fluid_venus_agreement(self, topo, cfg, alg_cls):
        alg = alg_cls(topo) if alg_cls is DModK else alg_cls(topo, seed=3)
        pairs = [(s, (s + 16) % 32) for s in range(32)]
        table = alg.build_table(pairs)
        sizes = [16 * 1024] * len(table)
        fluid = simulate_phase_fluid(table, sizes, cfg)
        sim = VenusSimulator(topo, cfg)
        sim.inject_table(table, sizes)
        venus = sim.run().duration
        assert venus / fluid == pytest.approx(1.0, rel=0.15)
