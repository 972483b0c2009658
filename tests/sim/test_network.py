"""Tests for the link-space glue, phase makespan and crossbar reference."""

from __future__ import annotations

import pytest

from repro.api import Scenario, compare
from repro.core import DModK
from repro.patterns import Pattern, Phase, cg_pattern, hotspot, wrf_pattern
from repro.sim import (
    PAPER_CONFIG,
    crossbar_link_space,
    crossbar_pattern_time,
    crossbar_phase_time,
    simulate_phase_fluid,
    xgft_link_space,
)
from repro.topology import XGFT
from tests.helpers import placed


@pytest.fixture
def topo():
    return XGFT((16, 16), (1, 16))


class TestLinkSpace:
    def test_xgft_space(self, topo):
        space = xgft_link_space(topo)
        assert space.num_links == topo.num_directed_links + 512
        assert space.injection(0) == topo.num_directed_links
        assert space.ejection(255) == space.num_links - 1

    def test_crossbar_space(self):
        space = crossbar_link_space(8)
        assert space.num_links == 16
        assert space.injection(3) == 3
        assert space.ejection(3) == 11


class TestCrossbarReference:
    def test_single_flow_time(self):
        phase = Phase.from_pairs([(0, 1)], size=1000)
        t = crossbar_phase_time(phase, 4)
        assert t == pytest.approx(1000 / PAPER_CONFIG.link_bandwidth)

    def test_two_sends_serialize(self):
        """Endpoint contention exists on the crossbar too: 2 sends from one
        node take twice as long."""
        phase = Phase.from_pairs([(0, 1), (0, 2)], size=1000)
        t = crossbar_phase_time(phase, 4)
        assert t == pytest.approx(2000 / PAPER_CONFIG.link_bandwidth)

    def test_hotspot_serializes_at_receiver(self):
        phase = Phase.from_pairs(hotspot(8, 0), size=1000)
        t = crossbar_phase_time(phase, 8)
        assert t == pytest.approx(7000 / PAPER_CONFIG.link_bandwidth)

    def test_permutation_is_parallel(self):
        phase = Phase.from_pairs([(i, (i + 1) % 8) for i in range(8)], size=1000)
        t = crossbar_phase_time(phase, 8)
        assert t == pytest.approx(1000 / PAPER_CONFIG.link_bandwidth)

    def test_self_flows_ignored(self):
        phase = Phase.from_pairs([(0, 0)], size=10)
        assert crossbar_phase_time(phase, 2) == 0.0

    def test_endpoint_outside_the_machine_raises(self):
        phase = Phase.from_pairs([(0, 4)], size=10)
        with pytest.raises(ValueError, match="outside leaves 0..3"):
            crossbar_phase_time(phase, 4)

    def test_pattern_sums_phases(self):
        pat = Pattern(
            (
                Phase.from_pairs([(0, 1)], size=1000),
                Phase.from_pairs([(1, 0)], size=1000),
            )
        )
        assert crossbar_pattern_time(pat, 2) == pytest.approx(
            2000 / PAPER_CONFIG.link_bandwidth
        )


class TestPhaseOnXGFT:
    def test_uncontended_equals_crossbar(self, topo):
        """A single inter-switch flow takes exactly the line-rate time."""
        table = DModK(topo).build_table([(0, 16)])
        t = simulate_phase_fluid(table, [1000])
        assert t == pytest.approx(1000 / PAPER_CONFIG.link_bandwidth)

    def test_contended_uplink_doubles(self, topo):
        """Two distinct-endpoint flows on one uplink: twice the time."""
        table = DModK(topo).build_table([(0, 32), (1, 48)])  # both r1 = 0
        t = simulate_phase_fluid(table, [1000, 1000])
        assert t == pytest.approx(2000 / PAPER_CONFIG.link_bandwidth)

    def test_sizes_shape_checked(self, topo):
        table = DModK(topo).build_table([(0, 16)])
        with pytest.raises(ValueError):
            simulate_phase_fluid(table, [1000, 1000])


class TestPatternSlowdowns:
    """Integration: the paper's headline relationships, as inequalities."""

    def test_wrf_modk_matches_crossbar(self, topo):
        pat = wrf_pattern(256)
        base = Scenario(topo, pat, "s-mod-k")
        for result in compare([base, base.with_(algorithm="d-mod-k")], ("slowdown",)).results:
            assert result["slowdown"] == pytest.approx(1.0, rel=1e-6)

    def test_cg_phase5_pathology_factor(self, topo):
        """The transpose phase runs ~7x slower under D-mod-k (paper: 8x)."""
        pat = cg_pattern(128)
        transpose = pat.phases[-1]
        pairs = [f.pair for f in transpose.flows]
        table = DModK(topo).build_table(pairs)
        t = simulate_phase_fluid(table, [f.size for f in transpose.flows])
        t_ref = crossbar_phase_time(transpose, 256)
        assert t / t_ref == pytest.approx(7.0, rel=1e-6)

    def test_colored_cg_near_crossbar(self, topo):
        result = Scenario(topo, cg_pattern(128), "colored").evaluate(metrics=("slowdown",))
        assert result["slowdown"] == pytest.approx(1.0, rel=1e-6)

    def test_slimming_monotonic_for_wrf_modk(self):
        """Slimming can only hurt: slowdown rises as w2 falls."""
        pat = wrf_pattern(256)
        scenarios = [Scenario(XGFT((16, 16), (1, w2)), pat, "s-mod-k") for w2 in (16, 8, 4, 2, 1)]
        values = [r["slowdown"] for r in compare(scenarios, ("slowdown",)).results]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(16.0, rel=1e-6)

    def test_mapping_changes_results(self, topo):
        """A non-sequential placement makes the local CG phases non-local."""
        pat = cg_pattern(128)
        scattered = placed(pat, [(17 * r) % 256 for r in range(128)])
        seq, moved = compare(
            [Scenario(topo, pat, "d-mod-k"), Scenario(topo, scattered, "d-mod-k")], ("sim_time",)
        ).results
        assert moved["sim_time"] != pytest.approx(seq["sim_time"])
