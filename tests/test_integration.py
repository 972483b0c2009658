"""Cross-stack integration tests.

Each test drives several packages together through a realistic path:
forwarding tables feeding the flit-level engine, replay vs the
bulk-synchronous phase model, static contention predicting fluid times,
and the CLI touching the whole stack.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Scenario
from repro.contention import link_flow_counts, max_network_contention
from repro.core import (
    DModK,
    RNCADown,
    build_forwarding_tables,
    make_algorithm,
)
from repro.dimemas import pattern_trace, replay_on_xgft
from repro.patterns import Pattern, cg_pattern, wrf_pattern
from repro.sim import NetworkConfig, VenusSimulator
from repro.topology import XGFT, slimmed_two_level
from tests.helpers import placed


class TestForwardingTablesDriveTheFlitEngine:
    """LFTs built from r-NCA-d walk exactly the routes the flit engine
    simulates — the deployment story of a destination-routed fabric."""

    def test_walked_paths_match_simulated_routes(self):
        topo = XGFT((4, 4), (1, 3))
        alg = RNCADown(topo, seed=5)
        tables = build_forwarding_tables(alg)
        cfg = NetworkConfig(hop_latency=0.0)
        sim = VenusSimulator(topo, cfg)
        pairs = [(s, (s + 4) % 16) for s in range(16)]
        for s, d in pairs:
            route = alg.route(s, d)
            assert tables.walk(s, d) == route.node_path(topo)
            sim.inject(s, d, cfg.segment_size * 4, tuple(route.links(topo)))
        res = sim.run()
        assert len(res.message_finish) == len(pairs)


class TestReplayAgreesWithPhaseModel:
    @pytest.mark.parametrize("app", ["wrf", "cg"])
    def test_barrier_replay_equals_phase_simulation(self, app):
        """The Dimemas replay of a barrier-phased trace must reproduce the
        bulk-synchronous phase model's total exactly (same semantics via
        two very different code paths)."""
        pattern = wrf_pattern(64, row=8) if app == "wrf" else cg_pattern(32)
        topo = XGFT((8, 8), (1, 4))
        t_phase = Scenario(topo, pattern, "d-mod-k").evaluate(metrics=("sim_time",))["sim_time"]
        mapping = list(range(pattern.num_ranks))
        trace = pattern_trace(pattern, barrier_between_phases=True)
        t_replay = replay_on_xgft(trace, topo, DModK(topo), mapping=mapping).total_time
        assert t_replay == pytest.approx(t_phase, rel=1e-9)

    def test_overlap_can_only_help(self):
        """Without barriers, phases of different ranks may overlap: the
        replay time is never longer than the barrier-phased one."""
        pattern = cg_pattern(32)
        topo = XGFT((8, 8), (1, 8))
        alg = DModK(topo)
        barr = replay_on_xgft(pattern_trace(pattern, True), topo, alg).total_time
        free = replay_on_xgft(pattern_trace(pattern, False), topo, alg).total_time
        assert free <= barr + 1e-12


class TestStaticMetricPredictsFluid:
    def test_contention_level_bounds_phase_slowdown(self):
        """For single-phase permutations, the fluid slowdown equals the
        max flows-per-link, and the endpoint-aware C lower-bounds it."""
        topo = slimmed_two_level(16, 16, 8)
        rng = np.random.default_rng(0)
        for trial in range(3):
            perm = rng.permutation(256)
            pairs = [(int(s), int(d)) for s, d in enumerate(perm) if s != d]
            pattern = Pattern.single_phase(pairs, size=100_000)
            table = make_algorithm("random", topo, seed=trial).build_table(pairs)
            c = max_network_contention(table)
            max_flows = int(link_flow_counts(table).max())
            scenario = Scenario(topo, pattern, "random", seed=trial)
            ratio = scenario.evaluate(metrics=("slowdown",))["slowdown"]
            assert c <= ratio + 1e-9
            assert ratio == pytest.approx(max_flows, rel=1e-9)


class TestEveryAlgorithmEndToEnd:
    @pytest.mark.parametrize(
        "name",
        ["s-mod-k", "d-mod-k", "random", "r-nca-u", "r-nca-d", "colored",
         "auto-mod-k", "r-nca-best(k=2,probes=2)"],
    )
    def test_cg_slowdown_in_sane_range(self, name):
        """Every registered scheme routes CG.D-32 end to end with a
        slowdown in [1, single-root-bound]."""
        scenario = Scenario(XGFT((8, 8), (1, 8)), cg_pattern(32), name, seed=1)
        value = scenario.evaluate(metrics=("slowdown",))["slowdown"]
        assert 1.0 - 1e-9 <= value <= 8.0

    def test_mapping_consistency_across_engines(self):
        """A scattered placement yields identical totals from the phase
        model (the pattern relabelled onto the scattered leaves) and the
        replay engine (the same ranks placed by its ``mapping``)."""
        topo = XGFT((8, 8), (1, 4))
        pattern = cg_pattern(16)
        mapping = [(r * 5) % 64 for r in range(16)]
        assert len(set(mapping)) == 16
        scenario = Scenario(topo, placed(pattern, mapping), "d-mod-k")
        t_phase = scenario.evaluate(metrics=("sim_time",))["sim_time"]
        t_replay = replay_on_xgft(
            pattern_trace(pattern), topo, DModK(topo), mapping=mapping
        ).total_time
        assert t_replay == pytest.approx(t_phase, rel=1e-9)


class TestCrossbarIsALowerBound:
    @pytest.mark.parametrize("name", ["s-mod-k", "random", "r-nca-d"])
    def test_no_scheme_beats_the_crossbar(self, name):
        scenario = Scenario(XGFT((8, 8), (1, 8)), wrf_pattern(64, row=8), name)
        assert scenario.evaluate(metrics=("slowdown",))["slowdown"] >= 1.0 - 1e-9
