"""Cross-validation: the fluid model against the flit-level engine.

DESIGN.md commits to quantifying the substitution of the fast fluid model
for the flit-level simulator in the figure sweeps: on bandwidth-dominated
phases the two must agree closely on completion times and, more
importantly, on *slowdown ratios* between routing algorithms.
"""

from __future__ import annotations

import pytest

from repro.core import Colored, DModK, RandomNCA, SModK
from repro.patterns import cg_transpose_exchange, wrf_exchange
from repro.patterns.generators import shift, tornado_groups, uniform_random_pairs
from repro.sim import NetworkConfig, VenusSimulator, simulate_phase_fluid
from repro.topology import XGFT


def _phase_times(topo, alg, pairs, size, cfg, engine="fluid"):
    table = alg.build_table(pairs)
    sizes = [size] * len(table)
    fluid = simulate_phase_fluid(table, sizes, cfg, engine=engine)
    sim = VenusSimulator(topo, cfg)
    sim.inject_table(table, sizes)
    venus = sim.run().duration
    return fluid, venus


@pytest.fixture
def cfg():
    # zero latency: isolates bandwidth behaviour (what fluid models)
    return NetworkConfig(hop_latency=0.0)


class TestAgreement:
    def test_contended_phase_agrees(self, cfg):
        """CG's pathological phase: dominated by a 7x bottleneck — the
        engines must agree within a few percent."""
        topo = XGFT((16, 16), (1, 16))
        pairs = cg_transpose_exchange(128)
        fluid, venus = _phase_times(topo, DModK(topo), pairs, 64 * 1024, cfg)
        assert venus / fluid == pytest.approx(1.0, rel=0.05)

    def test_wrf_phase_agrees(self, cfg):
        topo = XGFT((16, 16), (1, 8))
        pairs = wrf_exchange(256)
        fluid, venus = _phase_times(topo, SModK(topo), pairs, 32 * 1024, cfg)
        assert venus / fluid == pytest.approx(1.0, rel=0.10)

    def test_slowdown_ratio_preserved(self, cfg):
        """The figure-level quantity — algorithm A time / algorithm B time —
        agrees between engines even where absolute times drift."""
        topo = XGFT((16, 16), (1, 16))
        pairs = cg_transpose_exchange(128)
        size = 64 * 1024
        f_bad, v_bad = _phase_times(topo, DModK(topo), pairs, size, cfg)
        f_good, v_good = _phase_times(topo, Colored(topo), pairs, size, cfg)
        assert (v_bad / v_good) == pytest.approx(f_bad / f_good, rel=0.15)

    def test_random_routing_agrees(self, cfg):
        topo = XGFT((8, 8), (1, 4))
        pairs = [(s, (s + 8) % 64) for s in range(64)]
        fluid, venus = _phase_times(topo, RandomNCA(topo, seed=2), pairs, 32 * 1024, cfg)
        assert venus / fluid == pytest.approx(1.0, rel=0.12)

    def test_latency_is_the_gap(self):
        """With per-hop latency enabled, venus exceeds fluid by roughly the
        pipeline-fill term, not more."""
        topo = XGFT((8, 8), (1, 8))
        cfg = NetworkConfig(hop_latency=2e-6)
        pairs = [(0, 8)]
        size = 16 * 1024
        fluid, venus = _phase_times(topo, DModK(topo), pairs, size, cfg)
        overhead = venus - fluid
        # pipeline fill: (hops-1) segment times + hops * latency
        bound = 3 * cfg.segment_time + 4 * cfg.hop_latency + 1e-9
        assert 0 < overhead <= bound


ENGINES = ("fluid", "fluid-vec")


class TestBothEnginesAgainstVenus:
    """Flit-level cross-validation of the *vectorized* engine (and the
    scalar one side by side) on the canonical phase families."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_uniform_phase_agrees(self, cfg, engine):
        # irregular random traffic shows mild head-of-line effects the
        # fluid idealization smooths over (venus runs ~14% slower here),
        # so the band is wider than for the structured phases; both
        # engines must sit at the same point in it
        topo = XGFT((8, 8), (1, 4))
        pairs = sorted(set(uniform_random_pairs(64, 96, rng=5)))
        fluid, venus = _phase_times(
            topo, DModK(topo), pairs, 32 * 1024, cfg, engine=engine
        )
        assert venus / fluid == pytest.approx(1.0, rel=0.2)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_shift_phase_agrees(self, cfg, engine):
        topo = XGFT((8, 8), (1, 4))
        pairs = shift(64, 9).pairs()
        fluid, venus = _phase_times(
            topo, SModK(topo), pairs, 32 * 1024, cfg, engine=engine
        )
        assert venus / fluid == pytest.approx(1.0, rel=0.12)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_tornado_phase_agrees(self, cfg, engine):
        topo = XGFT((8, 8), (1, 4))
        pairs = tornado_groups(64, 8).pairs()
        fluid, venus = _phase_times(
            topo, DModK(topo), pairs, 32 * 1024, cfg, engine=engine
        )
        assert venus / fluid == pytest.approx(1.0, rel=0.12)

    def test_engines_agree_with_each_other_exactly(self, cfg):
        """Scalar and vectorized fluid times are float-identical — the
        Venus tolerance above must never mask an engine divergence."""
        topo = XGFT((16, 16), (1, 16))
        pairs = cg_transpose_exchange(128)
        table = DModK(topo).build_table(pairs)
        sizes = [64 * 1024] * len(table)
        scalar = simulate_phase_fluid(table, sizes, cfg, engine="fluid")
        vec = simulate_phase_fluid(table, sizes, cfg, engine="fluid-vec")
        assert vec == pytest.approx(scalar, rel=1e-9)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_degraded_topology_agrees(self, cfg, engine):
        """A repaired table over a degraded fabric: fluid (either
        engine) and Venus still agree on the phase time."""
        from repro.faults import DegradedTopology, random_switch_faults, repair_table

        topo = XGFT((4, 4), (1, 4))
        deg = DegradedTopology(topo, random_switch_faults(topo, count=1, seed=1, level=2))
        table = DModK(topo).build_table([(s, (s + 4) % 16) for s in range(16)])
        repaired = repair_table(table, deg, seed=0)
        assert repaired.num_broken > 0 and repaired.num_disconnected == 0
        sizes = [32 * 1024] * len(repaired.table)
        fluid = simulate_phase_fluid(repaired.table, sizes, cfg, degraded=deg, engine=engine)
        sim = VenusSimulator(topo, cfg, degraded=deg)
        sim.inject_table(repaired.table, sizes)
        venus = sim.run().duration
        assert venus / fluid == pytest.approx(1.0, rel=0.12)
