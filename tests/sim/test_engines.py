"""The simulation-engine registry and its integration points."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import FluidSimulator, VecFluidSimulator
from repro.sim.engines import (
    DEFAULT_ENGINE,
    ENGINES,
    Engine,
    available_engines,
    fluid_engine_names,
    is_fluid_engine,
    make_fluid_simulator,
    register_engine,
    resolve_engine,
)


class TestRegistry:
    def test_builtins_registered(self):
        assert set(available_engines()) >= {"fluid", "fluid-vec", "fluid-vec-inc", "replay"}
        assert set(fluid_engine_names()) >= {"fluid", "fluid-vec", "fluid-vec-inc"}
        assert "replay" not in fluid_engine_names()

    def test_default_is_the_vectorized_engine(self):
        assert DEFAULT_ENGINE == "fluid-vec"
        assert is_fluid_engine(DEFAULT_ENGINE)

    def test_resolve(self):
        assert resolve_engine("fluid").factory is FluidSimulator
        assert resolve_engine("fluid-vec").factory is VecFluidSimulator
        assert resolve_engine("replay").kind == "replay"
        # resolving a live Engine is the identity
        engine = resolve_engine("fluid")
        assert resolve_engine(engine) is engine

    def test_unknown_engine_diagnostic(self):
        with pytest.raises(ValueError, match="unknown engine 'telepathy'"):
            resolve_engine("telepathy")  # repro: noqa[REP010] deliberately unknown: error-path test

    def test_make_fluid_simulator(self):
        sim = make_fluid_simulator("fluid-vec", 4, 1.0)
        assert isinstance(sim, VecFluidSimulator)
        sim = make_fluid_simulator("fluid", 4, 1.0)
        assert isinstance(sim, FluidSimulator)
        with pytest.raises(ValueError, match="not a fluid backend"):
            make_fluid_simulator("replay", 4, 1.0)

    def test_engine_validation(self):
        with pytest.raises(ValueError, match="kind"):
            Engine(name="x", kind="quantum")
        with pytest.raises(ValueError, match="factory"):
            Engine(name="x", kind="fluid")

    def test_third_party_registration(self):
        class TracingSim(VecFluidSimulator):
            pass

        engine = Engine(name="fluid-traced", kind="fluid", factory=TracingSim)
        register_engine(engine)
        try:
            assert "fluid-traced" in fluid_engine_names()
            sim = make_fluid_simulator("fluid-traced", 2, 1.0)
            assert isinstance(sim, TracingSim)
            # and the whole evaluation stack accepts it by name
            from repro.api import Scenario

            result = Scenario("XGFT(2;4,4;1,4)", "shift-1", "d-mod-k").evaluate(
                metrics=("sim_time",), engine="fluid-traced"
            )
            assert result.metrics["sim_time"] > 0
        finally:
            ENGINES.unregister("fluid-traced")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_engine(Engine(name="fluid", kind="fluid", factory=FluidSimulator))


class TestPhaseDriverSelection:
    def test_simulate_phase_fluid_engines_agree(self):
        from repro.core import DModK
        from repro.sim import simulate_phase_fluid
        from repro.topology import XGFT

        topo = XGFT((4, 4), (1, 2))
        table = DModK(topo).build_table([(s, (s + 4) % 16) for s in range(16)])
        sizes = [float(1024 * (1 + i % 3)) for i in range(len(table))]
        scalar = simulate_phase_fluid(table, sizes, engine="fluid")
        vec = simulate_phase_fluid(table, sizes, engine="fluid-vec")
        assert vec == pytest.approx(scalar, rel=1e-9)

    def test_simulate_phase_fluid_rejects_replay(self):
        from repro.core import DModK
        from repro.sim import simulate_phase_fluid
        from repro.topology import XGFT

        topo = XGFT((4, 4), (1, 2))
        table = DModK(topo).build_table([(0, 5)])
        with pytest.raises(ValueError, match="not a fluid backend"):
            simulate_phase_fluid(table, [1024.0], engine="replay")

    def test_crossbar_references_agree_across_engines(self):
        from repro.patterns.registry import resolve_pattern
        from repro.sim import crossbar_pattern_time

        pattern = resolve_pattern("bit-reversal", 16)
        scalar = crossbar_pattern_time(pattern, 16, engine="fluid")
        vec = crossbar_pattern_time(pattern, 16, engine="fluid-vec")
        assert vec == pytest.approx(scalar, rel=1e-9)

    def test_scenario_rejects_unknown_engine(self):
        from repro.api import Scenario

        scenario = Scenario("XGFT(2;4,4;1,4)", "shift-1", "d-mod-k")
        with pytest.raises(ValueError, match="unknown engine"):
            scenario.evaluate(metrics=("sim_time",), engine="fluidd")  # repro: noqa[REP010] deliberately unknown: error-path test

    def test_sweep_spec_accepts_vec_engine(self):
        from repro.experiments import SweepSpec

        spec = SweepSpec(
            topologies=("XGFT(2;4,4;1,4)",),
            patterns=("shift-1",),
            algorithms=("d-mod-k",),
            engine="fluid-vec",
        )
        assert spec.engine == "fluid-vec"
        # and the default is the vectorized engine
        default = SweepSpec(
            topologies=("XGFT(2;4,4;1,4)",),
            patterns=("shift-1",),
            algorithms=("d-mod-k",),
        )
        assert default.engine == DEFAULT_ENGINE

    @pytest.mark.parametrize("engine", ["fluid", "fluid-vec"])
    def test_slowdown_accepts_both_fluid_engines(self, engine):
        from repro.api import Scenario
        from repro.topology import slimmed_two_level

        scenario = Scenario(slimmed_two_level(4, 4, 2), "shift-1", "d-mod-k")
        value = scenario.evaluate(metrics=("slowdown",), engine=engine)["slowdown"]
        assert value >= 1.0 - 1e-9

    def test_numpy_sizes_accepted_by_both(self):
        """The batch path hands numpy arrays straight through."""
        for engine in ("fluid", "fluid-vec"):
            sim = make_fluid_simulator(engine, 2, 10.0)
            sim.add_flows(
                np.asarray([0, 1]),
                np.asarray([10.0, 30.0]),
                np.asarray([0, 0, 1]),
                np.asarray([0, 1, 1]),
            )
            assert sim.run_until_idle() == pytest.approx(4.0)


class TestAtomicBatchAdmission:
    """A rejected ``add_flows`` batch admits nothing, on every engine."""

    @pytest.mark.parametrize("engine", fluid_engine_names())
    @pytest.mark.parametrize(
        "flow_ids, sizes, coo_link, match",
        [
            ([10, 11], [1.0, 1.0], [0, 7], "link 7 out of range"),
            ([10, 10], [1.0, 1.0], [0, 1], "duplicate flow ids"),
            ([10, 1], [1.0, 1.0], [0, 1], "already active"),
            ([10, 11], [1.0, float("nan")], [0, 1], "finite"),
            ([10, 11], [1.0, float("inf")], [0, 1], "finite"),
            ([10, 11], [1.0, -1.0], [0, 1], "non-negative"),
            ([10, 11], [1.0], [0, 1], "parallel"),
        ],
        ids=[
            "link-range",
            "duplicate-in-batch",
            "already-active",
            "nan",
            "inf",
            "negative",
            "sizes-length",
        ],
    )
    def test_rejected_batch_changes_nothing(
        self, engine, flow_ids, sizes, coo_link, match
    ):
        sim = make_fluid_simulator(engine, 2, 1.0)
        # one active flow (id 1) and one completed zero-size flow (id 2)
        sim.add_flows([1, 2], [1.0, 0.0], [0, 1], [0, 1])
        before = (sim.active_flows, list(sim.results))
        with pytest.raises(ValueError, match=match):
            sim.add_flows(flow_ids, sizes, [0, 1], coo_link)
        assert (sim.active_flows, list(sim.results)) == before
        # and the engine still runs what it had
        sim.run_until_idle()
        assert sorted(r.flow_id for r in sim.results) == [1, 2]


def per_flow_link_rates(sim, links_of: dict[int, np.ndarray]) -> np.ndarray:
    """The reference for ``link_rates()``: a Python loop over the
    ``rates()`` dict, adding each flow's rate to each of its links."""
    load = np.zeros(sim.num_links)
    for fid, rate in sim.rates().items():
        load[links_of[fid]] += rate
    return load


class TestLinkRates:
    """``link_rates()`` is the per-flow loop's result, float for float."""

    @pytest.mark.parametrize("engine", fluid_engine_names())
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_links=st.integers(1, 12),
        num_flows=st.integers(1, 30),
    )
    @settings(max_examples=30, deadline=None)
    def test_equals_per_flow_loop(self, engine, seed, num_links, num_flows):
        rng = np.random.default_rng(seed)
        sim = make_fluid_simulator(engine, num_links, rng.uniform(0.5, 3.0, num_links))
        links_of: dict[int, np.ndarray] = {}

        def check():
            assert np.array_equal(sim.link_rates(), per_flow_link_rates(sim, links_of))

        fid = 0
        t = 0.0
        while fid < num_flows:
            # completions up to the next arrival instant, checked at each
            t += float(rng.exponential(1.0))
            nc = sim.next_completion_time()
            while nc is not None and nc <= t:
                sim.advance_to_next_completion()
                check()
                nc = sim.next_completion_time()
            sim.advance_to(t)
            # a batch of 1-3 arrivals, some of zero size
            batch = range(fid, min(fid + int(rng.integers(1, 4)), num_flows))
            sizes, coo_flow, coo_link = [], [], []
            for i, f in enumerate(batch):
                links = rng.choice(num_links, size=int(rng.integers(1, num_links + 1)), replace=False)
                links_of[f] = links
                sizes.append(0.0 if rng.random() < 0.2 else float(rng.uniform(0.5, 5.0)))
                coo_flow += [i] * len(links)
                coo_link += links.tolist()
            sim.add_flows(list(batch), sizes, np.asarray(coo_flow), np.asarray(coo_link))
            fid = batch.stop
            check()
        while sim.active_flows:
            sim.advance_to_next_completion()
            check()
        assert not sim.link_rates().any()
