"""The incremental fluid engine: exactness against the from-scratch engines.

``IncFluidSimulator`` reuses frozen water levels outside the affected
bottleneck dependency component, so its entire value proposition rests
on an exactness claim: the allocation after a component-local refill is
*identical* (to 1e-9) to a from-scratch progressive filling, or the
engine detects the inconclusive case and falls back to a full refill.
The hypothesis suites drive seeded dynamic streams — mid-run arrivals,
same-timestamp epochs, zero sizes, mixed size distributions — through
the incremental and vectorized engines in lockstep and require
identical FCT multisets and rate vectors; the adversarial cases pin the
shapes the component analysis finds hardest (simultaneous completions,
single-link bottleneck chains).  The driver-level suite repeats the
comparison through :class:`repro.workloads.DynamicDriver` across
routing algorithms and size distributions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import FluidSimulator, IncFluidSimulator, VecFluidSimulator

REL = 1e-9

#: the link space is this many times the links the flows use: the rest
#: are idle, so every refill component is at most a tenth of the space
#: and the component-local relabel maps a sparse, scattered link set
PAD = 10


def _random_instance(seed: int, num_links: int, num_flows: int, zero_frac: float = 0.1):
    """A deterministic random workload: (capacities, [(fid, links, size)]).

    The flows use ``num_links`` links scattered over ``PAD * num_links``;
    size engines with ``len(capacities)``.
    """
    rng = np.random.default_rng(seed)
    used_caps = rng.uniform(0.5, 3.0, num_links)
    flows = []
    for f in range(num_flows):
        k = int(rng.integers(1, num_links + 1))
        links = rng.choice(num_links, size=k, replace=False)
        size = float(rng.uniform(0.5, 5.0)) if rng.random() >= zero_frac else 0.0
        flows.append((f, links, size))
    pad_rng = np.random.default_rng([seed, PAD])
    caps = pad_rng.uniform(0.5, 3.0, PAD * num_links)
    used = pad_rng.permutation(PAD * num_links)[:num_links]
    caps[used] = used_caps
    return caps, [(f, used[links].tolist(), size) for f, links, size in flows]


def _random_stream(
    seed: int,
    num_links: int,
    num_flows: int,
    zero_frac: float = 0.1,
    quantum: float | None = None,
):
    """Timed arrivals: (capacities, [(t, fid, links, size)]), times sorted.

    ``quantum`` snaps arrival instants to a grid so several arrivals
    share one timestamp — the epoch-batching boundary case.
    """
    rng = np.random.default_rng(seed)
    caps, flows = _random_instance(seed + 1, num_links, num_flows, zero_frac)
    times = np.cumsum(rng.exponential(1.0, num_flows))
    if quantum is not None:
        times = np.floor(times / quantum) * quantum
    return caps, [(float(t), *flow) for t, flow in zip(times, flows)]


def _drive(sim, arrivals):
    """The dynamic-driver event loop in miniature: completions vs
    arrivals in time order, same-instant arrivals injected as one
    epoch.  Returns the completed-flow results."""
    i = 0
    guard = 4 * len(arrivals) + 64
    for _ in range(guard):
        t_arr = arrivals[i][0] if i < len(arrivals) else None
        nc = sim.next_completion_time()
        if t_arr is None and nc is None:
            break
        if t_arr is None or (nc is not None and nc <= t_arr):
            sim.advance_to_next_completion()
        else:
            sim.advance_to(t_arr)
            while i < len(arrivals) and arrivals[i][0] == t_arr:
                _, fid, links, size = arrivals[i]
                sim.add_flow(fid, links, size)
                i += 1
    else:  # pragma: no cover - defensive
        raise RuntimeError("test event loop exceeded its budget")
    return sim.results


def _assert_same_results(a, b):
    """Identical FCT multisets: same flows, same start/finish to REL."""
    fa = {r.flow_id: r for r in a.results}
    fb = {r.flow_id: r for r in b.results}
    assert set(fa) == set(fb)
    for fid, ra in fa.items():
        rb = fb[fid]
        assert rb.finish == pytest.approx(ra.finish, rel=REL, abs=1e-12)
        assert rb.start == pytest.approx(ra.start, rel=REL, abs=1e-12)
        assert rb.size == ra.size


def _assert_water_levels_consistent(sim: IncFluidSimulator, caps: np.ndarray):
    """The frozen water levels certify the allocation: a finite W[l]
    means link l is saturated and W[l] is its max user rate; an
    infinite W[l] means the link has slack (or no users)."""
    rates = sim.rates()  # forces a refill if dirty
    loads = np.zeros(sim.num_links)
    max_user = np.zeros(sim.num_links)
    for fid, rate in rates.items():
        slot = sim._id_to_slot[fid]
        for l in sim._links[slot]:
            loads[l] += rate
            max_user[l] = max(max_user[l], rate)
    assert (loads <= caps * (1 + 1e-6) + 1e-6).all()
    for l in range(sim.num_links):
        if not sim._users[l]:
            continue
        if np.isfinite(sim._W[l]):
            assert loads[l] >= caps[l] * (1 - 1e-6) - 1e-6, f"link {l} W finite, slack"
            assert sim._W[l] == pytest.approx(max_user[l], rel=1e-6, abs=1e-9)
        else:
            assert loads[l] <= caps[l] - 1e-9 or max_user[l] == 0.0


class TestDropInParity:
    def test_validation_parity(self):
        """Same error surface as the scalar/vec engines."""
        with pytest.raises(ValueError):
            IncFluidSimulator(0, 1.0)
        with pytest.raises(ValueError):
            IncFluidSimulator(2, 0.0)
        with pytest.raises(ValueError):
            IncFluidSimulator(2, np.asarray([1.0, -1.0]))
        sim = IncFluidSimulator(2, 1.0)
        with pytest.raises(ValueError):
            sim.add_flow(0, [], 1.0)
        with pytest.raises(ValueError):
            sim.add_flow(0, [5], 1.0)
        with pytest.raises(ValueError):
            sim.add_flow(0, [0], -1.0)
        sim.add_flow(0, [0], 1.0)
        with pytest.raises(ValueError):
            sim.add_flow(0, [1], 1.0)  # duplicate id
        with pytest.raises(ValueError, match="parallel"):
            sim.add_flows([1, 2], [1.0], np.asarray([0]), np.asarray([0]))
        with pytest.raises(ValueError, match="outside the batch"):
            sim.add_flows([1], [1.0], np.asarray([1]), np.asarray([0]))

    def test_zero_size_and_idle_clock(self):
        sim = IncFluidSimulator(2, 1.0)
        assert sim.advance_to(3.0) == []
        assert sim.now == pytest.approx(3.0)
        sim.add_flow(7, [0], 0.0)
        (res,) = sim.results
        assert res.flow_id == 7
        assert res.start == res.finish == pytest.approx(3.0)
        assert sim.active_flows == 0

    def test_advance_guards(self):
        sim = IncFluidSimulator(1, 10.0)
        sim.add_flow(0, [0], 10.0)
        with pytest.raises(ValueError, match="skip a completion"):
            sim.advance_to(100.0)
        sim.run_until_idle()
        with pytest.raises(ValueError, match="rewind"):
            sim.advance_to(0.5)

    def test_epsilon_window_completion_stamp_parity(self):
        """Advancing into (nc, nc + eps] stamps the true instant nc."""
        sim = IncFluidSimulator(2, 1.0)
        sim.add_flow(0, [0], 1.0)
        sim.add_flow(1, [1], 5.0)
        t = 1.0 + 0.9e-9
        finished = sim.advance_to(t)
        assert [r.flow_id for r in finished] == [0]
        assert finished[0].finish == 1.0
        assert sim.now == t
        sim.run_until_idle()
        assert sim.now == pytest.approx(5.0, rel=REL)

    def test_duplicate_links_collapse(self):
        sim = IncFluidSimulator(2, 1.0)
        sim.add_flow(0, [0, 0, 1], 2.0)
        assert sim.rates()[0] == pytest.approx(1.0)
        batch = IncFluidSimulator(2, 1.0)
        batch.add_flows([0], [2.0], np.asarray([0, 0, 0]), np.asarray([0, 0, 1]))
        assert batch.rates()[0] == pytest.approx(1.0)

    def test_recompute_counter_matches_vec(self):
        """One refill per epoch, exactly like the from-scratch engines —
        incrementality changes the work per refill, not the schedule."""
        caps, arrivals = _random_stream(5, 4, 25, zero_frac=0.0)
        a, b = VecFluidSimulator(len(caps), caps), IncFluidSimulator(len(caps), caps)
        _drive(a, arrivals)
        _drive(b, arrivals)
        assert b.recomputes <= a.recomputes
        tel = b.telemetry()
        assert tel["partial_refills"] + tel["full_refills"] == tel["recomputes"]


class TestAdversarial:
    def test_simultaneous_completions(self):
        """A whole rate class draining at one instant must leave the
        frozen levels of the surviving flows exact."""
        for cls in (VecFluidSimulator, IncFluidSimulator):
            sim = cls(3, 1.0)
            # four equal flows on link 0 complete together; flow 9 on
            # links 1+2 keeps running through the event
            for fid in range(4):
                sim.add_flow(fid, [0], 1.0)
            sim.add_flow(9, [1, 2], 10.0)
            done = sim.advance_to_next_completion()
            assert [r.flow_id for r in done] == [0, 1, 2, 3]
            assert sim.now == pytest.approx(4.0, rel=REL)
            assert sim.rates()[9] == pytest.approx(1.0, rel=REL)
            sim.run_until_idle()
            assert sim.now == pytest.approx(10.0, rel=REL)

    def test_zero_size_flows_in_epochs(self):
        caps, arrivals = _random_stream(17, 5, 30, zero_frac=0.5, quantum=0.5)
        a, b = VecFluidSimulator(len(caps), caps), IncFluidSimulator(len(caps), caps)
        _drive(a, arrivals)
        _drive(b, arrivals)
        _assert_same_results(a, b)

    def test_single_link_bottleneck_chain(self):
        """A chain of two-link flows (flow i on links i, i+1) couples
        every link into one dependency chain: an arrival or departure
        at one end can ripple the whole way — the worst case for
        component closure, which must either follow the ripple or fall
        back, never freeze a stale level."""
        n = 8
        caps = np.linspace(1.0, 0.3, n)  # strictly decreasing: a chain
        a, b = VecFluidSimulator(n, caps), IncFluidSimulator(n, caps)
        arrivals = []
        t = 0.0
        for i in range(n - 1):
            arrivals.append((t, i, [i, i + 1], 1.0 + 0.1 * i))
            t += 0.3
        # a second wave re-entering the drained chain
        for i in range(n - 1):
            arrivals.append((t, 100 + i, [i, i + 1], 0.7))
            t += 0.2
        _drive(a, arrivals)
        _drive(b, arrivals)
        _assert_same_results(a, b)
        assert b.telemetry()["recomputes"] > 0

    def test_water_levels_after_chain(self):
        n = 6
        caps = np.linspace(1.2, 0.4, n)
        sim = IncFluidSimulator(n, caps)
        for i in range(n - 1):
            sim.add_flow(i, [i, i + 1], 2.0)
        sim.advance_to_next_completion()
        sim.advance_to_next_completion()
        _assert_water_levels_consistent(sim, caps)


class TestPropertyEquivalence:
    @given(
        num_links=st.integers(1, 6),
        num_flows=st.integers(1, 14),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_static_rates_match_scalar(self, num_links, num_flows, seed):
        caps, flows = _random_instance(seed, num_links, num_flows)
        a, b = FluidSimulator(len(caps), caps), IncFluidSimulator(len(caps), caps)
        for fid, links, size in flows:
            a.add_flow(fid, links, size)
            b.add_flow(fid, links, size)
        ra, rb = a.rates(), b.rates()
        assert set(ra) == set(rb)
        for fid in ra:
            assert rb[fid] == pytest.approx(ra[fid], rel=REL, abs=1e-12)

    @given(
        num_links=st.integers(1, 6),
        num_flows=st.integers(1, 20),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_dynamic_fct_multiset_matches_vec(self, num_links, num_flows, seed):
        caps, arrivals = _random_stream(seed, num_links, num_flows)
        a = VecFluidSimulator(len(caps), caps)
        b = IncFluidSimulator(len(caps), caps)
        _drive(a, arrivals)
        _drive(b, arrivals)
        _assert_same_results(a, b)

    @given(
        num_links=st.integers(2, 6),
        num_flows=st.integers(4, 20),
        seed=st.integers(0, 10_000),
        quantum=st.sampled_from((0.25, 1.0, 4.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_epoch_boundaries_match_vec(self, num_links, num_flows, seed, quantum):
        """Quantized arrival instants force multi-flow epochs and
        completion/arrival collisions at one timestamp."""
        caps, arrivals = _random_stream(seed, num_links, num_flows, quantum=quantum)
        a = VecFluidSimulator(len(caps), caps)
        b = IncFluidSimulator(len(caps), caps)
        _drive(a, arrivals)
        _drive(b, arrivals)
        assert b.now == pytest.approx(a.now, rel=REL, abs=1e-12)
        _assert_same_results(a, b)

    @given(
        num_links=st.integers(1, 6),
        num_flows=st.integers(1, 16),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_water_levels_consistent_mid_run(self, num_links, num_flows, seed):
        caps, arrivals = _random_stream(seed, num_links, num_flows, zero_frac=0.0)
        sim = IncFluidSimulator(len(caps), caps)
        # inject the first half, drain one event, audit the levels
        for t, fid, links, size in arrivals[: max(1, num_flows // 2)]:
            nc = sim.next_completion_time() if sim.active_flows else None
            if nc is None or t <= nc:
                sim.advance_to(t)
            sim.add_flow(fid, links, size)
        if sim.active_flows:
            sim.advance_to_next_completion()
        if sim.active_flows:
            _assert_water_levels_consistent(sim, np.asarray(caps))
        sim.run_until_idle()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_telemetry_contract(self, seed):
        caps, arrivals = _random_stream(seed, 5, 25)
        sim = IncFluidSimulator(len(caps), caps)
        _drive(sim, arrivals)
        tel = sim.telemetry()
        assert tel["partial_refills"] + tel["full_refills"] == tel["recomputes"]
        assert tel["cert_fallbacks"] <= tel["full_refills"]
        assert tel["links_touched"] <= tel["links_active"]
        assert tel["flows_touched"] <= tel["flows_active"]
        assert tel["mutation_events"] >= tel["recomputes"]
        assert tel["component_size_hwm"] <= sim.num_links // PAD


class TestDriverEquivalence:
    """Through the real dynamic driver, across algorithms and size
    distributions: the incremental engine must reproduce the vectorized
    engine's FCT statistics to 1e-9 on every combination."""

    TOPO = "XGFT(2;4,4;1,2)"

    def _compare(self, workload: str, algorithm: str):
        from repro.core.factory import make_algorithm
        from repro.topology.registry import resolve_topology
        from repro.workloads import DynamicDriver, resolve_workload

        topo = resolve_topology(self.TOPO)
        wl = resolve_workload(workload, topo.num_leaves)
        stream = wl.generate(seed=2)
        results = {}
        for engine in ("fluid-vec", "fluid-vec-inc"):
            driver = DynamicDriver(topo, make_algorithm(algorithm, topo), engine=engine)
            results[engine] = driver.run(stream, workload=wl.spec, seed=2)
        vec, inc = results["fluid-vec"], results["fluid-vec-inc"]
        assert inc.num_completed == vec.num_completed
        assert inc.makespan == pytest.approx(vec.makespan, rel=REL)
        assert inc.fct.mean == pytest.approx(vec.fct.mean, rel=REL)
        assert inc.fct.p99 == pytest.approx(vec.fct.p99, rel=REL)
        assert inc.fct.max == pytest.approx(vec.fct.max, rel=REL)
        assert inc.stats.recomputes is not None
        assert inc.stats.engine["partial_refills"] >= 0

    @pytest.mark.parametrize("algorithm", ["d-mod-k", "s-mod-k", "colored"])
    def test_across_algorithms(self, algorithm):
        self._compare("poisson(load=0.6,flows=120)", algorithm)

    @pytest.mark.parametrize(
        "workload",
        [
            "poisson(load=0.6,sizes=uniform,spread=0.5,flows=120)",
            "poisson(load=0.6,sizes=pareto,alpha=1.5,flows=120)",
            "onoff(load=0.5,duty=0.25,burst=16,flows=120)",
        ],
    )
    def test_across_size_distributions_and_burstiness(self, workload):
        self._compare(workload, "d-mod-k")

    def test_locality_biased_poisson(self):
        """The locality workload the headline bench row uses."""
        self._compare(
            "poisson(load=0.6,flows=150,locality=0.9,group=4,"
            "sizes=uniform,spread=0.5)",
            "d-mod-k",
        )
