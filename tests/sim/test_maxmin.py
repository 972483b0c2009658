"""The max-min filling kernel on its own, and the engines that share it.

:func:`repro.sim.maxmin.progressive_fill` is driven directly on random
padded link matrices and residual capacity vectors and must return the
max-min allocation: feasible, every flow bottlenecked on a saturated
link where its rate is the largest, and — on full capacities — the
scalar oracle's rates.  Its output must not depend on the order of the
COO entries or of the columns within a row (the vectorized engine hands
it its own COO; the incremental one lets it derive one from the matrix).
The last property pins that both vectorized engines fill a batch with
this one kernel: their first rates for the same batch are identical,
bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import FluidSimulator
from repro.sim.engines import make_fluid_simulator
from repro.sim.maxmin import progressive_fill

REL = 1e-9


@st.composite
def instances(draw, residual: bool = True):
    """(num_links, capacity, per-flow link lists, padded link matrix)."""
    num_links = draw(st.integers(1, 8))
    num_flows = draw(st.integers(1, 16))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    cap = rng.uniform(0.1, 3.0, num_links)
    if residual:
        # residual capacities: some links fully consumed by background
        cap[rng.random(num_links) < draw(st.sampled_from((0.0, 0.2)))] = 0.0
    flows = [
        rng.choice(num_links, size=int(rng.integers(1, num_links + 1)), replace=False)
        for _ in range(num_flows)
    ]
    width = max(len(f) for f in flows) + draw(st.integers(0, 2))  # extra padding
    lm = np.full((num_flows, width), num_links, dtype=np.int64)
    for i, links in enumerate(flows):
        lm[i, : len(links)] = links
    return num_links, cap, flows, lm


def _loads(flows, rates, num_links):
    loads = np.zeros(num_links)
    max_user = np.zeros(num_links)
    for links, r in zip(flows, rates):
        loads[links] += r
        max_user[links] = np.maximum(max_user[links], r)
    return loads, max_user


class TestKernel:
    @given(inst=instances())
    @settings(max_examples=150, deadline=None)
    def test_feasible_and_bottlenecked(self, inst):
        num_links, cap, flows, lm = inst
        fill = progressive_fill(lm, cap)
        rates = fill.rates
        assert (rates >= 0).all()
        loads, max_user = _loads(flows, rates, num_links)
        assert (loads <= cap * (1 + REL) + 1e-12).all()
        for i, links in enumerate(flows):
            saturated = loads[links] >= cap[links] * (1 - REL) - 1e-12
            largest = rates[i] >= max_user[links] * (1 - REL) - 1e-12
            assert (saturated & largest).any(), f"flow {i} has no bottleneck link"

    @given(inst=instances(residual=False))
    @settings(max_examples=100, deadline=None)
    def test_full_capacity_matches_scalar_oracle(self, inst):
        num_links, cap, flows, lm = inst
        fill = progressive_fill(lm, cap)
        oracle = FluidSimulator(num_links, cap)
        for i, links in enumerate(flows):
            oracle.add_flow(i, links.tolist(), 1.0)
        want = oracle.rates()
        for i in range(len(flows)):
            assert fill.rates[i] == pytest.approx(want[i], rel=REL, abs=1e-12)

    @given(inst=instances(), order_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_entry_and_column_order_do_not_matter(self, inst, order_seed):
        num_links, cap, _, lm = inst
        derived = progressive_fill(lm, cap)
        rng = np.random.default_rng(order_seed)
        perm = rng.permutation(len(derived.e_f))
        shuffled_cols = np.array([row[rng.permutation(len(row))] for row in lm])
        given_coo = progressive_fill(shuffled_cols, cap, (derived.e_f[perm], derived.e_l[perm]))
        assert np.array_equal(given_coo.rates, derived.rates)
        assert given_coo[3:] == derived[3:]  # rounds, compactions

    @given(inst=instances())
    @settings(max_examples=50, deadline=None)
    def test_capacity_is_not_modified(self, inst):
        _, cap, _, lm = inst
        before = cap.copy()
        progressive_fill(lm, cap)
        assert np.array_equal(cap, before)

    @given(inst=instances())
    @settings(max_examples=150, deadline=None)
    def test_rounds_match_a_reference_fill(self, inst):
        """A per-flow reference fill freezes, each round, every flow
        with an unblocked link; the kernel takes as many rounds."""
        num_links, cap, flows, lm = inst
        remaining = cap.astype(np.float64).copy()
        unfrozen = set(range(len(flows)))
        rounds = 0
        while unfrozen:
            counts = np.zeros(num_links)
            for i in unfrozen:
                counts[flows[i]] += 1
            shares = np.full(num_links, np.inf)
            np.divide(remaining, counts, out=shares, where=counts > 0)
            bottleneck = {i: shares[flows[i]].min() for i in unfrozen}
            blocked = np.zeros(num_links, dtype=bool)
            for i in unfrozen:
                blocked[flows[i][bottleneck[i] < shares[flows[i]] - 1e-9]] = True
            rounds += 1
            for i in [i for i in unfrozen if not blocked[flows[i]].all()]:
                remaining[flows[i]] -= max(bottleneck[i], 0.0)
                unfrozen.discard(i)
            np.maximum(remaining, 0.0, out=remaining)
        assert progressive_fill(lm, cap).rounds == rounds

    def test_counters(self):
        # two flows share link 0; flow 1 alone also crosses the tighter
        # link 1, so it freezes first and flow 0 takes the rest
        lm = np.asarray([[0, 2], [0, 1]])
        fill = progressive_fill(lm, np.asarray([3.0, 1.0]))
        assert fill.rates.tolist() == [2.0, 1.0]
        assert fill.rounds == 2
        assert fill.compactions == 1  # flow 0 alone is half the working set


class TestEnginesShareTheKernel:
    @given(inst=instances(residual=False), sizes_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_first_fill_is_bit_identical(self, inst, sizes_seed):
        num_links, cap, flows, _ = inst
        sizes = np.random.default_rng(sizes_seed).uniform(0.5, 5.0, len(flows))
        coo_flow = np.concatenate([np.full(len(links), i) for i, links in enumerate(flows)])
        coo_link = np.concatenate(flows)
        rates = {}
        for engine in ("fluid-vec", "fluid-vec-inc"):
            sim = make_fluid_simulator(engine, num_links, cap)
            sim.add_flows(np.arange(len(flows)), sizes, coo_flow, coo_link)
            rates[engine] = sim.rates()
        assert rates["fluid-vec"] == rates["fluid-vec-inc"]

    @pytest.mark.parametrize("engine", ("fluid", "fluid-vec", "fluid-vec-inc"))
    def test_completion_groups_in_flow_id_order(self, engine):
        """A group completing at one instant is reported in ascending
        flow id, whatever order the flows were added in."""
        sim = make_fluid_simulator(engine, 3, 1.0)
        for fid, link in ((5, 0), (3, 1), (9, 2)):
            sim.add_flow(fid, [link], 2.0)
        assert [r.flow_id for r in sim.advance_to_next_completion()] == [3, 5, 9]
