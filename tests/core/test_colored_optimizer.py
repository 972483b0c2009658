"""The array-native Colored optimizer against its original implementation.

:mod:`tests.core.colored_oracle` keeps the dict-and-``Counter``
optimizer the array version replaced.  Both must agree exactly: same
assignment, same ``(max, sum of squares)`` score, same route table —
which also pins the RNG draw order (restart shuffles, lazily sampled
candidate sets) and the local search's hot-flow order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.api import Scenario
from repro.core import Colored, DModK, make_algorithm
from repro.obs import REGISTRY
from repro.topology import XGFT, slimmed_two_level
from tests.core.colored_oracle import OracleColored

#: a shift plus a scatter on 16 leaves: crowded enough for local-search moves
COUNTER_PAIRS = [(s, (s + 4) % 16) for s in range(16)] + [(s, (s * 7 + 3) % 16) for s in range(16)]

TOPOLOGIES = [
    XGFT((4, 4), (1, 3)),
    XGFT((4, 4), (2, 3)),
    XGFT((2, 2, 2), (1, 2, 2)),
    XGFT((4, 4, 4), (1, 2, 3)),
]


def _as_assignment(topo, flows, ports):
    """The array optimizer's dense ports as the oracle's assignment dict."""
    levels = topo.nca_level_array(
        np.asarray([s for s, _ in flows], dtype=np.int64),
        np.asarray([d for _, d in flows], dtype=np.int64),
    )
    return {
        flow: tuple(int(p) for p in ports[f, : levels[f]]) for f, flow in enumerate(flows)
    }


def _assert_same(topo, pairs, **kwargs):
    flows = sorted({(s, d) for s, d in pairs if s != d})
    oracle = OracleColored(topo, **kwargs)
    want = oracle._optimize(flows)
    ports, score = Colored(topo, **kwargs)._optimize(flows)
    assert _as_assignment(topo, flows, ports) == want
    assert score == oracle.best_score
    np.testing.assert_array_equal(
        Colored(topo, **kwargs).build_table(pairs).ports,
        OracleColored(topo, **kwargs).build_table(pairs).ports,
    )


@st.composite
def _cases(draw):
    topo = draw(st.sampled_from(TOPOLOGIES))
    n = topo.num_leaves
    # up to 4n pairs (duplicates and self-pairs included): local search
    # needs crowded links before its hot-flow order shows in the result
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = rng.integers(0, n, size=(draw(st.integers(0, 4 * n)), 2)).tolist()
    kwargs = {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "restarts": draw(st.integers(0, 3)),
        "local_search_passes": draw(st.integers(0, 5)),
        "endpoint_aware": draw(st.booleans()),
    }
    if draw(st.booleans()):
        kwargs["max_candidates"] = draw(st.integers(1, 3))  # the sampled regime
    return topo, pairs, kwargs


class TestOracleEquivalence:
    @given(case=_cases())
    @settings(max_examples=150, deadline=None)
    def test_random_pair_sets(self, case):
        topo, pairs, kwargs = case
        _assert_same(topo, pairs, **kwargs)

    @pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: t.spec())
    def test_empty_flow_list(self, topo):
        ports, score = Colored(topo)._optimize([])
        assert ports.shape == (0, topo.h)
        assert score == (0, 0)
        _assert_same(topo, [])
        _assert_same(topo, [(3, 3)])  # self-pairs route nothing

    def test_level_one_flows_without_endpoint_links(self):
        """With the host links dropped, an NCA-level-1 flow's cost set is
        empty: every candidate costs (0, 0) and the first must win."""
        topo = XGFT((4, 4), (2, 3))
        pairs = [(s, s ^ 1) for s in range(16)] + [(0, 5), (1, 9), (2, 14)]
        _assert_same(topo, pairs, endpoint_aware=False)
        # one cold greedy pass over intra-switch flows only (the mod-k warm
        # starts would otherwise win the tie): every flow takes port 0
        flows = sorted((s, s ^ 1) for s in range(16))
        alg = Colored(topo, endpoint_aware=False)
        cold = (np.zeros((16, 2), dtype=np.int64), np.zeros(16, dtype=bool))
        rng = np.random.default_rng(0)
        ports, score, _, _ = alg._greedy_and_search(alg._layout(flows), list(range(16)), cold, rng)
        assert not ports.any()
        assert score == (0, 0)
        want = OracleColored(topo, endpoint_aware=False)._greedy_and_search(
            flows, list(range(16)), None, rng
        )
        assert want == (_as_assignment(topo, flows, ports), score)

    def test_intra_switch_pairs_on_paper_tree(self):
        topo = slimmed_two_level(16, 16, 4)
        pairs = [(s, s + 1) for s in range(0, 256, 2)]  # every pair is intra-switch
        alg = make_algorithm("colored(endpoint_aware=false)", topo)
        oracle = OracleColored(topo, endpoint_aware=False)
        np.testing.assert_array_equal(
            alg.build_table(pairs).ports, oracle.build_table(pairs).ports
        )

    @pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: t.spec())
    def test_port_array_outside_prepared_set(self, topo):
        """Pairs the optimizer never saw fall back to the D-mod-k digit rule."""
        n = topo.num_leaves
        prepared = [(s, (3 * s + 1) % n) for s in range(0, n, 2)]
        alg, oracle = Colored(topo, seed=4), OracleColored(topo, seed=4)
        alg.prepare(prepared)
        oracle.prepare(prepared)
        src = np.arange(n, dtype=np.int64)
        dst = (3 * src + 1) % n  # odd sources were never prepared
        keep = src != dst
        src, dst = src[keep], dst[keep]
        outside = src % 2 == 1
        dmodk = DModK(topo)
        for level in range(topo.h):
            active = topo.nca_level_array(src, dst) > level
            s, d = src[active], dst[active]
            got = alg.port_array(level, s, d)
            np.testing.assert_array_equal(got, oracle.port_array(level, s, d))
            np.testing.assert_array_equal(
                got[outside[active]], dmodk.port_array(level, s, d)[outside[active]]
            )


class TestMaxCandidates:
    @pytest.mark.parametrize("value", [0, -2])
    def test_rejected_through_spec_string(self, value):
        scenario = Scenario(
            "XGFT(2;4,4;1,3)", "bit-reversal", f"colored(max_candidates={value})"
        )
        with pytest.raises(ValueError, match="max_candidates"):
            scenario.evaluate()

    def test_one_is_the_smallest_sample(self):
        topo = XGFT((4, 4), (1, 3))
        table = make_algorithm("colored(max_candidates=1)", topo).build_table(
            [(s, (s + 5) % 16) for s in range(16)]
        )
        table.validate()


class TestWorkCounters:
    @staticmethod
    def _counts():
        return (
            REGISTRY.counter("colored.evaluations").value,
            REGISTRY.counter("colored.moves").value,
        )

    def _run(self, seed):
        before = self._counts()
        Colored(XGFT((4, 4), (1, 2)), seed=seed).build_table(COUNTER_PAIRS)
        after = self._counts()
        return after[0] - before[0], after[1] - before[1]

    def test_same_seed_same_counts(self):
        first = self._run(seed=5)
        assert first == self._run(seed=5)
        evaluations, moves = first
        assert evaluations > 0
        assert 0 <= moves <= evaluations

    def test_nothing_recorded_with_obs_off(self):
        with obs.deactivated():
            alg = Colored(XGFT((4, 4), (1, 2)), seed=5)
        before = self._counts()
        alg.build_table(COUNTER_PAIRS)
        assert self._counts() == before
