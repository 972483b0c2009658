"""Tests for the pattern -> permutations decomposition (Sec. VII-C)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.patterns import (
    cg_pattern,
    decompose_into_permutations,
    max_endpoint_multiplicity,
    uniform_random_pairs,
    wrf_pattern,
)


def _assert_valid_decomposition(pairs, rounds):
    # every round is a partial permutation
    for rnd in rounds:
        srcs = [s for s, _ in rnd]
        dsts = [d for _, d in rnd]
        assert len(set(srcs)) == len(srcs)
        assert len(set(dsts)) == len(dsts)
    # multiset of pairs is preserved
    flat = sorted(p for rnd in rounds for p in rnd)
    assert flat == sorted((int(s), int(d)) for s, d in pairs)


class TestBasics:
    def test_empty(self):
        assert decompose_into_permutations([]) == []
        assert max_endpoint_multiplicity([]) == 0

    def test_single_flow(self):
        assert decompose_into_permutations([(0, 1)]) == [[(0, 1)]]

    def test_permutation_stays_one_round(self):
        pairs = [(i, (i + 3) % 8) for i in range(8)]
        rounds = decompose_into_permutations(pairs)
        assert len(rounds) == 1

    def test_duplicate_pairs_split(self):
        rounds = decompose_into_permutations([(0, 1), (0, 1), (0, 1)])
        assert len(rounds) == 3
        _assert_valid_decomposition([(0, 1)] * 3, rounds)

    def test_multiplicity(self):
        assert max_endpoint_multiplicity([(0, 1), (0, 2), (3, 1)]) == 2


class TestOptimality:
    def test_wrf_decomposes_in_two_rounds(self):
        """WRF: every node sends/receives <= 2 -> exactly 2 rounds."""
        pairs = wrf_pattern(256).pairs()
        rounds = decompose_into_permutations(pairs)
        assert len(rounds) == max_endpoint_multiplicity(pairs) == 2
        _assert_valid_decomposition(pairs, rounds)

    def test_cg_full_pattern(self):
        pairs = cg_pattern(128).pairs()
        rounds = decompose_into_permutations(pairs)
        assert len(rounds) == max_endpoint_multiplicity(pairs) == 5
        _assert_valid_decomposition(pairs, rounds)

    @given(seed=st.integers(0, 1000), flows=st.integers(1, 120))
    @settings(max_examples=50, deadline=None)
    def test_property_rounds_equal_multiplicity(self, seed, flows):
        """König: #rounds == Δ for any pattern."""
        pairs = uniform_random_pairs(16, flows, rng=seed)
        rounds = decompose_into_permutations(pairs)
        assert len(rounds) == max_endpoint_multiplicity(pairs)
        _assert_valid_decomposition(pairs, rounds)
