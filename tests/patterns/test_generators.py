"""Tests for the synthetic traffic generators."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.patterns import (
    Permutation,
    bit_complement,
    bit_reversal,
    butterfly,
    hotspot,
    neighbor_exchange,
    shift,
    tornado_groups,
    transpose,
    uniform_random_pairs,
)


class TestShift:
    def test_values(self):
        assert shift(8, 2).perm.tolist() == [2, 3, 4, 5, 6, 7, 0, 1]

    def test_zero_shift_is_identity(self):
        assert shift(8, 0) == Permutation.identity(8)

    def test_wraps(self):
        assert shift(8, 10) == shift(8, 2)


class TestTranspose:
    def test_square_is_involution(self):
        assert transpose(4, 4).is_involution()

    def test_rectangular(self):
        p = transpose(2, 3)
        # i = r*3 + c -> c*2 + r
        assert p[1] == 2  # (0,1) -> (1,0) = 1*2+0
        assert sorted(p.perm.tolist()) == list(range(6))

    def test_fixed_points_on_diagonal(self):
        p = transpose(3, 3)
        assert p.fixed_points().tolist() == [0, 4, 8]


class TestBitPatterns:
    def test_bit_reversal_involution(self):
        assert bit_reversal(16).is_involution()

    def test_bit_reversal_values(self):
        p = bit_reversal(8)
        assert p[1] == 4 and p[3] == 6 and p[7] == 7

    def test_bit_complement(self):
        p = bit_complement(8)
        assert p[0] == 7 and p[3] == 4
        assert p.is_involution()

    def test_butterfly(self):
        p = butterfly(8, 2)
        assert p[1] == 4  # swap bit0 and bit2
        assert p.is_involution()

    def test_butterfly_stage0_is_identity(self):
        assert butterfly(8, 0) == Permutation.identity(8)

    def test_power_of_two_required(self):
        for fn in (bit_reversal, bit_complement):
            with pytest.raises(ValueError):
                fn(12)
        with pytest.raises(ValueError):
            butterfly(8, 3)


class TestTornado:
    def test_group_structure(self):
        p = tornado_groups(16, 4)
        # group g -> g + 2 (mod 4), local offset preserved
        assert p[0] == 8 and p[5] == 13
        assert sorted(p.perm.tolist()) == list(range(16))

    def test_divisibility_check(self):
        with pytest.raises(ValueError):
            tornado_groups(10, 4)


class TestNeighborExchange:
    def test_boundaries(self):
        pairs = neighbor_exchange(4, 1)
        assert (0, 1) in pairs and (3, 2) in pairs
        assert (0, -1) not in pairs
        # interior nodes send both ways
        assert pairs.count((1, 2)) == 1 and pairs.count((1, 0)) == 1

    def test_count(self):
        # 2n - 2*distance directed flows
        assert len(neighbor_exchange(16, 4)) == 2 * 16 - 8


class TestRandomAndHotspot:
    def test_uniform_no_self_flows(self):
        pairs = uniform_random_pairs(32, 500, rng=1)
        assert len(pairs) == 500
        assert all(s != d for s, d in pairs)

    def test_uniform_reproducible(self):
        assert uniform_random_pairs(32, 50, rng=7) == uniform_random_pairs(32, 50, rng=7)

    def test_hotspot(self):
        pairs = hotspot(8, 3)
        assert len(pairs) == 7
        assert all(d == 3 for _, d in pairs)
        assert (3, 3) not in pairs

    def test_hotspot_limited_senders(self):
        assert hotspot(16, 0, senders=4) == [(1, 0), (2, 0), (3, 0)]


@given(n=st.sampled_from([4, 8, 16, 32]), k=st.integers(0, 40))
@settings(max_examples=40, deadline=None)
def test_property_generators_yield_permutations(n, k):
    for perm in (shift(n, k), bit_reversal(n), bit_complement(n)):
        assert sorted(perm.perm.tolist()) == list(range(n))
