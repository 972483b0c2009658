"""Tests for the traffic-pattern data model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import phase_pairs
from repro.patterns import Pattern, Phase


class TestPhase:
    def test_from_pairs(self):
        ph = Phase.from_pairs([(0, 1), (1, 2)], size=10, name="x")
        assert ph.pairs() == [(0, 1), (1, 2)]
        assert ph.total_bytes() == 20
        assert len(ph) == 2

    def test_columns_are_int64(self):
        ph = Phase([0, 1], np.array([1, 0], dtype=np.int32), (7, 8))
        for column in (ph.src, ph.dst, ph.sizes):
            assert column.dtype == np.int64 and column.ndim == 1
        assert ph.sizes.tolist() == [7, 8]

    def test_total_bytes_does_not_wrap(self):
        assert Phase([0, 1], [1, 0], [2**62, 2**62]).total_bytes() == 2**63

    def test_is_permutation(self):
        assert Phase.from_pairs([(0, 1), (1, 0)]).is_permutation()
        assert not Phase.from_pairs([(0, 1), (0, 2)]).is_permutation()
        assert not Phase.from_pairs([(0, 1), (2, 1)]).is_permutation()
        assert not Phase.from_pairs([(0, 0)]).is_permutation()

    @pytest.mark.parametrize(
        "src, dst, sizes",
        [
            ([-1, 2], [2, 1], [1, 1]),  # negative source
            ([1, 2], [2, -3], [1, 1]),  # negative destination
            ([1, 2], [2, 1], [1, 0]),  # zero size
            ([1, 2], [2, 1], [1, -5]),  # negative size
        ],
        ids=["negative-src", "negative-dst", "zero-size", "negative-size"],
    )
    def test_bad_values_rejected(self, src, dst, sizes):
        with pytest.raises(ValueError):
            Phase(src, dst, sizes)

    @pytest.mark.parametrize("size", [1.5, 2.0, "3", True], ids=repr)
    def test_non_integer_size_rejected_not_truncated(self, size):
        with pytest.raises(ValueError, match="flow size"):
            Phase([0], [1], [size])
        with pytest.raises(ValueError):
            Phase.from_pairs([(0, 1)], size=size)

    def test_non_integer_endpoint_rejected(self):
        with pytest.raises(ValueError, match="destination"):
            Phase([0], [1.0], [1])

    @pytest.mark.parametrize(
        "src, dst, sizes",
        [([0, 1], [1], [1, 1]), ([0], [1], [1, 1]), ([0, 1], [1, 0], [])],
        ids=["dst-short", "sizes-long", "sizes-empty"],
    )
    def test_unequal_lengths_rejected(self, src, dst, sizes):
        with pytest.raises(ValueError, match="parallel"):
            Phase(src, dst, sizes)

    @pytest.mark.parametrize("column", ["src", "dst", "sizes"])
    def test_non_flat_input_rejected(self, column):
        columns = {"src": [0, 1], "dst": [1, 0], "sizes": [1, 1]}
        columns[column] = [columns[column]]  # 2-D
        with pytest.raises(ValueError, match="flat"):
            Phase(**columns)
        columns[column] = 3  # 0-D
        with pytest.raises(ValueError, match="flat"):
            Phase(**columns)

    def test_columns_are_read_only_copies(self):
        src = np.array([0, 1], dtype=np.int64)
        ph = Phase(src, [1, 0], [4, 4])
        for column in (ph.src, ph.dst, ph.sizes):
            with pytest.raises(ValueError):
                column[0] = 3
        src[0] = 3  # the caller's array stays writable and detached
        assert ph.src.tolist() == [0, 1]

    def test_equal_contents_compare_equal(self):
        a = Phase([0, 1], [1, 0], [5, 6], name="x")
        b = Phase(np.array([0, 1], dtype=np.int16), (1, 0), np.array([5, 6]), name="x")
        assert a == b and hash(a) == hash(b)
        assert a != Phase([0, 1], [1, 0], [5, 7], name="x")
        assert a != Phase([0, 1], [1, 0], [5, 6], name="y")
        assert Pattern((a,), name="p") == Pattern((b,), name="p")
        assert len({Pattern((a,), name="p"), Pattern((b,), name="p")}) == 1

    def test_empty_phase(self):
        ph = Phase([], [], [])
        assert len(ph) == 0 and ph.total_bytes() == 0 and ph.is_permutation()
        assert Phase.from_pairs([]) == ph


class TestPattern:
    def test_num_ranks_inferred(self):
        pat = Pattern.single_phase([(0, 5), (3, 1)])
        assert pat.num_ranks == 6

    def test_num_ranks_explicit_check(self):
        with pytest.raises(ValueError):
            Pattern.single_phase([(0, 9)], num_ranks=5)

    def test_connectivity_matrix(self):
        pat = Pattern.single_phase([(0, 1), (0, 1), (1, 2)], size=5)
        mat = pat.connectivity_matrix()
        assert mat[0, 1] == 10
        assert mat[1, 2] == 5
        assert mat.sum() == 15

    def test_inverse(self):
        pat = Pattern.single_phase([(0, 1), (2, 3)], size=7)
        inv = pat.inverse()
        assert inv.pairs() == [(1, 0), (3, 2)]
        assert inv.num_ranks == pat.num_ranks
        np.testing.assert_array_equal(
            inv.connectivity_matrix(), pat.connectivity_matrix().T
        )

    def test_symmetry(self):
        assert Pattern.single_phase([(0, 1), (1, 0)]).is_symmetric()
        assert not Pattern.single_phase([(0, 1), (1, 2)]).is_symmetric()

    def test_unique_pairs(self):
        pat = Pattern.single_phase([(1, 0), (0, 1), (1, 0)])
        assert pat.unique_pairs() == [(0, 1), (1, 0)]

    def test_multi_phase_totals(self):
        pat = Pattern(
            (Phase.from_pairs([(0, 1)], size=3), Phase.from_pairs([(1, 0)], size=4)),
        )
        assert pat.total_bytes() == 7
        assert len(pat) == 2


@st.composite
def flow_lists(draw):
    """``(num_ranks, phases)``: each phase a list of ``(src, dst, size)``."""
    n = draw(st.integers(1, 10))
    flow = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 2**40))
    return n, draw(st.lists(st.lists(flow, max_size=12), max_size=4))


def _pattern(n, phases):
    return Pattern(
        tuple(
            Phase(
                [s for s, _, _ in flows],
                [d for _, d, _ in flows],
                [z for _, _, z in flows],
                name=f"p{i}",
            )
            for i, flows in enumerate(phases)
        ),
        name="drawn",
        num_ranks=n,
    )


@settings(max_examples=200, deadline=None)
@given(flow_lists())
def test_array_model_matches_per_pair_python(drawn):
    """Every derived view equals a plain per-flow Python computation."""
    n, phases = drawn
    pattern = _pattern(n, phases)
    flows = [f for fl in phases for f in fl]

    matrix = [[0] * n for _ in range(n)]
    for s, d, z in flows:
        matrix[s][d] += z
    assert pattern.connectivity_matrix().tolist() == matrix
    assert pattern.unique_pairs() == sorted({(s, d) for s, d, _ in flows})
    assert pattern.total_bytes() == sum(z for _, _, z in flows)
    assert len(pattern) == len(flows)

    inverse = pattern.inverse()
    assert inverse.num_ranks == n
    for phase, fl in zip(inverse.phases, phases, strict=True):
        assert phase.pairs() == [(d, s) for s, d, _ in fl]
        assert phase.sizes.tolist() == [z for _, _, z in fl]

    for phase, fl in zip(pattern.phases, phases, strict=True):
        srcs, dsts = [s for s, _, _ in fl], [d for _, d, _ in fl]
        assert phase.is_permutation() == (
            len(set(srcs)) == len(fl)
            and len(set(dsts)) == len(fl)
            and all(s != d for s, d, _ in fl)
        )
        assert phase.total_bytes() == sum(z for _, _, z in fl)

    expected = []
    for fl in phases:
        kept = [(s, d, z) for s, d, z in fl if s != d]
        if kept:
            expected.append(([(s, d) for s, d, _ in kept], [z for _, _, z in kept]))
    got = phase_pairs(pattern)
    assert len(got) == len(expected)
    for (pairs, sizes), (want_pairs, want_sizes) in zip(got, expected):
        assert pairs.dtype == sizes.dtype == np.int64
        assert pairs.shape == (len(want_pairs), 2)
        assert [tuple(p) for p in pairs.tolist()] == want_pairs
        assert sizes.tolist() == want_sizes
