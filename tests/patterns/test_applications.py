"""Tests for the WRF-256 and CG.D-128 workload generators (paper Sec. VI-A)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.patterns import (
    CG_PHASE_MESSAGE,
    WRF_DEFAULT_MESSAGE,
    Pattern,
    Permutation,
    Phase,
    cg_grid,
    cg_pattern,
    cg_reduce_exchange,
    cg_transpose_exchange,
    wrf_exchange,
    wrf_pattern,
)

POWERS_OF_TWO = [1 << k for k in range(11)]  # 1 .. 1024


def reference_wrf_pairs(n: int, row: int) -> list[tuple[int, int]]:
    """The WRF exchange, one task at a time: ``i + row``, then ``i - row``."""
    pairs = []
    for i in range(n):
        if i + row < n:
            pairs.append((i, i + row))
        if i - row >= 0:
            pairs.append((i, i - row))
    return pairs


def reference_cg_transpose_pairs(n: int) -> list[tuple[int, int]]:
    """The CG transpose exchange, one rank at a time, fixed points dropped."""
    nprows, npcols = cg_grid(n)
    pairs = []
    for me in range(n):
        if npcols == nprows:
            partner = (me % nprows) * npcols + me // npcols
        else:
            t = me // 2
            partner = 2 * ((t % nprows) * nprows + t // nprows) + (me % 2)
        if partner != me:
            pairs.append((me, partner))
    return pairs


def reference_cg_pattern(n: int) -> Pattern:
    """CG built from per-rank Python partners, phase by phase."""
    _, npcols = cg_grid(n)
    phases = [
        Phase.from_pairs(
            [(me, me ^ (1 << p)) for me in range(n)],
            size=CG_PHASE_MESSAGE,
            name=f"reduce-exchange-{p}",
        )
        for p in range(npcols.bit_length() - 1)
    ]
    phases.append(
        Phase.from_pairs(
            reference_cg_transpose_pairs(n),
            size=CG_PHASE_MESSAGE,
            name="transpose-exchange",
        )
    )
    return Pattern(tuple(phases), name=f"CG.D-{n}", num_ranks=n)


class TestAgainstPerRankReference:
    """The array-built applications equal a per-rank Python construction."""

    @pytest.mark.parametrize("n", POWERS_OF_TWO)
    def test_cg_pattern(self, n):
        assert cg_pattern(n) == reference_cg_pattern(n)

    @pytest.mark.parametrize("n", POWERS_OF_TWO)
    def test_cg_exchanges_keep_their_types(self, n):
        pairs = cg_transpose_exchange(n)
        assert pairs == reference_cg_transpose_pairs(n)
        assert all(type(s) is int and type(d) is int for s, d in pairs)
        for p in range(cg_grid(n)[1].bit_length() - 1):
            perm = cg_reduce_exchange(n, p)
            assert isinstance(perm, Permutation)
            assert perm == Permutation([me ^ (1 << p) for me in range(n)])

    @pytest.mark.parametrize("n", [n for n in POWERS_OF_TWO if n >= 16])
    def test_wrf_pattern(self, n):
        expected = Pattern.single_phase(
            reference_wrf_pairs(n, 16), size=WRF_DEFAULT_MESSAGE, name=f"WRF-{n}", num_ranks=n
        )
        assert wrf_pattern(n) == expected

    @pytest.mark.parametrize(
        "n, row", [(n, row) for n in POWERS_OF_TWO for row in (1, 4, 16) if n > row]
    )
    def test_wrf_exchange(self, n, row):
        pairs = wrf_exchange(n, row)
        assert pairs == reference_wrf_pairs(n, row)
        assert all(type(s) is int and type(d) is int for s, d in pairs)


class TestWRF:
    def test_flow_count(self):
        # every task sends ±16 except the 16 first (+16 only) and 16 last
        pairs = wrf_exchange(256, 16)
        assert len(pairs) == 2 * 256 - 32

    def test_boundary_tasks(self):
        pairs = set(wrf_exchange(256, 16))
        assert (0, 16) in pairs and (0, -16) not in pairs
        assert (255, 239) in pairs and (255, 271) not in pairs
        assert (100, 116) in pairs and (100, 84) in pairs

    def test_symmetric(self):
        assert wrf_pattern(256).is_symmetric()

    def test_single_phase_two_outstanding(self):
        pat = wrf_pattern(256)
        assert len(pat.phases) == 1
        sends = np.bincount(pat.phases[0].src, minlength=256)
        assert sends[16:-16].tolist() == [2] * 224
        assert sends[0] == 1 and sends[255] == 1

    def test_row_must_divide(self):
        with pytest.raises(ValueError):
            wrf_exchange(250, 16)

    def test_all_flows_cross_one_switch_boundary(self):
        """Under sequential mapping on m1=16 switches, every WRF flow goes to
        an adjacent switch (never intra-switch) — the property that makes
        WRF routing-sensitive."""
        for s, d in wrf_exchange(256, 16):
            assert abs(s // 16 - d // 16) == 1


class TestCGGrid:
    def test_128_is_8x16(self):
        assert cg_grid(128) == (8, 16)

    def test_square_grids(self):
        assert cg_grid(64) == (8, 8)
        assert cg_grid(16) == (4, 4)

    def test_two_to_one_grids(self):
        assert cg_grid(32) == (4, 8)
        assert cg_grid(512) == (16, 32)

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            cg_grid(100)


class TestCGReduce:
    def test_partners_are_xor(self):
        p = cg_reduce_exchange(128, 2)
        assert p[0] == 4 and p[5] == 1

    def test_involution(self):
        for phase in range(4):
            assert cg_reduce_exchange(128, phase).is_involution()

    def test_local_to_16_block(self):
        """The paper: four exchanges local to the first-level switch."""
        for phase in range(4):
            for s, d in cg_reduce_exchange(128, phase).pairs():
                assert s // 16 == d // 16

    def test_phase_range(self):
        with pytest.raises(ValueError):
            cg_reduce_exchange(128, 4)


class TestCGTranspose:
    def test_is_pairwise_exchange(self):
        pairs = dict(cg_transpose_exchange(128))
        for s, d in pairs.items():
            assert pairs.get(d) == s  # involution

    def test_is_permutation(self):
        pairs = cg_transpose_exchange(128)
        srcs = [s for s, _ in pairs]
        dsts = [d for _, d in pairs]
        assert len(set(srcs)) == len(srcs)
        assert len(set(dsts)) == len(dsts)

    def test_eq2_digit_degeneracy(self):
        """Paper Eq. (2): within a source switch, the destination digit
        d mod 16 takes exactly two values, congruent to s mod 2."""
        pairs = cg_transpose_exchange(128)
        by_switch: dict[int, set[int]] = {}
        for s, d in pairs:
            by_switch.setdefault(s // 16, set()).add(d % 16)
        for sw, digits in by_switch.items():
            assert len(digits) == 2, (sw, digits)
        for s, d in pairs:
            assert d % 2 == s % 2

    def test_non_local(self):
        """Only the transpose phase leaves the switch — and it always does."""
        for s, d in cg_transpose_exchange(128):
            assert s // 16 != d // 16

    def test_square_grid_transpose(self):
        pairs = dict(cg_transpose_exchange(64))
        # plain transpose on 8x8: rank r*8+c <-> c*8+r
        assert pairs[1] == 8
        assert pairs[10] == 17 if 10 in pairs else True
        assert all(pairs[d] == s for s, d in pairs.items())


class TestCGPattern:
    def test_five_equal_phases(self):
        pat = cg_pattern(128)
        assert len(pat.phases) == 5
        sizes = {size for ph in pat.phases for size in ph.sizes.tolist()}
        assert sizes == {CG_PHASE_MESSAGE}

    def test_paper_750kb(self):
        assert CG_PHASE_MESSAGE == 750_000

    def test_symmetric(self):
        assert cg_pattern(128).is_symmetric()

    def test_rank_count(self):
        assert cg_pattern(128).num_ranks == 128
