"""Tests for S-mod-k and D-mod-k (paper Sec. V and VII)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DModK, SModK
from repro.topology import XGFT, kary_ntree
from tests.helpers import xgft_examples


class TestKaryFormula:
    """On k-ary n-trees the schemes reduce to floor(x / k^(l-1)) mod k."""

    def test_smodk_matches_paper_formula(self):
        topo = kary_ntree(4, 3)
        alg = SModK(topo)
        for s in range(0, 64, 5):
            for d in range(0, 64, 7):
                lvl = topo.nca_level(s, d)
                ports = alg.up_ports(s, d)
                assert len(ports) == lvl
                # hop at level l >= 1 chooses floor(s / k^(l-1)) mod k
                for level in range(1, lvl):
                    assert ports[level] == (s // 4 ** (level - 1)) % 4
                if lvl > 0:
                    assert ports[0] == 0  # w1 == 1

    def test_dmodk_matches_paper_formula(self):
        topo = kary_ntree(4, 3)
        alg = DModK(topo)
        for s in range(0, 64, 5):
            for d in range(0, 64, 7):
                ports = alg.up_ports(s, d)
                for level in range(1, len(ports)):
                    assert ports[level] == (d // 4 ** (level - 1)) % 4

    def test_dmodk_cg_example(self):
        """Paper Sec. VII-A: r1 = d mod 16 on XGFT(2;16,16;1,16)."""
        topo = XGFT((16, 16), (1, 16))
        alg = DModK(topo)
        for s in range(16):
            d = (s // 2) * 16 + (s % 2)
            if topo.nca_level(s, d) == 2:
                assert alg.up_ports(s, d)[1] == d % 16
                assert alg.up_ports(s, d)[1] in (0, 1)


class TestEndpointConcentration:
    def test_smodk_unique_up_path_per_source(self, paper_full_tree):
        """Every source is assigned a unique path up, regardless of destination."""
        alg = SModK(paper_full_tree)
        for s in range(0, 256, 17):
            ports = {alg.up_ports(s, d) for d in range(256) if paper_full_tree.nca_level(s, d) == 2}
            assert len(ports) == 1

    def test_dmodk_unique_down_path_per_destination(self, paper_full_tree):
        alg = DModK(paper_full_tree)
        for d in range(0, 256, 17):
            ports = {alg.up_ports(s, d) for s in range(256) if paper_full_tree.nca_level(s, d) == 2}
            assert len(ports) == 1

    def test_symmetry_smodk_dmodk(self, paper_full_tree):
        """S-mod-k(s,d) uses s exactly as D-mod-k(s,d) uses d (Sec. VII-B)."""
        s_alg = SModK(paper_full_tree)
        d_alg = DModK(paper_full_tree)
        rng = np.random.default_rng(1)
        for _ in range(100):
            s, d = rng.integers(0, 256, 2)
            assert s_alg.up_ports(int(s), int(d)) == d_alg.up_ports(int(d), int(s))


class TestSlimmedAdaptation:
    """On slimmed trees the modulo switches to w_{l+1} (paper Sec. V)."""

    def test_ports_in_range(self, paper_slimmed_tree):
        alg = SModK(paper_slimmed_tree)
        for s in range(0, 256, 13):
            for d in range(0, 256, 11):
                ports = alg.up_ports(s, d)
                for level, p in enumerate(ports):
                    assert 0 <= p < paper_slimmed_tree.w[level]

    def test_mod_imbalance(self, paper_slimmed_tree):
        """Sec. VII-D: digits 10-15 wrap onto roots 0-5 under mod 10."""
        alg = SModK(paper_slimmed_tree)
        # sources with M1 = 12 route to root 2, same as M1 = 2
        assert alg.up_ports(12, 200)[1] == 2
        assert alg.up_ports(2, 200)[1] == 2


class TestVectorizedConsistency:
    @given(topo=xgft_examples(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_property_table_matches_scalar(self, topo, data):
        n = topo.num_leaves
        pairs = [
            (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)))
            for _ in range(10)
        ]
        for cls in (SModK, DModK):
            alg = cls(topo)
            table = alg.build_table(pairs)
            for f, (s, d) in enumerate(pairs):
                assert table.route(f).up_ports == alg.up_ports(s, d)

    def test_routes_valid(self, slimmed_deep_tree):
        for cls in (SModK, DModK):
            alg = cls(slimmed_deep_tree)
            pairs = [(s, d) for s in range(0, 64, 7) for d in range(0, 64, 5)]
            alg.build_table(pairs).validate()
