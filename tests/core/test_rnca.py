"""Tests for r-NCA-u / r-NCA-d, the paper's proposed family (Sec. VIII)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contention import routes_per_nca
from repro.core import DModK, RNCADown, RNCAUp, SModK
from tests.helpers import xgft_examples


class TestDegenerationToModK:
    """With the plain mod map the family IS S-mod-k / D-mod-k (paper claim)."""

    def test_rnca_u_mod_equals_smodk(self, paper_slimmed_tree):
        rnca = RNCAUp(paper_slimmed_tree, seed=0, map_kind="mod")
        smodk = SModK(paper_slimmed_tree)
        pairs = [(s, d) for s in range(0, 256, 7) for d in range(0, 256, 13) if s != d]
        np.testing.assert_array_equal(
            rnca.build_table(pairs).ports, smodk.build_table(pairs).ports
        )

    def test_rnca_d_mod_equals_dmodk(self, paper_slimmed_tree):
        rnca = RNCADown(paper_slimmed_tree, seed=0, map_kind="mod")
        dmodk = DModK(paper_slimmed_tree)
        pairs = [(s, d) for s in range(0, 256, 7) for d in range(0, 256, 13) if s != d]
        np.testing.assert_array_equal(
            rnca.build_table(pairs).ports, dmodk.build_table(pairs).ports
        )


class TestEndpointConcentration:
    """The family keeps the self-routing concentration property."""

    def test_rnca_u_unique_up_path_per_source(self, paper_full_tree):
        alg = RNCAUp(paper_full_tree, seed=3)
        for s in range(0, 256, 31):
            ports = {
                alg.up_ports(s, d)
                for d in range(256)
                if paper_full_tree.nca_level(s, d) == 2
            }
            assert len(ports) == 1

    def test_rnca_d_unique_down_path_per_destination(self, paper_full_tree):
        alg = RNCADown(paper_full_tree, seed=3)
        for d in range(0, 256, 31):
            ports = {
                alg.up_ports(s, d)
                for s in range(256)
                if paper_full_tree.nca_level(s, d) == 2
            }
            assert len(ports) == 1

    def test_mirror_symmetry(self, paper_full_tree):
        """r-NCA-u(s,d) consults s exactly as r-NCA-d(s,d) consults d."""
        up = RNCAUp(paper_full_tree, seed=5)
        down = RNCADown(paper_full_tree, seed=5)
        rng = np.random.default_rng(0)
        for _ in range(50):
            s, d = (int(x) for x in rng.integers(0, 256, 2))
            assert up.up_ports(s, d) == down.up_ports(d, s)


class TestBalanceOverRoots:
    def test_balanced_on_slimmed_tree(self, paper_slimmed_tree):
        """All-pairs route counts per root stay near 61440/10 (Fig. 4(b))."""
        alg = RNCAUp(paper_slimmed_tree, seed=7)
        table = alg.all_pairs_table()
        top = table.nca_level == 2
        counts = np.bincount(table.nca_nodes()[top], minlength=10)
        # mod-k puts 7680 on roots 0..5 and 3840 on 6..9; balanced-random
        # must stay well inside that spread around the mean 6144.
        assert counts.min() > 4600
        assert counts.max() < 7680

    def test_different_seeds_differ(self, paper_full_tree):
        a = RNCAUp(paper_full_tree, seed=1)
        b = RNCAUp(paper_full_tree, seed=2)
        pairs = [(s, (s + 16) % 256) for s in range(128)]
        assert (a.build_table(pairs).ports != b.build_table(pairs).ports).any()


class TestRelabelMapAblation:
    """Only the per-subtree balanced scramble breaks the mod-k pathology.

    The plain ``mod`` map is D-mod-k; one ``global-random`` scramble per
    level keeps CG's two destination digits per switch two digits, so
    the two-uplink funnel of Eq. (2) survives it.
    """

    MAP_KINDS = ("balanced-random", "mod", "global-random")

    def test_cg_slowdown_by_map_kind(self):
        from repro.experiments import SweepSpec, run_sweep

        spec = SweepSpec(
            topologies=("XGFT(2;16,16;1,16)",),
            patterns=("cg-128",),
            algorithms=tuple(f"r-nca-d(map_kind={kind})" for kind in self.MAP_KINDS),
            seeds=5,
            metrics=("slowdown",),
        )
        samples: dict[str, list[float]] = {}
        for record in run_sweep(spec).runs:
            kind = record["algorithm"].split("map_kind=")[1].rstrip(")")
            samples.setdefault(kind, []).append(record["metrics"]["slowdown"])
        medians = {kind: float(np.median(v)) for kind, v in samples.items()}
        assert medians["mod"] == pytest.approx(2.2, rel=0.01)
        assert medians["balanced-random"] < medians["mod"]
        assert medians["global-random"] == pytest.approx(medians["mod"], rel=0.01)

    def test_census_spread_by_map_kind(self, paper_slimmed_tree):
        """On the slimmed tree only the balanced map narrows the
        Fig. 4(b) 7680/3840 census; the mod map keeps it."""
        spreads = {}
        for kind in ("balanced-random", "mod"):
            table = RNCADown(paper_slimmed_tree, seed=1, map_kind=kind).all_pairs_table()
            spreads[kind] = int(np.ptp(routes_per_nca(table)))
        assert spreads["mod"] == 3840
        assert spreads["balanced-random"] < 3840


class TestValidity:
    @given(topo=xgft_examples(), seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_property_routes_valid(self, topo, seed):
        n = topo.num_leaves
        pairs = [(s, (s * 5 + 1) % n) for s in range(min(n, 40))]
        for cls in (RNCAUp, RNCADown):
            cls(topo, seed=seed).build_table(pairs).validate()

    def test_scalar_matches_vectorized(self, slimmed_deep_tree):
        alg = RNCADown(slimmed_deep_tree, seed=9)
        pairs = [(s, d) for s in range(0, 64, 5) for d in range(0, 64, 9) if s != d]
        table = alg.build_table(pairs)
        for f, (s, d) in enumerate(pairs):
            assert table.route(f).up_ports == alg.up_ports(s, d)
