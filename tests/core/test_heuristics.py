"""Tests for the paper-proposed extensions (Sec. VII-C heuristic and the
future-work seed selection)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.contention import max_network_contention, pattern_contention_level
from repro.core import AutoModK, BestOfKRNCA, DModK, RNCADown, SModK, make_algorithm
from repro.patterns import cg_pattern, hotspot
from repro.topology import XGFT


@pytest.fixture
def topo():
    return XGFT((8, 8), (1, 4))


class TestAutoModK:
    def test_many_destinations_chooses_smodk(self, topo):
        """One source fanning out: many-destinations dominated -> S-mod-k."""
        alg = AutoModK(topo)
        pairs = [(0, d) for d in range(8, 14)]
        table = alg.build_table(pairs)
        assert alg.chosen == "s-mod-k"
        np.testing.assert_array_equal(table.ports, SModK(topo).build_table(pairs).ports)

    def test_many_sources_chooses_dmodk(self, topo):
        alg = AutoModK(topo)
        pairs = hotspot(32, 0)
        alg.build_table(pairs)
        assert alg.chosen == "d-mod-k"

    def test_symmetric_tie_prefers_dmodk(self, topo):
        """Symmetric patterns tie; D-mod-k wins (LFT-deployable)."""
        alg = AutoModK(topo)
        alg.build_table([(0, 8), (8, 0)])
        assert alg.chosen == "d-mod-k"

    def test_self_flows_ignored_in_histogram(self, topo):
        alg = AutoModK(topo)
        alg.build_table([(0, 0), (0, 8), (0, 16)])
        assert alg.chosen == "s-mod-k"

    def test_never_worse_than_the_wrong_choice(self, topo):
        """On a fan-out-heavy pattern the heuristic's pick concentrates
        contention at least as well as the opposite digit rule."""
        rng = np.random.default_rng(3)
        for _trial in range(5):
            sources = rng.choice(64, size=4, replace=False)
            pairs = [
                (int(s), int(d))
                for s in sources
                for d in rng.choice(64, size=8, replace=False)
                if s != d
            ]
            alg = AutoModK(topo)
            chosen_c = pattern_contention_level(alg, pairs)
            other = DModK(topo) if alg.chosen == "s-mod-k" else SModK(topo)
            other_c = pattern_contention_level(other, pairs)
            assert chosen_c <= other_c

    def test_factory(self, topo):
        assert make_algorithm("auto-mod-k", topo).name == "auto-mod-k"

    def test_asymmetric_random_patterns(self):
        """Fan-out and fan-in random patterns on the paper's slimmed tree:
        on average the heuristic never takes the worse digit rule and
        stays near a coin flip between the two.  The stronger claim
        (beating the coin flip) does not hold on these instances and is
        deliberately not asserted."""
        topo = XGFT((16, 16), (1, 8))
        rng = np.random.default_rng(0)
        auto_c, worse_c, coin_c = [], [], []
        for trial in range(50):
            hubs = rng.choice(256, size=6, replace=False)
            peers = rng.choice(256, size=10, replace=False)
            pairs = [(int(h), int(p)) for h in hubs for p in peers if h != p]
            if trial % 2:  # fan-in
                pairs = [(d, s) for s, d in pairs]
            c_s = pattern_contention_level(SModK(topo), pairs)
            c_d = pattern_contention_level(DModK(topo), pairs)
            auto_c.append(pattern_contention_level(AutoModK(topo), pairs))
            worse_c.append(max(c_s, c_d))
            coin_c.append((c_s + c_d) / 2)
        assert np.mean(auto_c) <= np.mean(worse_c) + 1e-9
        assert np.mean(auto_c) <= np.mean(coin_c) + 0.25


class TestBestOfKRNCA:
    def test_validation(self, topo):
        with pytest.raises(ValueError):
            BestOfKRNCA(topo, k=0)
        with pytest.raises(ValueError):
            BestOfKRNCA(topo, probes=0)
        with pytest.raises(ValueError):
            BestOfKRNCA(topo, direction="sideways")

    def test_is_an_rnca_instance(self, topo):
        """The installed scheme is one of the k candidate relabelings."""
        best = BestOfKRNCA(topo, seed=2, k=4, probes=4)
        candidates = [RNCADown(topo, seed=2 * 4 + i) for i in range(4)]
        pairs = [(s, (s + 8) % 64) for s in range(64)]
        best_ports = best.build_table(pairs).ports
        assert any(
            np.array_equal(best_ports, c.build_table(pairs).ports)
            for c in candidates
        )

    def test_deterministic(self, topo):
        a = BestOfKRNCA(topo, seed=5, k=3, probes=3)
        b = BestOfKRNCA(topo, seed=5, k=3, probes=3)
        pairs = [(s, (s * 3 + 1) % 64) for s in range(64)]
        np.testing.assert_array_equal(
            a.build_table(pairs).ports, b.build_table(pairs).ports
        )

    def test_selection_improves_probe_worst_case(self, topo):
        """The selected candidate's probe score is the minimum over k —
        never worse than candidate 0's."""
        seed, k, probes = 1, 6, 8
        best = BestOfKRNCA(topo, seed=seed, k=k, probes=probes)
        # recompute candidate 0's score on the same probes
        rng = np.random.default_rng(np.random.SeedSequence([0xBE5707, seed]))
        probe_sets = [
            [(int(s), int(d)) for s, d in enumerate(rng.permutation(64)) if s != d]
            for _ in range(probes)
        ]
        cand0 = RNCADown(topo, seed=seed * k)
        worst0 = max(
            max_network_contention(cand0.build_table(p)) for p in probe_sets
        )
        assert best.selected_score[0] <= worst0

    def test_up_direction(self, topo):
        best = BestOfKRNCA(topo, seed=0, k=2, probes=2, direction="up")
        # r-NCA-u concentrates per source: one ascending path per source
        ports = {best.up_ports(5, d) for d in range(8, 64)}
        assert len(ports) == 1

    def test_still_avoids_cg_pathology(self):
        """The selected scheme keeps the r-NCA benefit on CG."""
        from repro.api import Scenario, compare

        base = Scenario(XGFT((16, 16), (1, 16)), cg_pattern(128), "r-nca-best(k=4,probes=4)")
        best, dmodk = compare([base, base.with_(algorithm="d-mod-k")], ("slowdown",)).results
        assert best["slowdown"] < dmodk["slowdown"]

    def test_selection_trims_the_cg_worst_case(self):
        """Over ten seeds on CG.D the selected scheme's worst case is no
        worse than plain r-NCA-d's, and its median keeps the benefit
        over D-mod-k's 2.2 pathology."""
        from repro.api import Scenario, compare
        from repro.experiments import box_stats

        topo16 = XGFT((16, 16), (1, 16))
        pattern = cg_pattern(128)

        def slowdowns(spec):
            scenarios = [Scenario(topo16, pattern, spec, seed=s) for s in range(10)]
            return [r["slowdown"] for r in compare(scenarios, ("slowdown",)).results]

        plain = box_stats(slowdowns("r-nca-d"))
        selected = box_stats(slowdowns("r-nca-best(k=6,probes=8)"))
        assert selected.maximum <= plain.maximum + 1e-9
        assert selected.median < 2.2

    def test_factory_kwargs(self, topo):
        alg = make_algorithm("r-nca-best", topo, seed=3, k=2, probes=2)
        assert alg.k == 2
