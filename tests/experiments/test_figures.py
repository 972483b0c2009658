"""Integration tests: the figure experiments reproduce the paper's shapes.

These are the repository's acceptance tests — each asserts the
qualitative claim the corresponding paper figure makes.  The full-size
Fig. 2/5 grid is the benchmark's ``paper-grid`` workload, whose
committed values ``test_paper_grid.py`` checks for the same claims;
here we use reduced parameter sets to keep the suite fast while still
covering every experiment code path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Scenario
from repro.contention import pattern_contention_level
from repro.core import DModK, SModK
from repro.experiments import (
    BoxStats,
    SweepSpec,
    application_pattern,
    equivalence,
    fig2,
    fig3,
    fig4,
    fig5,
    format_equivalence,
    format_fig3,
    format_fig4,
    format_sweep,
    format_table1,
    run_sweep,
    table1,
)
from repro.patterns import cg_pattern, uniform_random_pairs
from repro.topology import XGFT, slimmed_two_level


def _median(v):
    return v.median if isinstance(v, BoxStats) else v


class TestApplicationPatterns:
    def test_names(self):
        assert application_pattern("wrf").num_ranks == 256
        assert application_pattern("CG").num_ranks == 128
        with pytest.raises(ValueError):
            application_pattern("linpack")

    def test_paper_spellings_reach_the_figure_grid(self):
        """Regression: the Scenario-driven _sweep must keep accepting the
        paper's 'cg.d' spellings, not just registry pattern specs."""
        from repro.experiments import fig2

        sweep = fig2("cg.d", w2_values=(16,), seeds=1)
        assert sweep.application == "cg.d"
        assert sweep.series_by_name("d-mod-k").values[16] >= 1.0


class TestFig2Shapes:
    @pytest.fixture(scope="class")
    def wrf_sweep(self):
        return fig2("wrf", w2_values=(16, 8, 4, 1), seeds=3)

    @pytest.fixture(scope="class")
    def cg_sweep(self):
        return fig2("cg", w2_values=(16, 8, 4, 1), seeds=3)

    def test_wrf_modk_beats_random(self, wrf_sweep):
        """Fig. 2(a): Random is worse than S/D-mod-k for WRF everywhere."""
        for w2 in wrf_sweep.w2_values[:-1]:  # at w2=1 all routes coincide
            rnd = _median(wrf_sweep.series_by_name("random").values[w2])
            smk = _median(wrf_sweep.series_by_name("s-mod-k").values[w2])
            assert rnd > smk

    def test_wrf_modk_matches_colored(self, wrf_sweep):
        """Fig. 2(a): S/D-mod-k achieve pattern-aware performance on WRF."""
        for w2 in wrf_sweep.w2_values:
            smk = _median(wrf_sweep.series_by_name("s-mod-k").values[w2])
            col = _median(wrf_sweep.series_by_name("colored").values[w2])
            assert smk == pytest.approx(col, rel=0.05)

    def test_wrf_full_tree_no_slowdown(self, wrf_sweep):
        assert _median(
            wrf_sweep.series_by_name("s-mod-k").values[16]
        ) == pytest.approx(1.0, rel=1e-6)

    def test_wrf_single_root_slowdown(self, wrf_sweep):
        """At w2=1 the tree degenerates: slowdown ~16 (paper: ~15)."""
        assert _median(
            wrf_sweep.series_by_name("s-mod-k").values[1]
        ) == pytest.approx(16.0, rel=1e-6)

    def test_cg_random_beats_modk(self, cg_sweep):
        """Fig. 2(b): Random improves over S/D-mod-k for most w2."""
        wins = 0
        for w2 in cg_sweep.w2_values[:-1]:
            rnd = _median(cg_sweep.series_by_name("random").values[w2])
            dmk = _median(cg_sweep.series_by_name("d-mod-k").values[w2])
            wins += rnd < dmk
        assert wins >= 2

    def test_cg_modk_pathological_plateau(self, cg_sweep):
        """S/D-mod-k stay flat (pathology-bound) while the tree slims."""
        v16 = _median(cg_sweep.series_by_name("d-mod-k").values[16])
        v4 = _median(cg_sweep.series_by_name("d-mod-k").values[4])
        assert v16 == pytest.approx(v4, rel=1e-6)
        assert v16 > 2.0

    def test_cg_colored_near_ideal_on_full_tree(self, cg_sweep):
        assert _median(
            cg_sweep.series_by_name("colored").values[16]
        ) == pytest.approx(1.0, rel=1e-6)

    def test_smodk_equals_dmodk_on_symmetric_patterns(self, wrf_sweep, cg_sweep):
        """Sec. VII: both applications are symmetric, so the two schemes
        perform identically."""
        for sweep in (wrf_sweep, cg_sweep):
            for w2 in sweep.w2_values:
                assert _median(
                    sweep.series_by_name("s-mod-k").values[w2]
                ) == pytest.approx(
                    _median(sweep.series_by_name("d-mod-k").values[w2]), rel=1e-9
                )

    def test_format_sweep_renders(self, wrf_sweep):
        text = format_sweep(wrf_sweep)
        assert "s-mod-k" in text and "16" in text


class TestFig5Shapes:
    @pytest.fixture(scope="class")
    def cg_sweep(self):
        return fig5("cg", w2_values=(16, 8, 1), seeds=6)

    def test_rnca_avoids_cg_pathology(self, cg_sweep):
        """Fig. 5(b): r-NCA-u/-d beat the mod-k schemes on CG."""
        for w2 in (16, 8):
            dmk = _median(cg_sweep.series_by_name("d-mod-k").values[w2])
            for name in ("r-nca-u", "r-nca-d"):
                assert cg_sweep.series_by_name(name).values[w2].median < dmk

    def test_rnca_statistically_better_than_random(self, cg_sweep):
        """Fig. 5: the proposal beats static Random (medians)."""
        for w2 in (16, 8):
            rnd = cg_sweep.series_by_name("random").values[w2].median
            for name in ("r-nca-u", "r-nca-d"):
                assert cg_sweep.series_by_name(name).values[w2].median <= rnd

    def test_gap_to_colored_remains(self, cg_sweep):
        """Paper: 'there is a gap to reach the performance of a
        pattern-aware algorithm such as Colored'."""
        col = _median(cg_sweep.series_by_name("colored").values[16])
        best = min(
            cg_sweep.series_by_name(n).values[16].median
            for n in ("r-nca-u", "r-nca-d")
        )
        assert best > col


class TestFig3:
    def test_structure(self):
        result = fig3()
        assert len(result.phase_names) == 5
        assert result.phase_locality[:4] == (1.0, 1.0, 1.0, 1.0)
        assert result.phase_locality[4] == 0.0
        assert set(result.phase_sizes) == {750_000}
        # the connectivity matrix is symmetric (Sec. VII observation)
        assert (result.connectivity == result.connectivity.T).all()

    def test_eq2_two_uplinks(self):
        result = fig3()
        assert set(result.dmodk_uplinks_per_switch) == {2}

    def test_contention_gap(self):
        result = fig3()
        assert result.dmodk_contention == 7
        assert result.colored_contention == 1

    def test_eq2_transpose_slowdown(self):
        """Eq. (2): under D-mod-k the isolated transpose phase funnels 8
        flows per uplink and runs 7x the crossbar time (7, not 8: one of
        the eight is switch-local), while Colored routes it
        contention-free."""
        spec = SweepSpec(
            topologies=("XGFT(2;16,16;1,16)",),
            patterns=("cg-transpose-128",),
            algorithms=("d-mod-k", "colored"),
            metrics=("slowdown", "max_network_contention"),
        )
        by_alg = {r["algorithm"]: r["metrics"] for r in run_sweep(spec).runs}
        assert by_alg["d-mod-k"]["slowdown"] == pytest.approx(7.0, rel=1e-6)
        assert by_alg["d-mod-k"]["max_network_contention"] >= 7
        assert by_alg["colored"]["slowdown"] == pytest.approx(1.0, rel=1e-6)
        assert by_alg["colored"]["max_network_contention"] == 1

    def test_render(self):
        assert "transpose" in format_fig3(fig3())


class TestFig4:
    @pytest.fixture(scope="class")
    def panel_b(self):
        return fig4(10, seeds=5)

    def test_modk_bimodal(self, panel_b):
        """The modulo imbalance: six roots take double load."""
        for name in ("s-mod-k", "d-mod-k"):
            assert panel_b.exact[name] == (7680,) * 6 + (3840,) * 4

    def test_rnca_tight_around_mean(self, panel_b):
        """Strictly inside the mod-k extremes, centred on the mean."""
        mean = 61440 / 10
        for name in ("random", "r-nca-u", "r-nca-d"):
            medians = [b.median for b in panel_b.boxed[name]]
            assert max(medians) < 7680
            assert min(medians) > 3840
            assert abs(np.mean(medians) - mean) < 0.05 * mean

    def test_full_tree_flat(self):
        panel_a = fig4(16, seeds=5)
        assert panel_a.exact["s-mod-k"] == (3840,) * 16
        assert panel_a.exact["d-mod-k"] == (3840,) * 16
        # the r-NCA relabeling is a per-subtree permutation here (m == w)
        for name in ("r-nca-u", "r-nca-d"):
            assert [b.median for b in panel_a.boxed[name]] == [3840.0] * 16
        # random stays near the mean
        medians = [b.median for b in panel_a.boxed["random"]]
        assert 3840 * 0.94 < min(medians) <= max(medians) < 3840 * 1.06

    def test_render(self, panel_b):
        text = format_fig4(panel_b)
        assert "XGFT(2;16,16;1,10)" in text


class TestTable1:
    def test_rows(self):
        topo = slimmed_two_level(16, 16, 10)
        rows = table1(topo)
        assert [r["num_nodes"] for r in rows] == [256, 16, 10]
        assert rows[0]["links_up"] == 256
        # Table-I invariant: links up from level i == links down from i+1
        for lower, upper in zip(rows, rows[1:]):
            assert lower["links_up"] == upper["links_down"]
        text = format_table1(rows, topo.spec())
        assert "256" in text


class TestEquivalence:
    def test_exact_bijection(self):
        result = equivalence(num_permutations=40, seed=1)
        assert result.spectra_match
        assert sum(result.smodk_spectrum.values()) == 40
        assert "PASS" in format_equivalence(result)

    def test_marginal_spectra_similar(self):
        """The *marginal* spectra over the same random set are close (they
        are equal in distribution, not per-sample)."""
        result = equivalence(num_permutations=60, seed=2)
        all_levels = set(result.smodk_spectrum) | set(result.dmodk_spectrum)
        l1 = sum(
            abs(result.smodk_spectrum.get(c, 0) - result.dmodk_spectrum.get(c, 0))
            for c in all_levels
        )
        assert l1 <= 30  # loose: equality holds in distribution

    def test_general_patterns_on_paper_tree(self):
        """Sec. VII-C: C(S-mod-k, G) == C(D-mod-k, G^-1) for general
        (non-permutation) patterns on the paper's slimmed tree."""
        topo = slimmed_two_level(16, 16, 8)
        smodk, dmodk = SModK(topo), DModK(topo)
        for seed in range(100):
            pairs = uniform_random_pairs(256, 300, rng=seed)
            inverse = [(d, s) for s, d in pairs]
            c_s = pattern_contention_level(smodk, pairs)
            assert c_s == pattern_contention_level(dmodk, inverse), seed


class TestSlowdownMetric:
    def test_replay_engine_agrees_with_fluid(self):
        """The two execution modes agree on the paper's workloads."""
        scenario = Scenario(XGFT((16, 16), (1, 16)), cg_pattern(32), "d-mod-k")
        f = scenario.evaluate(metrics=("slowdown",), engine="fluid")["slowdown"]
        r = scenario.evaluate(metrics=("slowdown",), engine="replay")["slowdown"]
        assert f == pytest.approx(r, rel=1e-9)

    def test_replay_engine_returns_floats(self):
        """Replay's times are plain floats, like the fluid path's, not
        ``np.float64``."""
        scenario = Scenario(XGFT((8, 8), (1, 4)), cg_pattern(16), "random")
        metric = scenario.evaluate(metrics=("sim_time", "slowdown"), engine="replay")
        assert type(metric["sim_time"]) is float
        assert type(metric["slowdown"]) is float

    def test_unknown_engine(self):
        scenario = Scenario(slimmed_two_level(), cg_pattern(32), "d-mod-k")
        with pytest.raises(ValueError):
            scenario.evaluate(metrics=("slowdown",), engine="bogus")  # repro: noqa[REP010] deliberately unknown: error-path test

    def test_degenerate_pattern_slowdown_is_one(self):
        """Regression: a pattern whose every flow is a self-pair moves
        no network bytes, so t_net == t_ref == 0 — slowdown is 1.0 by
        convention, not a ZeroDivisionError/ValueError."""
        from repro.patterns.base import Pattern, Phase

        topo = slimmed_two_level(4, 4, 2)
        degenerate = Pattern((Phase(range(4), range(4), [100] * 4),), name="self-only")
        assert Scenario(topo, degenerate, "d-mod-k").evaluate(("slowdown",))["slowdown"] == 1.0
        # a pattern with no flows at all stays an error (caller bug)
        empty = Scenario(topo, Pattern((Phase([], [], []),), name="empty"), "d-mod-k")
        with pytest.raises(ValueError, match="reference time"):
            empty.evaluate(metrics=("slowdown",))

    def test_replay_engine_prepares_pattern_aware_schemes(self):
        """Regression: the replay path must hand the pattern to Colored
        before routing (otherwise it silently falls back to d-mod-k and
        reports the pathological 2.2 instead of ~1.0)."""
        scenario = Scenario(slimmed_two_level(16, 16, 16), cg_pattern(128), "colored")
        via_replay = scenario.evaluate(metrics=("slowdown",), engine="replay")["slowdown"]
        assert via_replay == pytest.approx(1.0, rel=0.05)
