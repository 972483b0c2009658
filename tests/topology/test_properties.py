"""Tests for structural properties: Eq. (1), Table-I link counts, bisection."""

from __future__ import annotations

from hypothesis import given, settings

from repro.topology import (
    bisection_links,
    cost_summary,
    eq1_switch_count,
    full_bisection_ratio,
    is_full_bisection,
    kary_ntree,
    level_summary,
    slimmed_two_level,
    total_ports,
)
from tests.helpers import xgft_examples


class TestEq1:
    def test_paper_values(self):
        assert eq1_switch_count(slimmed_two_level(16, 16, 16)) == 32
        assert eq1_switch_count(slimmed_two_level(16, 16, 10)) == 26
        assert eq1_switch_count(slimmed_two_level(16, 16, 1)) == 17

    def test_kary_ntrees(self):
        for k, n in [(2, 3), (4, 2), (4, 3), (3, 4)]:
            assert eq1_switch_count(kary_ntree(k, n)) == n * k ** (n - 1)

    @given(topo=xgft_examples())
    @settings(max_examples=40, deadline=None)
    def test_property_matches_level_populations(self, topo):
        """Eq. (1) agrees with summing Table-I level populations."""
        assert eq1_switch_count(topo) == topo.num_switches


class TestLevelSummary:
    def test_paper_topology(self, paper_full_tree):
        rows = level_summary(paper_full_tree)
        assert [r.num_nodes for r in rows] == [256, 16, 16]
        # Table I: links up from level i == links down from level i+1
        for lower, upper in zip(rows, rows[1:]):
            assert lower.links_up == upper.links_down

    @given(topo=xgft_examples())
    @settings(max_examples=40, deadline=None)
    def test_property_up_equals_down(self, topo):
        rows = level_summary(topo)
        for lower, upper in zip(rows, rows[1:]):
            assert lower.links_up == upper.links_down
        assert rows[0].links_down == 0
        assert rows[-1].links_up == 0

    @given(topo=xgft_examples())
    @settings(max_examples=40, deadline=None)
    def test_property_total_links(self, topo):
        rows = level_summary(topo)
        assert sum(r.links_up for r in rows) == topo.num_links_per_direction


class TestBisection:
    def test_full_tree_is_full_bisection(self):
        assert is_full_bisection(slimmed_two_level(16, 16, 16))
        assert full_bisection_ratio(slimmed_two_level(16, 16, 16)) == 1.0

    def test_slimmed_tree_is_blocking(self):
        topo = slimmed_two_level(16, 16, 8)
        assert not is_full_bisection(topo)
        assert full_bisection_ratio(topo) == 0.5

    def test_bisection_links(self):
        assert bisection_links(slimmed_two_level(16, 16, 16)) == 256
        assert bisection_links(slimmed_two_level(16, 16, 4)) == 64

    def test_kary_ntrees_full_bisection(self):
        for k, n in [(2, 3), (4, 2), (4, 3)]:
            assert is_full_bisection(kary_ntree(k, n))


class TestCost:
    def test_total_ports_full_tree(self, paper_full_tree):
        # 16 edge switches with 16+16 ports, 16 roots with 16 down-ports
        assert total_ports(paper_full_tree) == 16 * 32 + 16 * 16

    def test_cost_summary_keys(self, paper_slimmed_tree):
        summary = cost_summary(paper_slimmed_tree)
        assert summary["switches"] == 26
        assert summary["is_slimmed"] is True
        assert summary["is_full_bisection"] is False
        assert 0 < summary["full_bisection_ratio"] < 1

    def test_slimming_monotonically_cuts_cost(self):
        costs = [
            cost_summary(slimmed_two_level(16, 16, w2))["total_ports"]
            for w2 in range(16, 0, -1)
        ]
        assert all(a > b for a, b in zip(costs, costs[1:]))
