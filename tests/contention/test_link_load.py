"""Regression tests for the raw per-link flow census."""

from __future__ import annotations

import numpy as np
import pytest

from repro.contention.link_load import busiest_links, link_flow_counts, load_histogram
from repro.core import make_algorithm
from repro.topology import XGFT


@pytest.fixture
def topo():
    return XGFT((4, 4), (1, 4))


def empty_table(topo):
    return make_algorithm("d-mod-k", topo).build_table([])


class TestWeightedCensus:
    def test_weighted_matches_manual_sum(self, topo):
        alg = make_algorithm("d-mod-k", topo)
        table = alg.build_table([(0, 5), (1, 5), (0, 9)])
        weights = np.array([1.0, 2.5, 4.0])
        counts = link_flow_counts(table, weights=weights)
        assert counts.dtype == np.float64
        flows, links = table.flow_links()
        expected = np.zeros(topo.num_directed_links)
        for f, l in zip(flows, links):
            expected[l] += weights[f]
        assert np.allclose(counts, expected)

    def test_empty_table_stays_float(self, topo):
        """Regression: np.bincount on empty input ignores the weights
        dtype and returned int zeros, flipping the weighted census from
        float64 to int64 for zero-flow tables."""
        counts = link_flow_counts(empty_table(topo), weights=np.empty(0))
        assert counts.shape == (topo.num_directed_links,)
        assert counts.dtype == np.float64
        assert not counts.any()

    def test_self_pairs_only_stays_float(self, topo):
        """Self-pairs traverse no links: same empty-expansion edge case."""
        table = make_algorithm("d-mod-k", topo).build_table([(3, 3), (7, 7)])
        counts = link_flow_counts(table, weights=np.array([5.0, 6.0]))
        assert counts.dtype == np.float64
        assert not counts.any()

    def test_list_weights_accepted(self, topo):
        table = make_algorithm("d-mod-k", topo).build_table([(0, 5)])
        counts = link_flow_counts(table, weights=[2.0])
        assert counts.sum() == pytest.approx(2.0 * 2 * table.topo.nca_level(0, 5))

    def test_wrong_shape_rejected(self, topo):
        table = make_algorithm("d-mod-k", topo).build_table([(0, 5), (1, 6)])
        with pytest.raises(ValueError, match="shape"):
            link_flow_counts(table, weights=np.ones(3))
        with pytest.raises(ValueError, match="shape"):
            link_flow_counts(table, weights=np.ones((2, 1)))


class TestUnweightedEdgeCases:
    def test_empty_table(self, topo):
        counts = link_flow_counts(empty_table(topo))
        assert counts.shape == (topo.num_directed_links,)
        assert not counts.any()

    def test_histogram_and_busiest_on_empty(self, topo):
        assert load_histogram(empty_table(topo)) == {0: topo.num_directed_links}
        assert busiest_links(empty_table(topo)) == []


class TestBusiestLinksOrdering:
    def test_ties_break_by_ascending_link_index(self, topo):
        """Regression: np.argsort(counts)[::-1] ordered tied counts by
        *reversed* memory position, so equally loaded links came out in
        descending index order and the cut-off at ``top`` picked an
        arbitrary subset of a tie class.  The census of any permutation
        is all-ties (every used link carries exactly one flow)."""
        alg = make_algorithm("d-mod-k", topo)
        table = alg.build_table([(i, (i + 4) % 16) for i in range(16)])
        counts = link_flow_counts(table)
        used = np.nonzero(counts)[0]
        assert len(set(counts[used])) == 1  # all-ties census
        top = busiest_links(table, top=len(used))
        assert [idx for _, idx, _ in top] == sorted(int(i) for i in used)

    def test_mixed_loads_sort_by_count_then_index(self, topo):
        alg = make_algorithm("d-mod-k", topo)
        # two cross-switch flows share dst 8's down-path; one is alone
        table = alg.build_table([(0, 8), (1, 8), (2, 12)])
        counts = link_flow_counts(table)
        expected = sorted(
            (int(i) for i in np.nonzero(counts)[0]),
            key=lambda i: (-counts[i], i),
        )
        got = busiest_links(table, top=len(expected))
        assert [idx for _, idx, _ in got] == expected
        # counts are non-increasing and each entry is consistent
        loads = [c for c, _, _ in got]
        assert loads == sorted(loads, reverse=True)

    def test_top_truncates_after_deterministic_sort(self, topo):
        alg = make_algorithm("d-mod-k", topo)
        table = alg.build_table([(i, (i + 4) % 16) for i in range(16)])
        counts = link_flow_counts(table)
        used = sorted(int(i) for i in np.nonzero(counts)[0])
        assert [idx for _, idx, _ in busiest_links(table, top=3)] == used[:3]


class TestPaperTreeExpansion:
    """Sizes of the census hot path on the paper's slimmed tree."""

    @pytest.fixture(scope="class")
    def slim(self):
        return XGFT((16, 16), (1, 10))

    def test_flow_links_expansion(self, slim):
        """Every top-level pair crosses 4 links, every level-1 pair 2."""
        pairs = [(s, d) for s in range(256) for d in range(256) if s != d]
        flows, links = make_algorithm("d-mod-k", slim).build_table(pairs).flow_links()
        assert len(flows) == len(links) == 4 * 61440 + 2 * 3840
