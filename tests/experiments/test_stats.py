"""Tests for the boxplot statistics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import box_stats


class TestBoxStats:
    def test_known_values(self):
        stats = box_stats([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.median == 3.0
        assert stats.minimum == 1.0
        assert stats.maximum == 5.0
        assert stats.q1 == 2.0
        assert stats.q3 == 4.0
        assert stats.iqr == 2.0
        assert stats.n == 5

    def test_single_sample(self):
        stats = box_stats([7.0])
        assert stats.minimum == stats.median == stats.maximum == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            box_stats([])

    def test_as_row(self):
        row = box_stats([1.0, 2.0, 3.0]).as_row(precision=1)
        assert row == "1.0 1.5 2.0 2.5 3.0"

    @given(
        samples=st.lists(st.floats(0.1, 100.0), min_size=1, max_size=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_ordering(self, samples):
        stats = box_stats(samples)
        assert (
            stats.minimum <= stats.q1 <= stats.median <= stats.q3 <= stats.maximum
        )
        assert stats.minimum == min(samples)
        assert stats.maximum == max(samples)
