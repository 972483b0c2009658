"""Shared fixtures for the test suite.

Hypothesis strategies live in :mod:`tests.helpers`; only pytest fixtures
belong here.
"""

from __future__ import annotations

from typing import Iterator

import pytest

from repro.topology import XGFT, kary_ntree, slimmed_two_level
from tests.helpers import count_routing


@pytest.fixture
def paper_full_tree() -> XGFT:
    """The paper's full evaluation topology: XGFT(2;16,16;1,16)."""
    return slimmed_two_level(16, 16, 16)


@pytest.fixture
def paper_slimmed_tree() -> XGFT:
    """The Fig.-4(b) slimmed topology: XGFT(2;16,16;1,10)."""
    return slimmed_two_level(16, 16, 10)


@pytest.fixture
def small_tree() -> XGFT:
    """A 4-ary 2-tree, small enough for exhaustive checks."""
    return kary_ntree(4, 2)


@pytest.fixture
def deep_tree() -> XGFT:
    """A 3-level mixed-radix XGFT exercising h > 2 code paths."""
    return XGFT((4, 2, 3), (1, 2, 2))


@pytest.fixture
def slimmed_deep_tree() -> XGFT:
    """A slimmed 3-level tree (w3 < m3)."""
    return XGFT((4, 4, 4), (1, 3, 2))


@pytest.fixture
def routing_calls() -> Iterator[dict]:
    """The routing the test does (:func:`tests.helpers.count_routing`)."""
    with count_routing() as calls:
        yield calls
