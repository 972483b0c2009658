"""Importable test helpers: hypothesis strategies shared across modules.

Test modules import these as ``from tests.helpers import xgft_examples``.
They used to live in ``conftest.py``, but importing from a conftest
requires package-relative imports that break under plain rootdir
collection; a regular module keeps them importable everywhere.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from repro.patterns import Pattern, Phase
from repro.topology import XGFT

__all__ = ["xgft_strategy", "xgft_examples", "leaf_pairs", "placed", "rng", "count_routing"]


def xgft_strategy(max_h: int = 3, max_m: int = 5, max_w: int = 5, max_leaves: int = 256):
    """Hypothesis strategy generating random XGFTs of 2 to ``max_leaves`` leaves."""

    @st.composite
    def build(draw):
        h = draw(st.integers(1, max_h))
        m = tuple(draw(st.integers(1, max_m)) for _ in range(h))
        w = tuple(draw(st.integers(1, max_w)) for _ in range(h))
        # keep exhaustive per-example loops cheap
        assume(2 <= math.prod(m) <= max_leaves)
        return XGFT(m, w)

    return build()


@st.composite
def xgft_examples(draw, max_h: int = 3):
    """Strategy over a curated pool of XGFTs (cheap, deterministic shapes)."""
    pool = [
        XGFT((4,), (1,)),
        XGFT((4,), (3,)),
        XGFT((2, 2), (1, 2)),
        XGFT((4, 4), (1, 4)),
        XGFT((4, 4), (1, 3)),
        XGFT((4, 4), (2, 3)),
        XGFT((3, 5), (1, 4)),
        XGFT((4, 2, 3), (1, 2, 2)),
        XGFT((2, 3, 4), (1, 3, 2)),
        XGFT((4, 4, 4), (1, 3, 2)),
        XGFT((2, 2, 2), (2, 2, 2)),
    ]
    return draw(st.sampled_from([t for t in pool if t.h <= max_h]))


@st.composite
def leaf_pairs(draw, topo: XGFT):
    """A (src, dst) pair of distinct leaves of ``topo``."""
    n = topo.num_leaves
    src = draw(st.integers(0, n - 1))
    dst = draw(st.integers(0, n - 2))
    if dst >= src:
        dst += 1
    return src, dst


def placed(pattern: Pattern, leaf: Sequence[int]) -> Pattern:
    """``pattern`` with rank ``r`` running on leaf ``leaf[r]``."""
    leaf = np.asarray(leaf)
    return Pattern(
        tuple(Phase(leaf[ph.src], leaf[ph.dst], ph.sizes, name=ph.name) for ph in pattern.phases),
        name=f"placed({pattern.name})",
    )


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


@contextmanager
def count_routing() -> Iterator[dict]:
    """Count the routing done inside the block.

    ``"pairs"`` lists the length of every
    :meth:`RoutingAlgorithm.build_table` call (XGFT port schemes; graph
    schemes override it), ``"all_pairs"`` counts
    :meth:`RoutingAlgorithm.all_pairs_table` calls (every scheme) and
    ``"route"`` the one-pair :meth:`RoutingAlgorithm.route` calls.
    """
    from repro.core.base import RoutingAlgorithm

    calls: dict = {"pairs": [], "all_pairs": 0, "route": 0}
    build_table = RoutingAlgorithm.build_table
    all_pairs_table = RoutingAlgorithm.all_pairs_table
    route = RoutingAlgorithm.route

    def counting_build(self, pairs):
        table = build_table(self, pairs)
        calls["pairs"].append(len(table))
        return table

    def counting_all_pairs(self, *args, **kwargs):
        calls["all_pairs"] += 1
        return all_pairs_table(self, *args, **kwargs)

    def counting_route(self, src, dst):
        calls["route"] += 1
        return route(self, src, dst)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RoutingAlgorithm, "build_table", counting_build)
        patch.setattr(RoutingAlgorithm, "all_pairs_table", counting_all_pairs)
        patch.setattr(RoutingAlgorithm, "route", counting_route)
        yield calls
