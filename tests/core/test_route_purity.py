"""An oblivious scheme's route is a pure function of its pair.

A phase scenario routes only the pairs of its phases through
``build_table``, while dynamic scenarios, the route store and
``repro serve`` answer from the scheme's ``all_pairs_table()``.  Both
must give one answer: for every registered oblivious scheme,
``build_table(pairs)`` equals the all-pairs rows of those pairs — NCA
levels and ports for port tables, arcs for path tables — for any subset
of pairs, in any order, with duplicates.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ALGORITHMS, is_oblivious, make_algorithm
from repro.registry import parse_spec
from repro.topology import XGFT
from repro.topology.registry import resolve_topology

SEED = 3

#: a two-level tree with several host uplinks and a slimmed three-level one
XGFTS = ("XGFT(2;4,4;1,3)", "XGFT(3;2,3,2;1,2,2)")
GRAPH = "leafspine(leaves=4,spines=2,hosts=2)"

#: every registered oblivious scheme, plus the best-of-r and
#: plain-modulo variants of the r-NCA family and the path bridge
#: over a seeded scheme
SPECS = [
    *(
        n
        for n in ALGORITHMS.names()
        if is_oblivious(make_algorithm(n, resolve_topology(XGFTS[0]), seed=SEED))
    ),
    "r-nca-u(r=2)",
    "r-nca-d(r=2)",
    "r-nca-u(map_kind=mod)",
    "r-nca-d(map_kind=mod)",
    "xgft-path(scheme=d-mod-k)",
    "xgft-path(scheme=r-nca-d)",
]


def _routes_graphs(spec: str) -> bool:
    """Does the scheme route general graphs?  (xgft-path needs a lowered XGFT.)"""
    name, _ = parse_spec(spec)
    return getattr(ALGORITHMS.get(name), "supports_graphs", False) and name != "xgft-path"


#: every scheme on each XGFT, and the graph-capable ones on a general graph
GRAPH_SPECS = [spec for spec in SPECS if _routes_graphs(spec)]
CASES = [(t, spec) for t in XGFTS for spec in SPECS] + [(GRAPH, spec) for spec in GRAPH_SPECS]


@lru_cache(maxsize=None)
def _all_pairs(topology: str, spec: str):
    """The scheme's all-pairs table."""
    return make_algorithm(spec, resolve_topology(topology), seed=SEED).all_pairs_table()


@lru_cache(maxsize=None)
def _router(topology: str, spec: str):
    """A second instance, so the subsets are routed apart from the table."""
    return make_algorithm(spec, resolve_topology(topology), seed=SEED)


def test_cases_cover_both_table_kinds():
    kinds = {type(_all_pairs(t, spec)).__name__ for t, spec in CASES}
    assert kinds == {"RouteTable", "PathTable"}
    assert {"random-walk", "racke-tree", "r-nca-best"} <= set(SPECS)
    assert GRAPH_SPECS == ["racke-tree", "random-walk"]
    assert {"colored", "auto-mod-k"}.isdisjoint(SPECS)  # pattern-aware


@pytest.mark.parametrize(("topology", "spec"), CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_build_table_equals_all_pairs_rows(topology, spec, data):
    full = _all_pairs(topology, spec)
    # random rows of the all-pairs table: any subset, any order, repeats
    picks = data.draw(st.lists(st.integers(0, len(full) - 1), min_size=1, max_size=40))
    want = full.take(picks)
    got = _router(topology, spec).build_table(np.stack([want.src, want.dst], axis=1))
    assert np.array_equal(got.src, want.src)
    assert np.array_equal(got.dst, want.dst)
    if isinstance(full.topo, XGFT):
        assert np.array_equal(got.nca_level, want.nca_level)
        assert np.array_equal(got.ports, want.ports)
    else:
        assert np.array_equal(got.offsets, want.offsets)
        assert np.array_equal(got.arcs, want.arcs)
