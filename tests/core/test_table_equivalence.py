"""Array-native table construction against its tuple-based original.

:mod:`tests.core.table_oracle` keeps the ``build_table`` /
``all_pairs_table`` bodies that converted every pair to a Python tuple.
For every registered XGFT algorithm the array-native code must build the
same table column for column — ``src``, ``dst``, ``nca_level``,
``ports`` — from every accepted input form.  The pair-validation edge
(:func:`repro.core.base.pair_array`) and the inherited scalar
``up_ports`` are checked here too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contention import link_load_summary
from repro.core import ALGORITHMS, BestOfKRNCA, Colored, DModK, make_algorithm
from repro.core.base import pair_array
from repro.graphs import GeneralGraph
from repro.topology import XGFT, slimmed_two_level
from tests.core import table_oracle
from tests.core.table_oracle import OracleAutoModK

#: h=2 and h=3, each with a w1 > 1 variant (several host uplinks)
TOPOLOGIES = [
    XGFT((4, 4), (1, 3)),
    XGFT((4, 4), (2, 3)),
    XGFT((2, 3, 2), (1, 2, 2)),
    XGFT((3, 2, 2), (2, 2, 3)),
]

#: every registered algorithm that emits port tables, plus the
#: best-of-r and plain-modulo variants of the r-NCA family
SPECS = [
    *(n for n in ALGORITHMS.names() if not getattr(ALGORITHMS.get(n), "emits_paths", False)),
    "r-nca-u(r=2)",
    "r-nca-d(r=2)",
    "r-nca-u(map_kind=mod)",
    "r-nca-d(map_kind=mod)",
]

#: the input forms build_table accepts, each fed the same pairs
FORMS = {
    "int64": lambda pairs: np.asarray(pairs, dtype=np.int64).reshape(-1, 2),
    "int32": lambda pairs: np.asarray(pairs, dtype=np.int32).reshape(-1, 2),
    "list": lambda pairs: [tuple(p) for p in pairs],
    "zip": lambda pairs: zip([s for s, _ in pairs], [d for _, d in pairs]),
}


def _algorithms(spec, topo, seed):
    """A fresh pair of instances: the array-native one and the oracle's."""
    if spec == "auto-mod-k":
        return make_algorithm(spec, topo, seed=seed), OracleAutoModK(topo)
    return make_algorithm(spec, topo, seed=seed), make_algorithm(spec, topo, seed=seed)


def _assert_same_table(got, want):
    for column in ("src", "dst", "nca_level", "ports"):
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == np.int64, column
        np.testing.assert_array_equal(a, b, err_msg=column)
        assert a.shape == b.shape, column


@st.composite
def _cases(draw):
    topo = draw(st.sampled_from(TOPOLOGIES))
    spec = draw(st.sampled_from(SPECS))
    n = topo.num_leaves
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = rng.integers(0, n, size=(draw(st.integers(0, 3 * n)), 2)).tolist()
    if pairs and draw(st.booleans()):
        pairs += pairs[: draw(st.integers(1, len(pairs)))]  # duplicate a prefix
    if draw(st.booleans()):
        pairs += [[s, s] for s in rng.integers(0, n, size=3).tolist()]  # self-pairs
    return topo, spec, draw(st.integers(0, 50)), pairs, draw(st.sampled_from(sorted(FORMS)))


class TestBuildTable:
    @given(case=_cases())
    @settings(max_examples=200, deadline=None)
    def test_every_input_form_matches_the_oracle(self, case):
        topo, spec, seed, pairs, form = case
        alg, oracle = _algorithms(spec, topo, seed)
        got = alg.build_table(FORMS[form](pairs))
        _assert_same_table(got, table_oracle.build_table(oracle, [tuple(p) for p in pairs]))

    @pytest.mark.parametrize("form", sorted(FORMS))
    @pytest.mark.parametrize("spec", SPECS)
    def test_empty_input(self, spec, form):
        topo = TOPOLOGIES[2]
        alg, oracle = _algorithms(spec, topo, 0)
        got = alg.build_table(FORMS[form]([]))
        assert len(got) == 0
        assert got.ports.shape == (0, topo.h)
        _assert_same_table(got, table_oracle.build_table(oracle, []))

    def test_prepare_receives_the_pair_array(self):
        seen = []

        class Spy(DModK):
            def prepare(self, pairs):
                seen.append(pairs)

        topo = TOPOLOGIES[0]
        Spy(topo).build_table([(0, 5), (3, 3)])
        Spy(topo).build_table(np.asarray([[1, 2]], dtype=np.int32))
        for arr in seen:
            assert isinstance(arr, np.ndarray)
            assert arr.dtype == np.int64 and arr.ndim == 2 and arr.shape[1] == 2
        np.testing.assert_array_equal(seen[0], [[0, 5], [3, 3]])


class TestAllPairsTable:
    @pytest.mark.parametrize("include_self", [False, True])
    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: t.spec())
    def test_matches_the_oracle(self, topo, spec, include_self):
        alg, oracle = _algorithms(spec, topo, 3)
        _assert_same_table(
            alg.all_pairs_table(include_self=include_self),
            table_oracle.all_pairs_table(oracle, include_self=include_self),
        )

    def test_single_leaf(self):
        topo = XGFT((1,), (1,))
        assert len(DModK(topo).all_pairs_table()) == 0
        assert len(DModK(topo).all_pairs_table(include_self=True)) == 1


class TestBestOfKSelection:
    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: t.spec())
    def test_same_relabeling_as_tuple_probes(self, topo, direction):
        alg = BestOfKRNCA(topo, seed=2, k=3, probes=4, direction=direction)
        want_seed, want_score = table_oracle.best_of_k_selection(
            topo, seed=2, k=3, probes=4, direction=direction
        )
        assert alg._delegate.seed == want_seed
        assert alg.selected_score == want_score


#: schemes whose port choice is a pure function of the pair
DIGIT_WISE = [
    "s-mod-k",
    "d-mod-k",
    "random",
    "r-nca-u",
    "r-nca-d",
    "r-nca-u(map_kind=mod)",
    "r-nca-d(map_kind=mod)",
    "r-nca-best",
    "auto-mod-k",
]


@pytest.mark.parametrize("spec", DIGIT_WISE)
def test_up_ports_is_the_all_pairs_row(spec):
    """The inherited scalar ``up_ports`` answers every pair exactly as
    the vectorized table does."""
    topo = XGFT((3, 3, 3), (1, 2, 3))
    alg = make_algorithm(spec, topo, seed=5)
    table = alg.all_pairs_table()
    for f, (s, d) in enumerate(zip(table.src.tolist(), table.dst.tolist())):
        assert alg.up_ports(s, d) == tuple(table.ports[f, : table.nca_level[f]].tolist())


class TestPairValidation:
    """The edge rejects what the tuple path silently routed or crashed on."""

    TOPO = slimmed_two_level(16, 16, 4)  # XGFT(2;16,16;1,4): 256 leaves

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
    @pytest.mark.parametrize(
        "pairs, match",
        [
            ([(0, 300)], r"\(0, 300\) at row 0 .*outside the leaf range \[0, 256\)"),
            ([(1, 2), (-1, 5)], r"\(-1, 5\) at row 1 .*outside the leaf range"),
            ([(1, 2), (0.5, 3)], r"\(0\.5, 3\.0\) at row 1 is not a pair of integer"),
            ([(0, 1, 2)], r"shape \(F, 2\), got shape \(1, 3\)"),
        ],
    )
    def test_bad_pairs_raise(self, pairs, match, as_array):
        alg = DModK(self.TOPO)
        with pytest.raises(ValueError, match=match):
            alg.build_table(np.asarray(pairs) if as_array else pairs)

    def test_out_of_range_never_reaches_the_census(self):
        """``(0, 300)`` used to route over link ids 620 and 648 of a
        640-link fabric and report a load on the missing link."""
        with pytest.raises(ValueError, match="outside the leaf range"):
            link_load_summary(DModK(self.TOPO).build_table([(0, 300)]))

    @pytest.mark.parametrize(
        "pairs",
        [[(0, 1), (2,)], [(True, False)], np.asarray([[0.0, 1.0]]), "ab", 7],
        ids=["ragged", "bool", "float-array", "string", "scalar"],
    )
    def test_malformed_batches_raise(self, pairs):
        with pytest.raises((ValueError, TypeError)):
            DModK(self.TOPO).build_table(pairs)

    def test_accepted_forms_convert_once(self):
        arr = np.asarray([[0, 5], [255, 0]], dtype=np.int64)
        assert pair_array(arr, 256) is arr  # an int64 array passes through
        for form in (arr.astype(np.uint16), arr.tolist(), iter(arr.tolist()), ()):
            out = pair_array(form, 256)
            assert out.dtype == np.int64 and out.shape[1] == 2

    def test_colored_prepare_validates_direct_calls(self):
        with pytest.raises(ValueError, match="outside the leaf range"):
            Colored(self.TOPO).prepare([(0, 256)])

    def test_graph_schemes_validate_too(self):
        graph = GeneralGraph.from_xgft(XGFT((4, 4), (1, 2)))
        alg = make_algorithm("xgft-path", graph)
        with pytest.raises(ValueError, match="outside the leaf range"):
            alg.build_table(np.asarray([[0, 16]]))
        np.testing.assert_array_equal(
            alg.build_table(np.asarray([[0, 5], [3, 3]], dtype=np.int32)).arcs,
            alg.build_table([(0, 5), (3, 3)]).arcs,
        )
