"""Tests for the compressed columnar route-table format."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.base import RouteTable
from repro.core.factory import ALGORITHMS, make_algorithm
from repro.store import CompactRouteTable
from repro.topology import XGFT
from tests.helpers import xgft_examples


def assert_tables_equal(a: RouteTable, b: RouteTable) -> None:
    assert np.array_equal(a.src, b.src)
    assert np.array_equal(a.dst, b.dst)
    assert np.array_equal(a.nca_level, b.nca_level)
    assert np.array_equal(a.ports, b.ports)


def assert_same_arrays(a: dict, b: dict) -> None:
    """Equal names, dtypes and values: what ``np.save`` writes byte for byte."""
    assert a.keys() == b.keys()
    for name, array in a.items():
        assert b[name].dtype == array.dtype, name
        assert b[name].shape == array.shape, name
        assert np.array_equal(b[name], array), name


#: the schemes that declare the endpoint steering them
STEERED = ("d-mod-k", "s-mod-k", "r-nca-u", "r-nca-d")


@st.composite
def steered_trees(draw):
    """XGFTs with h = 1-3 and at most 125 leaves; half of them get a
    two-subtree top (m_h = 2) and half a level with a single up-port."""
    h = draw(st.integers(1, 3))
    m = [draw(st.integers(1, 5)) for _ in range(h)]
    w = [draw(st.integers(1, 4)) for _ in range(h)]
    if draw(st.booleans()):
        m[-1] = 2
    if draw(st.booleans()):
        w[draw(st.integers(0, h - 1))] = 1
    return XGFT(tuple(m), tuple(w))


# graph schemes emit PathTables, which have no compact port encoding
PORT_TABLE_ALGORITHMS = sorted(
    name for name in ALGORITHMS if not getattr(ALGORITHMS.get(name), "emits_paths", False)
)


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        topo=xgft_examples(max_h=2),
        algorithm=st.sampled_from(PORT_TABLE_ALGORITHMS),
        seed=st.integers(0, 3),
    )
    def test_bit_exact_for_every_registered_algorithm(self, topo, algorithm, seed):
        table = make_algorithm(algorithm, topo, seed=seed).all_pairs_table()
        compact = CompactRouteTable.encode(table)
        assert_tables_equal(compact.to_table(), table)
        assert compact.nbytes <= table.nbytes

    def test_pairs_kind_round_trip(self, small_tree):
        full = make_algorithm("d-mod-k", small_tree).all_pairs_table()
        sub = RouteTable(
            small_tree, full.src[::3], full.dst[::3], full.nca_level[::3], full.ports[::3]
        )
        compact = sub.to_compact()
        assert compact.kind == "pairs"
        assert_tables_equal(compact.to_table(), sub)

    def test_hand_built_nca_kept_explicit(self, small_tree):
        # a table whose stored levels disagree with the topology's digit
        # arithmetic (shorter-than-minimal routes are invalid, so climb
        # HIGHER than the NCA: src 0 -> dst 1 via the root)
        table = RouteTable(
            small_tree,
            np.array([0]),
            np.array([1]),
            np.array([2]),
            np.array([[0, 0]]),
        )
        assert small_tree.nca_level(0, 1) == 1
        compact = table.to_compact()
        assert compact.meta.get("explicit_nca")
        assert_tables_equal(compact.to_table(), table)

    def test_from_compact_is_inverse(self, small_tree):
        table = make_algorithm("s-mod-k", small_tree).all_pairs_table()
        assert_tables_equal(RouteTable.from_compact(table.to_compact()), table)


class TestEncodingSelection:
    def test_destination_deterministic_collapses_to_dst_columns(self, small_tree):
        compact = make_algorithm("d-mod-k", small_tree).all_pairs_table().to_compact()
        assert compact.encoding == "columnar"
        assert compact.meta["column_axes"] == ["dst"] * small_tree.h

    def test_source_deterministic_collapses_to_src_columns(self, small_tree):
        compact = make_algorithm("s-mod-k", small_tree).all_pairs_table().to_compact()
        assert compact.encoding == "columnar"
        # w1=1 makes level 0 degenerate (all ports 0, either axis fits);
        # the real level must collapse onto the source axis
        assert compact.meta["column_axes"][-1] == "src"

    def test_random_nca_uses_prefix_dictionary(self, small_tree):
        compact = make_algorithm("random", small_tree, seed=1).all_pairs_table().to_compact()
        assert compact.encoding == "prefix-dict"
        # at most wprod(h) distinct up-path prefixes exist
        assert compact.meta["num_prefixes"] <= small_tree.wprod(small_tree.h)

    def test_all_pairs_kind_detected(self, small_tree):
        compact = make_algorithm("d-mod-k", small_tree).all_pairs_table().to_compact()
        assert compact.kind == "all-pairs"
        assert "src" not in compact.arrays and "dst" not in compact.arrays


class TestSteeredEntries:
    """``CompactRouteTable.steered`` against ``encode(all_pairs_table())``."""

    @settings(max_examples=150, deadline=None)
    @given(topo=steered_trees(), algorithm=st.sampled_from(STEERED), seed=st.integers(0, 4))
    # two top subtrees, one level: a source-steered column lands on the
    # destination axis with the subtrees' ports swapped
    @example(topo=XGFT((2,), (3,)), algorithm="s-mod-k", seed=0)
    @example(topo=XGFT((2,), (3,)), algorithm="r-nca-u", seed=1)
    # no pair climbs to the top level: its column is all zero
    @example(topo=XGFT((4, 1), (1, 2)), algorithm="d-mod-k", seed=0)
    @example(topo=XGFT((3, 2), (2, 1)), algorithm="r-nca-u", seed=2)
    @example(topo=XGFT((1,), (1,)), algorithm="r-nca-d", seed=0)
    def test_matches_the_encoded_all_pairs_table(self, topo, algorithm, seed):
        alg = make_algorithm(algorithm, topo, seed=seed)
        full = alg.all_pairs_table()
        encoded = CompactRouteTable.encode(full)
        direct = CompactRouteTable.steered(alg)
        assert direct.kind == encoded.kind and direct.encoding == encoded.encoding
        assert direct.describe() == encoded.describe()
        assert_same_arrays(encoded.arrays, direct.arrays)
        decoded = direct.to_table()
        for column in ("src", "dst", "nca_level", "ports"):
            ours, theirs = getattr(decoded, column), getattr(full, column)
            assert ours.dtype == theirs.dtype
            assert ours.tobytes() == theirs.tobytes()
        if len(full):
            idx = np.random.default_rng(seed).integers(0, len(full), size=32)
            nca, ports = direct.batch_lookup(full.src[idx], full.dst[idx])
            assert np.array_equal(nca, full.nca_level[idx])
            assert np.array_equal(ports, full.ports[idx])

    def test_serve_tree_axes(self):
        """With w1 = 1, level 0 collapses onto the destination axis for
        every scheme; only the source-steered level 1 keeps ``src``."""
        topo = XGFT((32, 64), (1, 16))
        for algorithm, axes in [
            ("d-mod-k", ["dst", "dst"]),
            ("s-mod-k", ["dst", "src"]),
            ("r-nca-u", ["dst", "src"]),
            ("r-nca-d", ["dst", "dst"]),
        ]:
            direct = CompactRouteTable.steered(make_algorithm(algorithm, topo))
            assert direct.meta["column_axes"] == axes
            assert direct.nbytes == 2 * topo.num_leaves

    @pytest.mark.parametrize("algorithm", ["random", "colored"])
    def test_other_schemes_refused(self, small_tree, algorithm):
        with pytest.raises(ValueError, match="not steered"):
            CompactRouteTable.steered(make_algorithm(algorithm, small_tree))


class TestGoldenBytesPerRoute:
    """Pinned sizes on the paper's full tree slimmed to w2=8.

    These are exact format guarantees, not approximations: a change that
    shifts them is an on-disk format change and must bump
    ``FORMAT_VERSION``.
    """

    TOPO = XGFT((16, 16), (1, 8))

    def test_d_mod_k_golden(self):
        compact = make_algorithm("d-mod-k", self.TOPO).all_pairs_table().to_compact()
        # two uint8 columns of n=256 entries each
        assert compact.encoding == "columnar"
        assert compact.nbytes == 512
        assert compact.bytes_per_route == pytest.approx(0.007843, abs=1e-6)

    def test_random_nca_golden(self):
        table = make_algorithm("random", self.TOPO, seed=0).all_pairs_table()
        compact = table.to_compact()
        # 8 prefixes x 2 levels (uint8) + one uint8 code per route
        assert compact.encoding == "prefix-dict"
        assert compact.nbytes == 65296
        assert compact.bytes_per_route == pytest.approx(1.000245, abs=1e-6)

    def test_acceptance_floor_vs_struct_of_arrays(self):
        table = make_algorithm("d-mod-k", self.TOPO).all_pairs_table()
        assert table.nbytes / table.to_compact().nbytes >= 4.0


class TestQuerySurface:
    def test_batch_lookup_matches_decoded_table(self, small_tree):
        table = make_algorithm("random", small_tree, seed=2).all_pairs_table()
        compact = table.to_compact()
        rng = np.random.default_rng(0)
        idx = rng.integers(0, len(table), size=64)
        nca, ports = compact.batch_lookup(table.src[idx], table.dst[idx])
        assert np.array_equal(nca, table.nca_level[idx])
        assert np.array_equal(ports, table.ports[idx])

    def test_lookup_returns_validated_route(self, small_tree):
        compact = make_algorithm("d-mod-k", small_tree).all_pairs_table().to_compact()
        route = compact.lookup(0, 5)
        route.validate(small_tree)
        assert route == make_algorithm("d-mod-k", small_tree).route(0, 5)

    def test_self_pair_raises_on_every_encoding(self, small_tree):
        for algorithm in ("d-mod-k", "random"):
            compact = (
                make_algorithm(algorithm, small_tree, seed=1).all_pairs_table().to_compact()
            )
            with pytest.raises(KeyError, match="self-pair"):
                compact.batch_lookup([3], [3])

    def test_absent_pair_raises_in_pairs_kind(self, small_tree):
        full = make_algorithm("d-mod-k", small_tree).all_pairs_table()
        sub = RouteTable(
            small_tree, full.src[:5], full.dst[:5], full.nca_level[:5], full.ports[:5]
        )
        compact = sub.to_compact()
        with pytest.raises(KeyError, match="no route"):
            compact.lookup(int(full.src[-1]), int(full.dst[-1]))

    def test_out_of_range_endpoint_rejected(self, small_tree):
        compact = make_algorithm("d-mod-k", small_tree).all_pairs_table().to_compact()
        with pytest.raises(KeyError, match="leaf range"):
            compact.batch_lookup([0], [small_tree.num_leaves])

    def test_describe_is_json_safe(self, small_tree):
        import json

        compact = make_algorithm("d-mod-k", small_tree).all_pairs_table().to_compact()
        doc = json.loads(json.dumps(compact.describe()))
        assert doc["encoding"] == "columnar"
        assert doc["num_routes"] == len(compact)


class TestRouteTableTypedAPI:
    def test_lookup_and_batch_lookup(self, small_tree):
        table = make_algorithm("d-mod-k", small_tree).all_pairs_table()
        route = table.lookup(0, 5)
        assert route == make_algorithm("d-mod-k", small_tree).route(0, 5)
        batch = table.batch_lookup([0, 1], [5, 7])
        assert np.array_equal(batch.src, [0, 1])
        assert np.array_equal(batch.dst, [5, 7])

    def test_lookup_missing_pair_raises(self, small_tree):
        table = make_algorithm("d-mod-k", small_tree).all_pairs_table()
        with pytest.raises(KeyError):
            table.lookup(2, 2)

    def test_nbytes_counts_all_columns(self, small_tree):
        table = make_algorithm("d-mod-k", small_tree).all_pairs_table()
        expected = (
            table.src.nbytes + table.dst.nbytes + table.nca_level.nbytes + table.ports.nbytes
        )
        assert table.nbytes == expected
