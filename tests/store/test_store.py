"""Tests for the persistent artifact store (keys, mmap loads, safety)."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.core.factory import make_algorithm
from repro.store import (
    ArtifactStore,
    StoreFormatError,
    StoreKey,
    default_store_root,
    open_table,
    store_table,
)
from repro.store.artifact import STORE_ENV
from repro.topology.registry import resolve_topology


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


class TestStoreKey:
    def test_topology_spellings_collapse(self):
        a = StoreKey.make("XGFT(2;4,4;1,2)", "d-mod-k")
        b = StoreKey.make("xgft:2;4,4;1,2", "d-mod-k")
        c = StoreKey.make(resolve_topology("XGFT(2;4,4;1,2)"), "d-mod-k")
        assert a == b == c
        assert a.digest == b.digest

    def test_algorithm_param_order_collapses(self):
        a = StoreKey.make("XGFT(2;4,4;1,2)", "r-nca-d(r=2,map_kind=mod)")
        b = StoreKey.make("XGFT(2;4,4;1,2)", "r-nca-d(map_kind=mod,r=2)")
        assert a == b

    def test_fault_spec_normalized(self):
        a = StoreKey.make("XGFT(2;4,4;1,2)", "d-mod-k", faults="links:count=2,seed=7")
        b = StoreKey.make("XGFT(2;4,4;1,2)", "d-mod-k", faults="links:seed=7,count=2")
        assert a == b
        assert a.faults == "links:count=2,seed=7"

    def test_distinct_axes_distinct_digests(self):
        base = StoreKey.make("XGFT(2;4,4;1,2)", "d-mod-k", seed=0)
        assert base.digest != StoreKey.make("XGFT(2;4,4;1,2)", "d-mod-k", seed=1).digest
        assert base.digest != StoreKey.make("XGFT(2;4,4;1,2)", "s-mod-k", seed=0).digest
        assert (
            base.digest
            != StoreKey.make("XGFT(2;4,4;1,2)", "d-mod-k", faults="links:count=1").digest
        )

    def test_live_algorithm_instance_rejected(self):
        topo = resolve_topology("XGFT(2;4,4;1,2)")
        with pytest.raises(TypeError, match="live"):
            StoreKey.make(topo, make_algorithm("d-mod-k", topo))

    def test_round_trips_through_dict(self):
        key = StoreKey.make("XGFT(2;4,4;1,2)", "random", seed=3, faults="links:count=1")
        assert StoreKey.from_dict(key.to_dict()) == key

    def test_default_root_honors_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "elsewhere"))
        assert default_store_root() == tmp_path / "elsewhere"
        assert ArtifactStore().root == tmp_path / "elsewhere"


class TestPutOpen:
    def test_mmap_load_equals_in_memory(self, store):
        topo = resolve_topology("XGFT(2;4,4;1,2)")
        table = make_algorithm("random", topo, seed=1).all_pairs_table()
        key = StoreKey.make(topo, "random", seed=1)
        store.put(key, table)
        opened = store.open(key)
        # zero-copy: every payload array arrives memory-mapped read-only
        assert all(isinstance(a, np.memmap) for a in opened.arrays.values())
        assert not any(a.flags.writeable for a in opened.arrays.values())
        loaded = opened.to_table()
        assert np.array_equal(loaded.src, table.src)
        assert np.array_equal(loaded.dst, table.dst)
        assert np.array_equal(loaded.nca_level, table.nca_level)
        assert np.array_equal(loaded.ports, table.ports)

    def test_put_is_idempotent(self, store):
        topo = resolve_topology("XGFT(2;4,4;1,2)")
        key = StoreKey.make(topo, "d-mod-k")
        table = make_algorithm("d-mod-k", topo).all_pairs_table()
        entry = store.put(key, table)
        before = (entry / "meta.json").stat().st_mtime_ns
        store.put(key, table)
        assert (entry / "meta.json").stat().st_mtime_ns == before

    def test_missing_entry_raises_keyerror(self, store):
        with pytest.raises(KeyError, match="no store entry"):
            store.open(StoreKey.make("XGFT(2;4,4;1,2)", "d-mod-k"))

    def test_format_version_refused(self, store):
        topo = resolve_topology("XGFT(2;4,4;1,2)")
        key = StoreKey.make(topo, "d-mod-k")
        store.put(key, make_algorithm("d-mod-k", topo).all_pairs_table())
        meta_path = store.entry_dir(key) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 999
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StoreFormatError, match="format version"):
            store.open(key)

    def test_incomplete_entry_is_invisible(self, store):
        topo = resolve_topology("XGFT(2;4,4;1,2)")
        key = StoreKey.make(topo, "d-mod-k")
        # a crashed writer leaves payload files but no meta.json
        partial = store.entry_dir(key)
        partial.mkdir(parents=True)
        np.save(partial / "col0.npy", np.zeros(4))
        assert not store.contains(key)
        with pytest.raises(KeyError):
            store.open(key)

    def test_keys_lists_complete_entries(self, store):
        topo = resolve_topology("XGFT(2;4,4;1,2)")
        table = make_algorithm("d-mod-k", topo).all_pairs_table()
        k1 = StoreKey.make(topo, "d-mod-k", seed=0)
        k2 = StoreKey.make(topo, "d-mod-k", seed=1)
        store.put(k1, table)
        store.put(k2, table)
        assert set(store.keys()) == {k1, k2}


class TestPayloadChecks:
    """``open`` refuses an entry whose payload does not match its meta.json."""

    TOPOLOGY = "XGFT(2;4,4;1,3)"

    def entry(self, store, algorithm: str, seed: int = 0, topology: str = TOPOLOGY):
        key = StoreKey.make(topology, algorithm, seed)
        open_table(topology, algorithm, seed, store=store)
        return key, store.entry_dir(key)

    def rewrite_meta(self, entry, **changes):
        meta = json.loads((entry / "meta.json").read_text())
        meta.update(changes)
        (entry / "meta.json").write_text(json.dumps(meta))

    def test_intact_entries_open(self, store):
        for algorithm, encoding in [("d-mod-k", "columnar"), ("random", "prefix-dict")]:
            key, _ = self.entry(store, algorithm)
            assert store.open(key).encoding == encoding
        key, _ = self.entry(store, "random", topology="XGFT(1;4;3)")
        assert store.open(key).encoding == "dense"

    def test_short_column(self, store):
        key, entry = self.entry(store, "d-mod-k")
        np.save(entry / "col1.npy", np.load(entry / "col1.npy")[:-1])
        with pytest.raises(StoreFormatError, match="'col1' has 15 entries, not 16"):
            store.open(key)

    def test_truncated_column_file(self, store):
        key, entry = self.entry(store, "d-mod-k")
        path = entry / "col1.npy"
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(StoreFormatError, match="does not match its meta.json"):
            store.open(key)

    def test_missing_column(self, store):
        key, entry = self.entry(store, "s-mod-k")
        (entry / "col0.npy").unlink()
        with pytest.raises(StoreFormatError, match="holds the arrays"):
            store.open(key)

    def test_out_of_range_port(self, store):
        key, entry = self.entry(store, "r-nca-d", seed=1)
        column = np.load(entry / "col1.npy")
        column[5] = 3  # w2 = 3: ports 0..2
        np.save(entry / "col1.npy", column)
        with pytest.raises(StoreFormatError, match="port 3 at entry 5, outside"):
            store.open(key)

    def test_unknown_axis(self, store):
        key, entry = self.entry(store, "d-mod-k")
        self.rewrite_meta(entry, column_axes=["dst", "sideways"])
        with pytest.raises(StoreFormatError, match="unknown axis 'sideways'"):
            store.open(key)

    def test_axis_count(self, store):
        key, entry = self.entry(store, "d-mod-k")
        self.rewrite_meta(entry, column_axes=["dst"])
        with pytest.raises(StoreFormatError, match="one axis per level"):
            store.open(key)

    def test_short_codes(self, store):
        key, entry = self.entry(store, "random", seed=1)
        np.save(entry / "codes.npy", np.load(entry / "codes.npy")[:-1])
        with pytest.raises(StoreFormatError, match="'codes' has 239 entries, not 240"):
            store.open(key)

    def test_prefix_out_of_range(self, store):
        key, entry = self.entry(store, "random", seed=1)
        prefixes = np.load(entry / "prefixes.npy")
        prefixes[0, 0] = 1  # w1 = 1: level 0 has port 0 only
        np.save(entry / "prefixes.npy", prefixes)
        with pytest.raises(StoreFormatError, match="prefix table level 0"):
            store.open(key)

    def test_short_dense_level(self, store):
        key, entry = self.entry(store, "random", topology="XGFT(1;4;3)")
        np.save(entry / "level0.npy", np.load(entry / "level0.npy")[:-2])
        with pytest.raises(StoreFormatError, match="'level0' has 10 entries, not 12"):
            store.open(key)

    def test_route_count(self, store):
        key, entry = self.entry(store, "d-mod-k")
        self.rewrite_meta(entry, num_routes=17)
        with pytest.raises(StoreFormatError, match="has 240 routes, not 17"):
            store.open(key)
        self.rewrite_meta(entry, num_routes=None)
        with pytest.raises(StoreFormatError, match="does not match its meta.json"):
            store.open(key)

    @pytest.mark.parametrize(
        "text, match", [("{", "corrupt meta.json"), ("[1, 2]", "not an object")]
    )
    def test_corrupt_meta(self, store, text, match):
        key, entry = self.entry(store, "d-mod-k")
        (entry / "meta.json").write_text(text)
        with pytest.raises(StoreFormatError, match=match):
            store.open(key)

    def test_float_column(self, store):
        key, entry = self.entry(store, "d-mod-k")
        np.save(entry / "col1.npy", np.load(entry / "col1.npy").astype(np.float64))
        with pytest.raises(StoreFormatError, match="integer array"):
            store.open(key)


class TestOpenTableFacade:
    def test_builds_on_miss_and_reopens_from_store(self, store):
        compact = open_table("XGFT(2;4,4;1,2)", "d-mod-k", store=store)
        assert all(isinstance(a, np.memmap) for a in compact.arrays.values())
        key = StoreKey.make("XGFT(2;4,4;1,2)", "d-mod-k")
        assert store.contains(key)
        topo = resolve_topology("XGFT(2;4,4;1,2)")
        ref = make_algorithm("d-mod-k", topo).all_pairs_table()
        assert np.array_equal(compact.to_table().ports, ref.ports)

    def test_no_build_raises_on_miss(self, store):
        with pytest.raises(KeyError):
            open_table("XGFT(2;4,4;1,2)", "d-mod-k", store=store, build=False)

    def test_pattern_aware_scheme_refused(self, store):
        with pytest.raises(ValueError, match="pattern-aware"):
            open_table("XGFT(2;4,4;1,2)", "colored", store=store)

    def test_faulted_key_stores_repaired_table(self, store):
        from repro.faults import DegradedTopology, parse_fault_spec, repair_table

        faults = "links:count=4,seed=3"
        compact = open_table("XGFT(2;4,4;1,2)", "d-mod-k", faults=faults, store=store)
        topo = resolve_topology("XGFT(2;4,4;1,2)")
        pristine = make_algorithm("d-mod-k", topo).all_pairs_table()
        degraded = DegradedTopology(topo, parse_fault_spec(faults).realize(topo))
        expected = repair_table(pristine, degraded, seed=0).table
        loaded = compact.to_table()
        assert np.array_equal(loaded.src, expected.src)
        assert np.array_equal(loaded.ports, expected.ports)

    def test_store_table_persists_under_canonical_key(self, store):
        topo = resolve_topology("XGFT(2;4,4;1,2)")
        table = make_algorithm("random", topo, seed=5).all_pairs_table()
        key = store_table(table, "random", seed=5, store=store)
        assert key == StoreKey.make(topo, "random", seed=5)
        assert store.contains(key)
        assert np.array_equal(store.load(key).ports, table.ports)


class TestConcurrentReaders:
    def test_many_threads_query_one_entry(self, store):
        topo = resolve_topology("XGFT(2;4,4;1,4)")
        table = make_algorithm("random", topo, seed=2).all_pairs_table()
        key = StoreKey.make(topo, "random", seed=2)
        store.put(key, table)
        rng = np.random.default_rng(0)
        idx = rng.integers(0, len(table), size=256)
        srcs, dsts = table.src[idx], table.dst[idx]
        expected = table.ports[idx]
        errors: list[Exception] = []

        def reader():
            try:
                # each thread opens its own mmap view and queries it
                opened = store.open(key)
                for _ in range(10):
                    _, ports = opened.batch_lookup(srcs, dsts)
                    assert np.array_equal(ports, expected)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_shared_open_handle_is_read_safe(self, store):
        topo = resolve_topology("XGFT(2;4,4;1,4)")
        table = make_algorithm("d-mod-k", topo).all_pairs_table()
        key = StoreKey.make(topo, "d-mod-k")
        store.put(key, table)
        opened = store.open(key)
        errors: list[Exception] = []

        def reader(seed: int):
            try:
                rng = np.random.default_rng(seed)
                idx = rng.integers(0, len(table), size=128)
                for _ in range(10):
                    _, ports = opened.batch_lookup(table.src[idx], table.dst[idx])
                    assert np.array_equal(ports, table.ports[idx])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
