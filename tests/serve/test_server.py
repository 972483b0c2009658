"""Tests for the RouteServer query layer and protocol."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core.factory import make_algorithm
from repro.core.forwarding import build_forwarding_tables
from repro.faults import (
    PAIR_DISCONNECTED,
    PAIR_INTACT,
    DegradedTopology,
    UnreachablePairError,
    parse_fault_spec,
    repair_table,
)
from repro.serve import RouteServer, handle_request, serve_forever
from repro.serve.server import STREAM_LIMIT, WHAT_IF_CACHE_SIZE
from repro.topology.registry import resolve_topology

TOPO = "XGFT(2;4,4;1,4)"
FAULTS = "links:count=6,seed=3"


@pytest.fixture
def server(tmp_path):
    return RouteServer.from_store(TOPO, "d-mod-k", store=tmp_path / "store")


class TestLookups:
    def test_batch_matches_algorithm_routes(self, server):
        topo = resolve_topology(TOPO)
        table = make_algorithm("d-mod-k", topo).all_pairs_table()
        rng = np.random.default_rng(1)
        idx = rng.integers(0, len(table), size=100)
        nca, ports, status = server.batch_lookup(table.src[idx], table.dst[idx])
        assert np.array_equal(nca, table.nca_level[idx])
        assert np.array_equal(ports, table.ports[idx])
        assert (status == PAIR_INTACT).all()

    def test_single_lookup_validates(self, server):
        route = server.lookup(0, 9)
        route.validate(resolve_topology(TOPO))

    def test_stats_accumulate(self, server):
        server.batch_lookup([0, 1], [5, 6])
        server.batch_lookup([2], [3])
        stats = server.stats()
        assert stats["queries"] == 2
        assert stats["routes_served"] == 3

    def test_from_store_key_in_info(self, server):
        info = server.info()
        assert info["key"]["algorithm"] == "d-mod-k"
        assert info["topology"] == TOPO


class TestWhatIf:
    def test_matches_persisted_repair(self, server):
        topo = resolve_topology(TOPO)
        table = make_algorithm("d-mod-k", topo).all_pairs_table()
        degraded = DegradedTopology(topo, parse_fault_spec(FAULTS).realize(topo))
        repaired = repair_table(table, degraded, seed=0)
        keep = ~repaired.disconnected
        nca, ports, status = server.batch_lookup(
            table.src[keep], table.dst[keep], faults=FAULTS
        )
        assert np.array_equal(ports, repaired.table.ports)
        assert (status[np.asarray(repaired.repaired[keep])] != PAIR_INTACT).all()

    def test_never_mutates_stored_artifact(self, server):
        before = {k: np.asarray(v).copy() for k, v in server.table.arrays.items()}
        topo = resolve_topology(TOPO)
        n = topo.num_leaves
        srcs, dsts = np.divmod(np.arange(n * n), n)
        keep = srcs != dsts
        server.batch_lookup(srcs[keep], dsts[keep], faults=FAULTS)
        for name, arr in before.items():
            assert np.array_equal(arr, np.asarray(server.table.arrays[name]))

    def test_disconnected_lookup_raises(self, server):
        topo = resolve_topology(TOPO)
        table = make_algorithm("d-mod-k", topo).all_pairs_table()
        degraded = DegradedTopology(topo, parse_fault_spec(FAULTS).realize(topo))
        repaired = repair_table(table, degraded, seed=0)
        dead = np.nonzero(repaired.disconnected)[0]
        if not len(dead):  # pragma: no cover - seed-dependent guard
            pytest.skip("this fault draw disconnects nothing")
        f = int(dead[0])
        with pytest.raises(UnreachablePairError):
            server.lookup(int(table.src[f]), int(table.dst[f]), faults=FAULTS)

    def test_fabric_cached_per_canonical_spec(self, server):
        server.batch_lookup([0], [5], faults="links:count=2,seed=1")
        server.batch_lookup([0], [6], faults="links:seed=1,count=2")
        assert server.stats()["what_if_fabrics"] == 1

    @staticmethod
    def _assert_matches_repair_table(server, table, faults):
        topo = table.topo
        degraded = DegradedTopology(topo, parse_fault_spec(faults).realize(topo, table=table))
        repaired = repair_table(table, degraded, seed=0)
        keep = ~repaired.disconnected
        _, ports, status = server.batch_lookup(table.src, table.dst, faults=faults)
        assert np.array_equal(ports[keep], repaired.table.ports)
        assert (status[~keep] == PAIR_DISCONNECTED).all()

    def test_fabric_cache_is_lru_bounded(self, server):
        table = make_algorithm("d-mod-k", resolve_topology(TOPO)).all_pairs_table()
        hot = "links:count=1,seed=0"
        for i in range(2 * WHAT_IF_CACHE_SIZE):
            server.batch_lookup([0], [5], faults=f"links:count=1,seed={i}")
            server.batch_lookup([0], [5], faults=hot)  # recently used: kept
            assert server.stats()["what_if_fabrics"] == min(i + 1, WHAT_IF_CACHE_SIZE)
        assert parse_fault_spec(hot).canonical() in server._degraded
        assert parse_fault_spec("links:count=1,seed=1").canonical() not in server._degraded
        # evicted, recent and fresh specs all answer as a persisted repair
        for i in (1, 2 * WHAT_IF_CACHE_SIZE - 1, 2 * WHAT_IF_CACHE_SIZE):
            self._assert_matches_repair_table(server, table, f"links:count=1,seed={i}")
        assert server.stats()["what_if_fabrics"] == WHAT_IF_CACHE_SIZE

    def test_traffic_dependent_spec_keeps_no_decoded_table(self, server):
        table = make_algorithm("d-mod-k", resolve_topology(TOPO)).all_pairs_table()
        self._assert_matches_repair_table(server, table, "worst-links:count=1")
        assert server._decoded is None
        server.export_lfts()
        assert server._decoded is not None


class TestLftExport:
    def test_matches_algorithm_built_lfts(self, server):
        topo = resolve_topology(TOPO)
        expected = build_forwarding_tables(make_algorithm("d-mod-k", topo))
        assert server.export_lfts().tables == expected.tables


class TestProtocol:
    def test_lookup_and_batch_ops(self, server):
        response = handle_request(server, {"op": "lookup", "src": 0, "dst": 9})
        assert response["ok"] and response["nca_level"] == len(response["up_ports"])
        response = handle_request(server, {"op": "batch", "src": [0, 1], "dst": [9, 2]})
        assert response["ok"] and response["count"] == 2

    def test_info_stats_ping(self, server):
        assert handle_request(server, {"op": "ping"})["ok"]
        assert handle_request(server, {"op": "info"})["info"]["kind"] == "all-pairs"
        assert "queries" in handle_request(server, {"op": "stats"})["stats"]

    def test_errors_are_responses_not_exceptions(self, server):
        assert not handle_request(server, {"op": "warp"})["ok"]
        assert not handle_request(server, {"op": "lookup", "src": 0, "dst": 0})["ok"]
        assert not handle_request(server, {"op": "lookup", "src": 0})["ok"]
        assert not handle_request(server, {"op": "batch", "src": [0], "dst": [99999]})["ok"]

    def test_what_if_over_protocol(self, server):
        response = handle_request(
            server,
            {"op": "batch", "src": [0, 1], "dst": [9, 2], "faults": FAULTS},
        )
        assert response["ok"]
        assert set(response["status"]) <= {0, 1, 2}


class TestObservability:
    def test_stats_shape_and_key_order(self, server):
        server.batch_lookup([0, 1], [5, 6])
        stats = server.stats()
        assert list(stats) == sorted(stats)
        assert stats["errors"] == {}
        assert stats["queries"] == 1
        assert stats["routes_served"] == 2
        assert stats["uptime_s"] >= 0.0

    def test_errors_tallied_per_op(self, server):
        handle_request(server, {"op": "warp"})
        handle_request(server, {"op": "lookup", "src": 0})
        handle_request(server, {"op": "lookup", "src": 0, "dst": 0})
        handle_request(server, ["not", "an", "object"])
        errors = server.stats()["errors"]
        assert errors == {"lookup": 2, "unknown": 2}

    def test_decode_errors_show_up_in_stats(self, server):
        from repro.serve import decode_error_response

        try:
            json.loads("{nope")
        except json.JSONDecodeError as exc:
            response = decode_error_response(server, exc)
        assert not response["ok"] and "bad JSON" in response["error"]
        assert server.stats()["errors"] == {"decode": 1}

    def test_metrics_op_snapshot(self, server):
        handle_request(server, {"op": "lookup", "src": 0, "dst": 9})
        response = handle_request(server, {"op": "metrics"})
        assert response["ok"]
        metrics = response["metrics"]
        assert metrics["serve.queries"]["value"] == 1
        assert metrics["serve.routes_served"]["value"] == 1
        lat = metrics["serve.latency_s{op=lookup}"]
        assert lat["kind"] == "histogram" and lat["count"] == 1

    def test_metrics_op_prometheus_text(self, server):
        handle_request(server, {"op": "ping"})
        response = handle_request(server, {"op": "metrics", "format": "prometheus"})
        assert response["ok"]
        assert "# TYPE serve_queries counter" in response["text"]
        assert 'serve_latency_s{op="ping",quantile="0.5"}' in response["text"]

    def test_registries_are_per_server(self, tmp_path, server):
        other = RouteServer.from_store(TOPO, "d-mod-k", store=tmp_path / "store")
        server.batch_lookup([0], [9])
        assert other.stats()["queries"] == 0

    def test_latency_observed_for_every_op(self, server):
        for op in ("ping", "info", "stats", "metrics", "warp"):
            handle_request(server, {"op": op})
        snap = server.metrics.snapshot(prefix="serve.latency_s")
        assert "serve.latency_s{op=ping}" in snap
        assert "serve.latency_s{op=unknown}" in snap
        assert snap["serve.latency_s{op=stats}"]["count"] == 1


class TestAsyncEndpoint:
    def test_tcp_round_trip_matches_direct(self, server):
        topo = resolve_topology(TOPO)
        table = make_algorithm("d-mod-k", topo).all_pairs_table()
        idx = np.random.default_rng(7).integers(0, len(table), size=50)
        srcs, dsts = table.src[idx].tolist(), table.dst[idx].tolist()

        async def roundtrip():
            loop = asyncio.get_running_loop()
            ready: asyncio.Future = loop.create_future()
            task = asyncio.ensure_future(serve_forever(server, port=0, ready=ready))
            try:
                host, port = await ready
                reader, writer = await asyncio.open_connection(
                    host, port, limit=STREAM_LIMIT
                )
                writer.write(
                    json.dumps({"op": "batch", "src": srcs, "dst": dsts}).encode() + b"\n"
                )
                writer.write(b"this is not json\n")
                writer.write(json.dumps({"op": "stats"}).encode() + b"\n")
                await writer.drain()
                batch = json.loads(await reader.readline())
                bad = json.loads(await reader.readline())
                stats = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return batch, bad, stats
            finally:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass

        batch, bad, stats = asyncio.run(roundtrip())
        assert batch["ok"]
        assert np.array_equal(np.asarray(batch["ports"]), table.ports[idx])
        # a malformed line answers an error and keeps the connection alive
        assert not bad["ok"] and "bad JSON" in bad["error"]
        assert stats["ok"]

