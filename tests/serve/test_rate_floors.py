"""Lookup-rate floors of the route server on the paper's 256-leaf tree.

The floors sit two orders of magnitude below what the server does on a
2-vCPU VM, so they catch an order-of-magnitude regression on the lookup
path (a per-pair Python loop, a full-table decode per request), not
scheduler noise: in process, a 65,536-pair ``batch_lookup`` (best of
3); over TCP, 8 JSON-lines batches of 4,096 pairs on one connection,
whose answers must also match the in-process ones.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np
import pytest

from repro.core.factory import make_algorithm
from repro.serve import RouteServer, serve_forever
from repro.serve.server import STREAM_LIMIT
from repro.topology.registry import resolve_topology

TOPOLOGY = "XGFT(2;16,16;1,8)"
BATCH_PAIRS = 65536
BATCH_REPEATS = 3
MIN_BATCH_LOOKUPS_PER_S = 200_000
TCP_BATCHES = 8
TCP_BATCH_PAIRS = 4096
MIN_TCP_LOOKUPS_PER_S = 1_000


@pytest.fixture(scope="module", params=["d-mod-k", "random"])
def server(request) -> RouteServer:
    topo = resolve_topology(TOPOLOGY)
    return RouteServer(make_algorithm(request.param, topo, seed=0).all_pairs_table())


@pytest.fixture(scope="module")
def queries() -> tuple[np.ndarray, np.ndarray]:
    """Random ordered pairs with ``src != dst``."""
    n = resolve_topology(TOPOLOGY).num_leaves
    rng = np.random.default_rng(0xBE7C)
    srcs = rng.integers(0, n, size=BATCH_PAIRS, dtype=np.int64)
    dsts = rng.integers(0, n - 1, size=BATCH_PAIRS, dtype=np.int64)
    dsts += dsts >= srcs
    return srcs, dsts


def test_in_process_batch_rate(server, queries):
    srcs, dsts = queries
    best = 0.0
    for _ in range(BATCH_REPEATS):
        t0 = time.perf_counter()
        server.batch_lookup(srcs, dsts)
        best = max(best, len(srcs) / max(time.perf_counter() - t0, 1e-9))
    assert best >= MIN_BATCH_LOOKUPS_PER_S, f"{best:,.0f} lookups/s"


def test_tcp_batch_rate(server, queries):
    srcs, dsts = queries
    lines = [
        json.dumps(
            {
                "op": "batch",
                "src": srcs[b * TCP_BATCH_PAIRS : (b + 1) * TCP_BATCH_PAIRS].tolist(),
                "dst": dsts[b * TCP_BATCH_PAIRS : (b + 1) * TCP_BATCH_PAIRS].tolist(),
            }
        ).encode()
        + b"\n"
        for b in range(TCP_BATCHES)
    ]

    async def closed_loop() -> tuple[list[dict], float]:
        loop = asyncio.get_running_loop()
        ready: asyncio.Future = loop.create_future()
        task = asyncio.ensure_future(serve_forever(server, port=0, ready=ready))
        try:
            host, port = await ready
            reader, writer = await asyncio.open_connection(host, port, limit=STREAM_LIMIT)
            answers = []
            t0 = time.perf_counter()
            for line in lines:
                writer.write(line)
                await writer.drain()
                answers.append(json.loads(await reader.readline()))
            elapsed = time.perf_counter() - t0
            writer.close()
            await writer.wait_closed()
            return answers, elapsed
        finally:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    answers, elapsed = asyncio.run(closed_loop())
    count = TCP_BATCHES * TCP_BATCH_PAIRS
    assert sum(answer["count"] for answer in answers if answer["ok"]) == count
    rate = count / max(elapsed, 1e-9)
    assert rate >= MIN_TCP_LOOKUPS_PER_S, f"{rate:,.0f} lookups/s"
    nca, ports, _ = server.batch_lookup(srcs[:count], dsts[:count])
    assert np.array_equal(np.concatenate([a["nca_level"] for a in answers]), nca)
    assert np.array_equal(np.concatenate([a["ports"] for a in answers]), ports)
