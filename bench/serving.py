"""serve: the build-once store behind the JSON-lines TCP endpoint.

Set-up is a cold ``repro serve --listen 127.0.0.1:0`` on a fresh store:
the server builds, encodes, stores and reopens the d-mod-k table of
``XGFT(2;32,64;1,16)`` before it reports listening, and ``setup_s`` is
the median of three such starts (the last server stays up).  Then one
client on one TCP connection runs a closed loop — each request is sent
when the previous answer has arrived — over a pool of pre-generated
1024-pair ``batch`` requests for ``--seconds``, after a warm-up.  Every
fifth request carries a what-if fault spec, so plain reads run beside
copy-on-write repairs.

Every response is checked after the loop: plain lookups against the
scheme's ``all_pairs_table()``, what-if answers against
``repair_table`` on the same degraded fabric.  A repeated request must
get a byte-identical answer.

A traced run also times the store layer in-process (build, encode,
put, open) and replays the loop's request lines in-process through the
server's per-line path (``json.loads`` → ``handle_request`` →
``json.dumps``), once untraced and once traced; transport is what the
TCP loop took beyond that server-side work.
"""

from __future__ import annotations

import json
import shutil
import socket
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.factory import make_algorithm
from repro.core.route import RouteTable
from repro.faults import (
    PAIR_DISCONNECTED,
    PAIR_INTACT,
    PAIR_REPAIRED,
    DegradedTopology,
    parse_fault_spec,
    repair_table,
)
from repro.obs.trace import TRACER
from repro.serve import RouteServer, handle_request
from repro.store import ArtifactStore, StoreKey
from repro.topology.registry import resolve_topology

from .harness import (
    OUT_DIR,
    SETUP_REPEATS,
    Outcome,
    expected_for,
    proc_peak_rss_mb,
    read_line,
    spawn,
    stop,
    timed_call,
)
from .layers import Tracing

NAME = "serve"
ALGORITHM = "d-mod-k"
FAULTS = "links:count=16,seed=1"
#: every WHATIF_EVERY-th request of the pool is a what-if query (20%)
WHATIF_EVERY = 5

#: topology and request mix per size: distinct requests in the pool,
#: pairs per request, and warm-up requests before the timed loop
SIZES = {
    "full": {"topology": "XGFT(2;32,64;1,16)", "pool": 2000, "batch": 1024, "warmup": 50},
    "tiny": {"topology": "XGFT(2;8,16;1,4)", "pool": 40, "batch": 64, "warmup": 5},
}


def is_whatif(k: int) -> bool:
    return k % WHATIF_EVERY == WHATIF_EVERY - 1


@dataclass
class Pool:
    """The pre-generated requests: pair arrays and their encoded lines."""

    src: np.ndarray
    dst: np.ndarray
    lines: list[bytes]


def make_pool(seed: int, size: str) -> Pool:
    cfg = SIZES[size]
    n = resolve_topology(cfg["topology"]).num_leaves
    rng = np.random.default_rng(seed)
    shape = (cfg["pool"], cfg["batch"])
    src = rng.integers(0, n, shape)
    dst = (src + rng.integers(1, n, shape)) % n  # never a self-pair
    lines = []
    for k in range(cfg["pool"]):
        request = {"op": "batch", "src": src[k].tolist(), "dst": dst[k].tolist()}
        if is_whatif(k):
            request["faults"] = FAULTS
        lines.append(json.dumps(request).encode() + b"\n")
    return Pool(src, dst, lines)


class Server:
    """A cold ``repro serve --listen`` child on a fresh store."""

    def __init__(self, topology: str):
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.store = Path(tempfile.mkdtemp(prefix="serve-store-", dir=OUT_DIR))
        t0 = time.perf_counter()
        self.proc = spawn([
            sys.executable, "-m", "repro.cli", "serve",
            "--listen", "127.0.0.1:0",
            "--store", str(self.store),
            "--topology", topology,
            "--algorithm", ALGORITHM,
        ])
        try:
            line = read_line(self.proc, lambda text: text.startswith("serving "))
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0
        host, port = line.rsplit(" at ", 1)[1].rsplit(":", 1)
        self.address = (host, int(port))

    def close(self) -> None:
        stop(self.proc)
        shutil.rmtree(self.store, ignore_errors=True)


class Session:
    """One client connection and every answer it received.

    The first answer to each pool entry is kept for the checks after
    the loop; a repeat must be byte-identical to it.
    """

    def __init__(self, pool: Pool, address: tuple[str, int]):
        self.pool = pool
        size = len(pool.lines)
        self.first: list[bytes | None] = [None] * size
        self.sent = [0] * size
        self.differ = [0] * size
        self.sock = socket.create_connection(address, timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def send(self, k: int) -> float:
        """One round trip for pool entry ``k``; returns its latency."""
        t0 = time.perf_counter()
        self.sock.sendall(self.pool.lines[k])
        response = self.rfile.readline()
        dt = time.perf_counter() - t0
        if not response:
            raise RuntimeError("the server closed the connection")
        if self.first[k] is None:
            self.first[k] = response
        elif response != self.first[k]:
            self.differ[k] += 1
        self.sent[k] += 1
        return dt

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


@dataclass
class Loop:
    """The timed closed loop's measurements."""

    wall_s: float
    requests: int
    plain_s: list[float]
    whatif_s: list[float]


def closed_loop(session: Session, warmup: int, seconds: float) -> Loop:
    size = len(session.pool.lines)
    for k in range(warmup):
        session.send(k % size)
    plain: list[float] = []
    whatif: list[float] = []
    i = warmup
    start = time.perf_counter()
    while True:
        k = i % size
        dt = session.send(k)
        (whatif if is_whatif(k) else plain).append(dt)
        i += 1
        if time.perf_counter() - start >= seconds:
            return Loop(time.perf_counter() - start, i - warmup, plain, whatif)


def build_table(topology: str) -> RouteTable:
    """The scheme's all-pairs table: the reference every answer is checked against."""
    return make_algorithm(ALGORITHM, resolve_topology(topology)).all_pairs_table()


def expected_answer(full: RouteTable, degraded: DegradedTopology, pool: Pool, k: int):
    """``(nca_level, ports, status)`` a correct server returns for entry ``k``."""
    sub = full.batch_lookup(pool.src[k], pool.dst[k])
    if not is_whatif(k):
        return sub.nca_level, sub.ports, np.full(len(sub), PAIR_INTACT)
    repaired = repair_table(sub, degraded, seed=0)
    ports = sub.ports.copy()
    ports[~repaired.disconnected] = repaired.table.ports
    ports[repaired.disconnected] = 0
    status = np.where(
        repaired.disconnected,
        PAIR_DISCONNECTED,
        np.where(repaired.repaired, PAIR_REPAIRED, PAIR_INTACT),
    )
    return sub.nca_level, ports, status


def fabric(topo) -> DegradedTopology:
    """The degraded fabric every what-if request names."""
    return DegradedTopology(topo, parse_fault_spec(FAULTS).realize(topo))


def whatif_outcome(full: RouteTable, pool: Pool) -> dict:
    """Pairs the pool's what-if requests see repaired and disconnected."""
    degraded = fabric(full.topo)
    counts = {"repaired": 0, "disconnected": 0}
    for k in range(len(pool.lines)):
        if is_whatif(k):
            status = expected_answer(full, degraded, pool, k)[2]
            counts["repaired"] += int((status == PAIR_REPAIRED).sum())
            counts["disconnected"] += int((status == PAIR_DISCONNECTED).sum())
    return counts


def check(outcome: Outcome, session: Session, full: RouteTable, expected: dict | None) -> None:
    """Every response against the reference; the pool's what-if
    outcome against the committed counts when the seed has them."""
    degraded = fabric(full.topo)
    outcome.attempted += sum(session.sent)
    for k, response in enumerate(session.first):
        if response is None:
            continue
        if session.differ[k]:
            outcome.fail(session.differ[k], f"request {k}: repeated answers differ")
        nca, ports, status = expected_answer(full, degraded, session.pool, k)
        try:
            doc = json.loads(response)
        except ValueError:
            doc = {"error": "not JSON"}
        ok = (
            doc.get("ok") is True
            and doc.get("count") == len(nca)
            and np.array_equal(doc.get("nca_level"), nca)
            and np.array_equal(doc.get("ports"), ports)
            and np.array_equal(doc.get("status"), status)
        )
        if not ok:
            outcome.fail(
                session.sent[k] - session.differ[k],
                f"request {k}: wrong answer ({doc.get('error', 'routes differ')})",
            )
    if expected is not None:
        counts = whatif_outcome(full, session.pool)
        if counts != expected:
            outcome.fail(
                outcome.attempted - outcome.failed,
                f"what-if outcome {counts} != expected {expected}",
            )


def store_layer(topology: str, root: Path) -> tuple[RouteTable, RouteServer, int]:
    """Build, encode, put and open one entry in-process, each in a span.

    Returns the built table, a server over the opened entry and the
    entry's size in bytes.
    """
    with TRACER.span("store.build"):
        table = build_table(topology)
    with TRACER.span("store.encode"):
        compact = table.to_compact()
    store = ArtifactStore(root)
    key = StoreKey.make(topology, ALGORITHM, 0)
    with TRACER.span("store.put"):
        store.put(key, compact)
    with TRACER.span("store.open"):
        opened = store.open(key)
    entry_bytes = sum(f.stat().st_size for f in store.entry_dir(key).iterdir())
    return table, RouteServer(opened, key=key), entry_bytes


def replay(server: RouteServer, lines: list[bytes], traced: bool = False) -> list[bytes]:
    """The server's per-line path, in-process: decode, dispatch, encode."""
    out = []
    for line in lines:
        with TRACER.span("serve.decode") if traced else nullcontext():
            request = json.loads(line)
        with TRACER.span("serve.handle") if traced else nullcontext():
            response = handle_request(server, request)
        with TRACER.span("serve.encode") if traced else nullcontext():
            out.append(json.dumps(response).encode() + b"\n")
    return out


def serve_and_load(topology: str, pool: Pool, warmup: int, seconds: float,
                   starts: int) -> tuple[Session, Loop, list[float], float]:
    """Start ``starts`` cold servers (keeping the last), run the closed
    loop against it and stop it.

    Returns the session, the loop, every start's set-up time and the
    server's peak resident set.
    """
    server = None
    setups = []
    try:
        for _ in range(starts):
            if server is not None:
                server.close()
            server = Server(topology)
            setups.append(server.setup_s)
        session = Session(pool, server.address)
        try:
            loop = closed_loop(session, warmup, seconds)
        finally:
            session.close()
        return session, loop, setups, proc_peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.close()


def run(seed: int, seconds: float, size: str, tracing: Tracing | None,
        expected: dict) -> Outcome:
    cfg = SIZES[size]
    topology = cfg["topology"]
    want = expected_for(expected, NAME, size, seed)
    outcome = Outcome()
    pool = make_pool(seed, size)
    if tracing is None:
        session, loop, setups, peak_rss_mb = serve_and_load(
            topology, pool, cfg["warmup"], seconds, SETUP_REPEATS
        )
        check(outcome, session, build_table(topology), want)
        outcome.metrics["setup_s"] = statistics.median(setups)
        outcome.metrics["work_per_s"] = loop.requests * cfg["batch"] / loop.wall_s
        outcome.metrics["peak_rss_mb"] = peak_rss_mb
        return outcome

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="store-layer-", dir=OUT_DIR))
    try:
        with tracing.setup():
            full, in_process, entry_bytes = store_layer(topology, scratch)
        session, loop, _, _ = serve_and_load(topology, pool, cfg["warmup"], seconds, 1)
        check(outcome, session, full, want)
        answered = [first for first in session.first if first is not None]
        lines = [line for line, first in zip(pool.lines, session.first) if first is not None]
        answers, untraced_s = timed_call(lambda: replay(in_process, lines))
        with tracing.timed():
            _, traced_s = timed_call(lambda: replay(in_process, lines, traced=True))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    differ = sum(a != b for a, b in zip(answers, answered))
    if differ:
        outcome.fail(differ, f"{differ} in-process answers differ from the TCP answers")
    whatif_p50_s = float(np.quantile(loop.whatif_s, 0.5)) if loop.whatif_s else 0.0
    outcome.layers = tracing.layers(untraced_s, traced_s)
    outcome.layers.update({
        "store.entry_bytes": entry_bytes,
        # the TCP loop's time for as many requests as were replayed,
        # minus the server-side work those requests cost in-process
        "serve.transport_s": loop.wall_s * len(lines) / loop.requests - untraced_s,
        "serve.batch_p50_ms": float(np.quantile(loop.plain_s, 0.5)) * 1e3,
        "serve.batch_p99_ms": float(np.quantile(loop.plain_s, 0.99)) * 1e3,
        "serve.whatif_p50_ms": whatif_p50_s * 1e3,
    })
    return outcome
