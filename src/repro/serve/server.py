"""The route-serving query layer.

:class:`RouteServer` answers route queries from one stored (or
in-memory) compact table:

* **vectorized batch lookups** — gathers straight from the compact
  columns (mmap-friendly: a store-backed server never materializes the
  full table on the lookup path);
* **what-if fault repair** — a query may carry a fault spec; the server
  realizes the degraded fabric (cached per canonical spec, at most
  :data:`WHAT_IF_CACHE_SIZE` of them), repairs
  exactly the queried routes copy-on-write via
  :func:`repro.faults.repair.repair_pairs`, and reports per-pair
  status — the stored artifact is never mutated;
* **LFT export** — re-derives per-switch forwarding tables from the
  stored routes for destination-deterministic schemes.

Two transports share one dispatcher (:func:`handle_request`):

* ``repro serve --batch`` — JSON-lines requests from a file/stdin,
  responses on stdout (used by the CI smoke job);
* ``repro serve --listen`` — an asyncio TCP endpoint speaking the same
  JSON-lines protocol, one request object per line, one response line
  per request (documented in ``docs/serving.md``).
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..core.base import leaf_ids
from ..obs import active as _obs_active
from ..obs.logs import get_logger
from ..obs.metrics import MetricsRegistry
from ..obs.trace import TRACER
from ..store import ArtifactStore, CompactRouteTable, StoreKey, open_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.forwarding import ForwardingTables
    from ..core.route import RouteTable
    from ..faults import DegradedTopology

__all__ = [
    "WHAT_IF_CACHE_SIZE",
    "RouteServer",
    "answer_line",
    "decode_error_response",
    "handle_request",
    "serve_forever",
]

_log = get_logger(__name__)

#: the protocol ops the dispatcher understands
PROTOCOL_OPS = ("ping", "info", "stats", "metrics", "lookup", "batch")

#: JSON-lines reader buffer limit — a 64k-pair batch request is ~1 MB of
#: JSON, so the asyncio default of 64 KiB would reject real batches.  A
#: longer line is answered with an in-band error and skipped.
STREAM_LIMIT = 16 * 1024 * 1024

#: what-if fabrics one server keeps, least recently used first out
WHAT_IF_CACHE_SIZE = 64


class RouteServer:
    """Batch/async query API over one compact route table.

    Build one directly from a table, or with :meth:`from_store` (the
    common path: opens the artifact mmap-backed, building it on a miss).
    Lookups only gather.  Two caches are built lazily: the what-if
    fabrics, bounded at :data:`WHAT_IF_CACHE_SIZE` and evicted least
    recently used first, and the decoded table, kept only by
    :meth:`export_lfts`.
    """

    def __init__(
        self,
        table: "CompactRouteTable | RouteTable",
        key: StoreKey | None = None,
    ):
        if not isinstance(table, CompactRouteTable):
            table = table.to_compact()
        self.table = table
        self.key = key
        self._degraded: OrderedDict[str, "DegradedTopology"] = OrderedDict()
        self._decoded: "RouteTable | None" = None
        self._started = time.monotonic()
        self._obs_on = _obs_active()
        #: per-server instrument registry — the ``stats`` dict and the
        #: ``metrics`` protocol op are both views over it
        self.metrics = MetricsRegistry()
        self._c_queries = self.metrics.counter("serve.queries")
        self._c_routes = self.metrics.counter("serve.routes_served")
        self._c_what_if = self.metrics.counter("serve.what_if_routes")

    @classmethod
    def from_store(
        cls,
        topology,
        algorithm: str,
        seed: int = 0,
        faults: str = "none",
        store: ArtifactStore | str | Path | None = None,
        build: bool = True,
    ) -> "RouteServer":
        """Serve a store entry (mmap-backed), building it on a miss."""
        key = StoreKey.make(topology, algorithm, seed, faults)
        table = open_table(
            key.topology, key.algorithm, key.seed, key.faults, store=store, build=build
        )
        return cls(table, key=key)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def batch_lookup(
        self,
        srcs,
        dsts,
        faults: str | None = None,
        repair_seed: int = 0,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized lookup: ``(nca (B,), ports (B, h), status (B,))``.

        Endpoints are flat batches of integer leaf ids
        (:func:`repro.core.base.leaf_ids`): a float, bool or string
        endpoint raises ``ValueError`` instead of being truncated.
        Without ``faults``, status is all :data:`~repro.faults.PAIR_INTACT`.
        With a fault spec, routes broken on the degraded fabric are
        repaired (or marked disconnected) exactly as a persisted
        repaired table would hold them — the served artifact itself is
        untouched.
        """
        srcs = leaf_ids(srcs)
        dsts = leaf_ids(dsts)
        nca, ports = self.table.batch_lookup(srcs, dsts)
        self._c_queries.inc()
        self._c_routes.inc(len(srcs))
        if faults is None:
            return nca, ports, np.zeros(len(srcs), dtype=np.int64)
        from ..faults import repair_pairs

        ports, status = repair_pairs(
            self._degraded_for(faults), srcs, dsts, nca, ports, seed=repair_seed
        )
        self._c_what_if.inc(len(srcs))
        return nca, ports, status

    def lookup(self, src: int, dst: int, faults: str | None = None):
        """One pair's route (what-if repaired when ``faults`` is given).

        Returns a :class:`~repro.core.route.Route`; raises
        :class:`~repro.faults.UnreachablePairError` if the what-if
        fabric disconnects the pair.
        """
        from ..core.route import Route
        from ..faults import PAIR_DISCONNECTED, UnreachablePairError

        nca, ports, status = self.batch_lookup([src], [dst], faults=faults)
        if status[0] == PAIR_DISCONNECTED:
            raise UnreachablePairError(
                int(src), int(dst), f"what-if faults {faults!r} disconnect the pair"
            )
        lvl = int(nca[0])
        return Route(int(src), int(dst), tuple(int(p) for p in ports[0, :lvl]))

    def _degraded_for(self, faults: str) -> "DegradedTopology":
        """The what-if fabric for a spec, cached per canonical form."""
        from ..faults import DegradedTopology, parse_fault_spec

        spec = parse_fault_spec(faults)
        canonical = spec.canonical()
        cached = self._degraded.get(canonical)
        if cached is not None:
            self._degraded.move_to_end(canonical)
            return cached
        table = None
        if spec.needs_traffic:
            # the decoded table dwarfs the compact one: decode it for
            # this realization only, unless LFT export already keeps it
            table = self._decoded if self._decoded is not None else self.table.to_table()
        cached = DegradedTopology(self.table.topo, spec.realize(self.table.topo, table=table))
        self._degraded[canonical] = cached
        if len(self._degraded) > WHAT_IF_CACHE_SIZE:
            self._degraded.popitem(last=False)
        return cached

    def export_lfts(self) -> "ForwardingTables":
        """Per-switch LFTs of the served routes (destination-deterministic only)."""
        from ..core.forwarding import forwarding_tables_from_table

        if self._decoded is None:
            self._decoded = self.table.to_table()
        return forwarding_tables_from_table(self._decoded)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def info(self) -> dict:
        """The served table's format descriptor plus its store key."""
        out = self.table.describe()
        if self.key is not None:
            out["key"] = self.key.to_dict()
        return out

    def record_error(self, op: str) -> None:
        """Tally one protocol error against an op (``decode`` for bad JSON)."""
        self.metrics.counter("serve.errors", {"op": str(op)}).inc()

    def observe_latency(self, op: str, seconds: float) -> None:
        """Feed one request's latency into the per-op histogram."""
        self.metrics.histogram("serve.latency_s", {"op": str(op)}).observe(seconds)

    def uptime_s(self) -> float:
        return time.monotonic() - self._started

    def stats(self) -> dict:
        """Lifetime counters, in deterministic (sorted) key order.

        ``errors`` maps op name → count and only lists ops that have
        failed at least once, so a clean run's stats diff stays stable.
        """
        errors = {
            inst.labels.get("op", "?"): int(inst.value)
            for inst in self.metrics.instruments()
            if inst.name == "serve.errors"
        }
        out = {
            "errors": dict(sorted(errors.items())),
            "queries": int(self._c_queries.value),
            "routes_served": int(self._c_routes.value),
            "uptime_s": round(self.uptime_s(), 6),
            "what_if_fabrics": len(self._degraded),
            "what_if_routes": int(self._c_what_if.value),
        }
        return {k: out[k] for k in sorted(out)}


# ----------------------------------------------------------------------
# Protocol: one dispatcher for the batch CLI and the TCP endpoint
# ----------------------------------------------------------------------
def handle_request(server: RouteServer, request: dict) -> dict:
    """Answer one protocol request object (see ``docs/serving.md``).

    Never raises — protocol errors come back as
    ``{"ok": false, "error": ...}`` so one malformed line cannot kill a
    connection that other clients' batches are multiplexed onto; an
    exception no check anticipated is logged and answered the same way,
    as an internal error.  Every request feeds the server's per-op
    latency histogram, and failures its per-op error counters (both
    visible via the ``metrics`` op).
    """
    op = request.get("op") if isinstance(request, dict) else None
    op_label = op if isinstance(op, str) and op in PROTOCOL_OPS else "unknown"
    t0 = time.perf_counter()
    try:
        if server._obs_on and TRACER.enabled:
            with TRACER.span("serve.request", op=op_label):
                response = _dispatch(server, request, op)
        else:
            response = _dispatch(server, request, op)
    except Exception as exc:  # a server bug must not drop the connection
        _log.exception("unhandled error answering a %r request", op_label)
        response = {"ok": False, "error": f"internal error: {type(exc).__name__}: {exc}"}
    server.observe_latency(op_label, time.perf_counter() - t0)
    if not response.get("ok"):
        server.record_error(op_label)
    return response


def answer_line(server: RouteServer, line: str | bytes) -> dict:
    """The response to one JSON-lines request line; never raises.

    The per-line path of both transports: a line that does not decode
    (bad JSON, invalid UTF-8, nesting past the recursion limit) gets
    :func:`decode_error_response`, anything else :func:`handle_request`.
    """
    try:
        request = json.loads(line)
    except (ValueError, RecursionError) as exc:
        return decode_error_response(server, exc)
    return handle_request(server, request)


def decode_error_response(server: RouteServer, exc: Exception) -> dict:
    """The error response for an undecodable request line, tallied.

    Both transports (batch CLI, TCP endpoint) route their JSON decode
    failures through here so malformed lines show up in
    ``stats()["errors"]["decode"]`` instead of vanishing into in-band
    error responses.
    """
    server.record_error("decode")
    return {"ok": False, "error": f"bad JSON: {exc}"}


def _dispatch(server: RouteServer, request, op) -> dict:
    try:
        if not isinstance(request, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "info":
            return {"ok": True, "op": "info", "info": server.info()}
        if op == "stats":
            return {"ok": True, "op": "stats", "stats": server.stats()}
        if op == "metrics":
            if request.get("format") == "prometheus":
                return {
                    "ok": True,
                    "op": "metrics",
                    "text": server.metrics.prometheus(),
                }
            return {"ok": True, "op": "metrics", "metrics": server.metrics.snapshot()}
        if op == "lookup":
            nca, ports, status = server.batch_lookup(
                [request["src"]],
                [request["dst"]],
                faults=request.get("faults"),
                repair_seed=_repair_seed(request),
            )
            lvl = int(nca[0])
            return {
                "ok": True,
                "op": "lookup",
                "nca_level": lvl,
                "up_ports": [int(p) for p in ports[0, :lvl]],
                "status": int(status[0]),
            }
        if op == "batch":
            nca, ports, status = server.batch_lookup(
                request["src"],
                request["dst"],
                faults=request.get("faults"),
                repair_seed=_repair_seed(request),
            )
            return {
                "ok": True,
                "op": "batch",
                "count": int(len(nca)),
                "nca_level": nca.tolist(),
                "ports": ports.tolist(),
                "status": status.tolist(),
            }
        return {"ok": False, "error": f"unknown op {op!r}"}
    except (KeyError, ValueError, TypeError) as exc:
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


def _repair_seed(request: dict) -> int:
    """The request's repair seed: an integer (a bool or float is refused)."""
    seed = request.get("repair_seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise TypeError(f"repair_seed must be an integer, got {type(seed).__name__}")
    return seed


async def _handle_connection(
    server: RouteServer, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    try:
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as exc:
                line = exc.partial  # EOF: an unterminated last line, or nothing
                if not line:
                    break
            except asyncio.LimitOverrunError as exc:
                server.record_error("decode")
                await _reply(
                    writer,
                    {"ok": False, "error": f"request line longer than {STREAM_LIMIT} bytes"},
                )
                if not await _skip_line(reader, exc.consumed):
                    break
                continue
            if line.strip():
                await _reply(writer, answer_line(server, line))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):  # pragma: no cover
            pass


async def _reply(writer: asyncio.StreamWriter, response: dict) -> None:
    writer.write(json.dumps(response).encode() + b"\n")
    await writer.drain()


async def _skip_line(reader: asyncio.StreamReader, consumed: int) -> bool:
    """Drop an oversize line through its newline; False at EOF.

    ``consumed`` is the overrun's count of buffered bytes known to hold
    no newline; dropping them and retrying walks the line in chunks of
    at most the stream limit.
    """
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return True
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed
        except asyncio.IncompleteReadError:
            return False


async def serve_forever(
    server: RouteServer,
    host: str = "127.0.0.1",
    port: int = 0,
    ready: "asyncio.Future | None" = None,
) -> None:
    """Run the JSON-lines TCP endpoint until cancelled.

    ``port=0`` binds an ephemeral port; ``ready`` (if given) receives
    the bound ``(host, port)`` once listening — the benchmark and the
    tests use it to connect without racing the bind.
    """
    tcp = await asyncio.start_server(
        lambda r, w: _handle_connection(server, r, w),
        host,
        port,
        limit=STREAM_LIMIT,
    )
    bound = tcp.sockets[0].getsockname()[:2]
    if ready is not None and not ready.done():
        ready.set_result(bound)
    async with tcp:
        await tcp.serve_forever()
