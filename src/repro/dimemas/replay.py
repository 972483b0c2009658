"""Trace-driven MPI replay coupled to a network model (Dimemas + Venus).

The paper co-simulates: Dimemas replays the MPI call sequence and asks
the network simulator for transfer times, which in turn depend on the
routes and on which transfers overlap.  This module is that coupling:

* each rank executes its :class:`~repro.dimemas.trace.Trace` program,
  blocking on MPI semantics (rendezvous sends, matching receives,
  waitall, barriers);
* point-to-point transfers are handed to a *transfer network* — any
  object implementing :class:`TransferNetwork` — which simulates them
  with whatever fidelity it provides: :class:`FluidTransferNetwork`
  (max-min fluid over an XGFT or the ideal crossbar, on the default
  fluid engine) or the classic Dimemas bus model in
  :mod:`repro.dimemas.busmodel`;
* an XGFT's routes are installed before any traffic runs, as on the
  paper's fabric: :func:`route_trace` routes the distinct leaf pairs of
  the trace in one :meth:`~repro.core.base.RoutingAlgorithm.build_table`
  call, and the network reads each transfer's links from that table;
* the replay clock and the network clock advance in lockstep; every
  rank due at the network's current instant steps before the network
  is asked for its next completion, so the engine refills its rates
  once per instant.

Message matching uses (src, dst, tag) FIFO order — the MPI
non-overtaking rule — and a transfer begins when *both* sides have
posted (rendezvous; appropriate for the paper's multi-hundred-KB
messages, which are far above any eager threshold).
"""

from __future__ import annotations

import heapq
import math
from abc import ABC, abstractmethod
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Sequence

from ..core.base import RoutingAlgorithm
from ..core.route import RouteTable
from ..sim.config import NetworkConfig, PAPER_CONFIG
from ..sim.engines import DEFAULT_ENGINE, make_fluid_simulator
from ..sim.network import LinkSpace, crossbar_link_space, flow_incidence, xgft_link_space
from ..topology import XGFT
from .trace import (
    Barrier,
    Compute,
    Irecv,
    Isend,
    Recv,
    Record,
    Send,
    SendRecv,
    Trace,
    WaitAll,
)

__all__ = [
    "TransferNetwork",
    "FluidTransferNetwork",
    "ReplayResult",
    "ReplayEngine",
    "route_trace",
    "replay_on_xgft",
    "replay_on_crossbar",
]

_EPS = 1e-12


class TransferNetwork(ABC):
    """Minimal interface the replay engine needs from a network model."""

    @property
    @abstractmethod
    def now(self) -> float:
        """Current simulated time of the network model."""

    @abstractmethod
    def start_transfer(self, transfer_id: int, src: int, dst: int, size: int) -> None:
        """Begin a transfer at the current time."""

    @abstractmethod
    def next_completion_time(self) -> float | None:
        """Absolute time of the next completion, or None when idle."""

    @abstractmethod
    def advance_to(self, t: float) -> list[int]:
        """Advance the clock to ``t`` (never past the next completion);
        return ids of transfers that completed exactly at ``t``."""

    def check_ranks(self, num_ranks: int) -> None:
        """Raise ``ValueError`` unless every rank of a ``num_ranks``-rank
        trace has an endpoint here; the replay asks before its first
        transfer (default: accept)."""


def _rank_leaves(
    num_ranks: int, num_leaves: int, mapping: Sequence[int] | None = None
) -> list[int]:
    """The leaf of each rank: ``mapping[rank]``, sequential by default.

    Raises ``ValueError`` naming the first rank that has no leaf or
    whose leaf lies outside ``[0, num_leaves)``.
    """
    leaves = range(num_leaves) if mapping is None else mapping
    if num_ranks > len(leaves):
        raise ValueError(
            f"rank {len(leaves)} has no leaf: {num_ranks} ranks, only {len(leaves)} placed"
        )
    for rank, leaf in enumerate(leaves[:num_ranks]):
        if not 0 <= leaf < num_leaves:
            raise ValueError(f"rank {rank} is mapped to leaf {leaf}, outside [0, {num_leaves})")
    return list(leaves[:num_ranks])


def route_trace(
    trace: Trace, algorithm: RoutingAlgorithm, mapping: Sequence[int] | None = None
) -> RouteTable:
    """The routes of the trace's distinct leaf pairs, in one batch.

    The pairs of its sends with rank ``r`` on leaf ``mapping[r]``
    (sequential by default), sorted, self-pairs dropped: for a pattern's
    trace, the pattern's sorted distinct pairs, which a pattern-aware
    scheme's ``prepare`` sees.
    """
    leaves = _rank_leaves(trace.num_ranks, algorithm.topo.num_leaves, mapping)
    pairs = {
        (leaves[rank], leaves[rec.peer if isinstance(rec, SendRecv) else rec.dst])
        for rank, rec in trace.records()
        if isinstance(rec, (Send, Isend, SendRecv))
    }
    return algorithm.build_table(sorted((s, d) for s, d in pairs if s != d))


def _pair_links(routes: RouteTable, space: LinkSpace) -> dict[tuple[int, int], list[int]]:
    """Each routed leaf pair's links, tree and adapters: one
    :func:`~repro.sim.network.flow_incidence` expansion of the table."""
    rows: list[list[int]] = [[] for _ in range(len(routes))]
    for flow, link in zip(*(a.tolist() for a in flow_incidence(routes, space))):
        rows[flow].append(link)
    return dict(zip(zip(routes.src.tolist(), routes.dst.tolist()), rows))


class FluidTransferNetwork(TransferNetwork):
    """Max-min fluid network for the replay engine, on the default engine.

    A transfer crosses the links ``routes`` holds for its leaf pair
    (tree links plus the ends' adapter links in ``space``); ``None`` is
    the ideal crossbar (adapters only), and so are two ranks on one
    leaf.  ``mapping[rank]`` places ranks on leaves (sequential
    default).  A zero-byte transfer completes at the instant it starts.
    """

    def __init__(
        self,
        space: LinkSpace,
        routes: RouteTable | None = None,
        config: NetworkConfig = PAPER_CONFIG,
        mapping: Sequence[int] | None = None,
    ):
        self.space = space
        self.sim = make_fluid_simulator(DEFAULT_ENGINE, space.num_links, config.link_bandwidth)
        self.mapping = list(mapping) if mapping is not None else list(range(space.num_leaves))
        self._links = None if routes is None else _pair_links(routes, space)
        # zero-byte transfers: the engines finish them inside add_flow
        # and never report them from advance_to
        self._instant: list[int] = []

    @property
    def now(self) -> float:
        return self.sim.now

    def check_ranks(self, num_ranks: int) -> None:
        _rank_leaves(num_ranks, self.space.num_leaves, self.mapping)

    def start_transfer(self, transfer_id: int, src: int, dst: int, size: int) -> None:
        s, d = self.mapping[src], self.mapping[dst]
        if self._links is None or s == d:
            links = [self.space.injection(s), self.space.ejection(d)]
        else:
            links = self._links[(s, d)]
        self.sim.add_flow(transfer_id, links, float(size))
        if size == 0:
            self._instant.append(transfer_id)

    def next_completion_time(self) -> float | None:
        return self.sim.now if self._instant else self.sim.next_completion_time()

    def advance_to(self, t: float) -> list[int]:
        done, self._instant = self._instant, []
        return done + [r.flow_id for r in self.sim.advance_to(t)]


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of a trace replay."""

    total_time: float
    rank_finish: tuple[float, ...]
    num_transfers: int


class _RankState:
    __slots__ = ("pc", "time", "blocked", "outstanding", "expanded")

    def __init__(self) -> None:
        self.pc = 0  # program counter into the trace program
        self.time = 0.0  # local clock
        self.blocked: str | None = None  # None / "waitall" / "barrier"
        self.outstanding: set[int] = set()  # pending op ids
        # Send/Recv/SendRecv are expanded into primitive ops lazily
        self.expanded: deque[Record] = deque()


class ReplayEngine:
    """Replays a trace over a transfer network (deterministic)."""

    def __init__(self, trace: Trace, network: TransferNetwork):
        network.check_ranks(trace.num_ranks)
        self.trace = trace
        self.network = network
        self._ranks = [_RankState() for _ in range(trace.num_ranks)]
        # rendezvous matching queues keyed by (src, dst, tag), FIFO
        self._pending_sends: defaultdict[tuple[int, int, int], deque] = defaultdict(deque)
        self._pending_recvs: defaultdict[tuple[int, int, int], deque] = defaultdict(deque)
        self._next_op = 0
        self._next_transfer = 0
        #: transfer id -> (send op, recv op, sender rank, receiver rank)
        self._transfers: dict[int, tuple[int, int, int, int]] = {}
        self._barrier_waiting: set[int] = set()
        self._ready: list[tuple[float, int]] = []

    # ------------------------------------------------------------------
    def run(self, max_iterations: int | None = None) -> ReplayResult:
        ready = self._ready
        for r in range(self.trace.num_ranks):
            heapq.heappush(ready, (0.0, r))
        net = self.network
        iterations = 0
        while True:
            iterations += 1
            if max_iterations is not None and iterations > max_iterations:
                raise RuntimeError("replay exceeded its iteration budget")
            t_rank = ready[0][0] if ready else math.inf
            # a rank due at the network's current instant steps before the
            # network is queried (no completion can come earlier), so the
            # instant's transfers all start before the engine's one lazy
            # refill
            t_net = net.now if t_rank <= net.now else net.next_completion_time()
            if t_net is None:
                if not ready:
                    break
                t_net = math.inf
            if t_net < t_rank - _EPS:
                for tid in net.advance_to(t_net):
                    self._complete_transfer(tid, t_net)
                continue
            t, rank = heapq.heappop(ready)
            # catch the network up to the rank event, absorbing any
            # completions that land exactly on the way
            for tid in net.advance_to(min(t, t_net)):
                self._complete_transfer(tid, net.now)
            self._step_rank(rank, t)

        times = tuple(float(st.time) for st in self._ranks)
        unfinished = [
            r
            for r, st in enumerate(self._ranks)
            if st.pc < len(self.trace.programs[r]) or st.expanded or st.blocked
        ]
        if unfinished:
            raise RuntimeError(
                f"replay deadlock: ranks {unfinished[:8]} did not finish "
                "(unmatched sends/recvs or a barrier mismatch in the trace?)"
            )
        return ReplayResult(max(times, default=0.0), times, self._next_transfer)

    def _wake(self, rank: int, t: float) -> None:
        heapq.heappush(self._ready, (t, rank))

    # ------------------------------------------------------------------
    def _step_rank(self, rank: int, t: float) -> None:
        """Run ``rank`` from time ``t`` until it blocks or finishes."""
        st = self._ranks[rank]
        st.time = max(st.time, t)
        prog = self.trace.programs[rank]
        while True:
            if st.expanded:
                rec = st.expanded.popleft()
            elif st.pc < len(prog):
                rec = prog[st.pc]
                st.pc += 1
            else:
                return  # program finished
            if isinstance(rec, Compute):
                st.time += rec.duration
                self._wake(rank, st.time)
                return
            if isinstance(rec, SendRecv):
                st.expanded.extend(
                    [Irecv(rec.peer, rec.tag), Isend(rec.peer, rec.size, rec.tag), WaitAll()]
                )
                continue
            if isinstance(rec, Send):
                st.expanded.extend([Isend(rec.dst, rec.size, rec.tag), WaitAll()])
                continue
            if isinstance(rec, Recv):
                st.expanded.extend([Irecv(rec.src, rec.tag), WaitAll()])
                continue
            if isinstance(rec, Isend):
                self._post_send(rank, rec)
                continue
            if isinstance(rec, Irecv):
                self._post_recv(rank, rec)
                continue
            if isinstance(rec, WaitAll):
                if st.outstanding:
                    st.blocked = "waitall"
                    return
                continue
            if isinstance(rec, Barrier):
                self._barrier_waiting.add(rank)
                if len(self._barrier_waiting) == self.trace.num_ranks:
                    release = max(
                        self._ranks[r].time for r in self._barrier_waiting
                    )
                    for r in sorted(self._barrier_waiting):
                        other = self._ranks[r]
                        other.blocked = None
                        other.time = max(other.time, release)
                        if r != rank:
                            self._wake(r, other.time)
                    self._barrier_waiting.clear()
                    st.time = max(st.time, release)
                    continue
                st.blocked = "barrier"
                return
            raise TypeError(f"unknown record {rec!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # Posting and matching
    # ------------------------------------------------------------------
    def _new_op(self, rank: int) -> int:
        op = self._next_op
        self._next_op += 1
        self._ranks[rank].outstanding.add(op)
        return op

    def _post_send(self, rank: int, rec: Isend) -> None:
        op = self._new_op(rank)
        key = (rank, rec.dst, rec.tag)
        recvs = self._pending_recvs[key]
        if recvs:
            recv_op, recv_rank = recvs.popleft()
            self._launch(op, recv_op, rank, recv_rank, rec.size)
        else:
            self._pending_sends[key].append((op, rank, rec.size))

    def _post_recv(self, rank: int, rec: Irecv) -> None:
        op = self._new_op(rank)
        key = (rec.src, rank, rec.tag)
        sends = self._pending_sends[key]
        if sends:
            send_op, send_rank, size = sends.popleft()
            self._launch(send_op, op, send_rank, rank, size)
        else:
            self._pending_recvs[key].append((op, rank))

    def _launch(self, send_op: int, recv_op: int, src: int, dst: int, size: int) -> None:
        tid = self._next_transfer
        self._next_transfer += 1
        self._transfers[tid] = (send_op, recv_op, src, dst)
        self.network.start_transfer(tid, src, dst, size)

    def _complete_transfer(self, tid: int, t: float) -> None:
        send_op, recv_op, src, dst = self._transfers.pop(tid)
        for rank, op in ((src, send_op), (dst, recv_op)):
            st = self._ranks[rank]
            st.outstanding.discard(op)
            if st.blocked == "waitall" and not st.outstanding:
                st.blocked = None
                st.time = max(st.time, t)
                self._wake(rank, st.time)


# ----------------------------------------------------------------------
# Convenience drivers
# ----------------------------------------------------------------------
def replay_on_xgft(
    trace: Trace,
    topo: XGFT,
    algorithm: RoutingAlgorithm,
    config: NetworkConfig = PAPER_CONFIG,
    mapping: Sequence[int] | None = None,
) -> ReplayResult:
    """Replay a trace on an XGFT with a given routing scheme.

    The scheme routes the trace's pairs once (:func:`route_trace`)
    before the replay starts.
    """
    routes = route_trace(trace, algorithm, mapping)
    network = FluidTransferNetwork(xgft_link_space(topo), routes, config, mapping)
    return ReplayEngine(trace, network).run()


def replay_on_crossbar(
    trace: Trace,
    num_leaves: int,
    config: NetworkConfig = PAPER_CONFIG,
    mapping: Sequence[int] | None = None,
) -> ReplayResult:
    """Replay a trace on the ideal Full-Crossbar reference."""
    network = FluidTransferNetwork(crossbar_link_space(num_leaves), None, config, mapping)
    return ReplayEngine(trace, network).run()
