"""The classic Dimemas parametric bus network model.

Dimemas' native network abstraction (paper ref. [19]): each node has one
input and one output port; the machine has ``B`` shared buses (``B =
None`` means unlimited).  A transfer needs its sender's output port, its
receiver's input port and one bus for its whole duration, which is
``latency + size / bandwidth``.  Contended resources are granted in
strict FIFO request order.

The replay engine accepts this model through the same
:class:`~repro.dimemas.replay.TransferNetwork` interface as the fluid
XGFT model, so the same trace can be replayed under either network
abstraction — that is exactly the Dimemas/Venus split of the paper's
toolchain.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..sim.config import NetworkConfig, PAPER_CONFIG
from .replay import TransferNetwork

__all__ = ["BusTransferNetwork"]

_EPS = 1e-12


@dataclass
class _PendingTransfer:
    tid: int
    src: int
    dst: int
    size: int
    arrival_seq: int
    finish: float | None = None  # None while queued


class BusTransferNetwork(TransferNetwork):
    """FIFO bus-model network (Dimemas semantics).

    Parameters
    ----------
    num_nodes:
        Number of endpoints.
    config:
        Bandwidth is taken from ``config.link_bandwidth``.
    buses:
        Number of concurrent transfers the backplane supports
        (``None`` = unlimited, Dimemas' default "ideal" setting).
    latency:
        Per-transfer startup latency in seconds.
    """

    def __init__(
        self,
        num_nodes: int,
        config: NetworkConfig = PAPER_CONFIG,
        buses: int | None = None,
        latency: float = 0.0,
    ):
        if num_nodes <= 0:
            raise ValueError("need at least one node")
        if buses is not None and buses < 1:
            raise ValueError("need at least one bus (or None for unlimited)")
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.num_nodes = num_nodes
        self.config = config
        self.buses = buses
        self.latency = latency
        self._now = 0.0
        self._seq = 0
        self._queue: deque[_PendingTransfer] = deque()
        self._active: dict[int, _PendingTransfer] = {}
        self._out_busy: set[int] = set()
        self._in_busy: set[int] = set()

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    def start_transfer(self, transfer_id: int, src: int, dst: int, size: int) -> None:
        if not (0 <= src < self.num_nodes and 0 <= dst < self.num_nodes):
            raise ValueError(f"endpoints ({src}, {dst}) out of range")
        tr = _PendingTransfer(transfer_id, src, dst, size, self._seq)
        self._seq += 1
        self._queue.append(tr)
        self._dispatch()

    def _dispatch(self) -> None:
        """Grant resources to queued transfers in FIFO order.

        FIFO is strict: a blocked head does not let later transfers jump
        the queue for the same resources (Dimemas' in-order port grant).
        """
        progressed = True
        while progressed:
            progressed = False
            blocked_out: set[int] = set()
            blocked_in: set[int] = set()
            remaining: deque[_PendingTransfer] = deque()
            for tr in self._queue:
                bus_free = self.buses is None or len(self._active) < self.buses
                can_go = (
                    bus_free
                    and tr.src not in self._out_busy
                    and tr.src not in blocked_out
                    and tr.dst not in self._in_busy
                    and tr.dst not in blocked_in
                )
                if can_go:
                    tr.finish = (
                        self._now + self.latency + tr.size / self.config.link_bandwidth
                    )
                    self._active[tr.tid] = tr
                    self._out_busy.add(tr.src)
                    self._in_busy.add(tr.dst)
                    progressed = True
                else:
                    # the ports this transfer is waiting for are reserved
                    # for it: later arrivals must not overtake (FIFO)
                    blocked_out.add(tr.src)
                    blocked_in.add(tr.dst)
                    remaining.append(tr)
            self._queue = remaining

    def next_completion_time(self) -> float | None:
        if not self._active:
            return None
        return min(tr.finish for tr in self._active.values())  # type: ignore[arg-type]

    def advance_to(self, t: float) -> list[int]:
        if t < self._now - _EPS:
            raise ValueError(f"cannot rewind time: {t} < {self._now}")
        nc = self.next_completion_time()
        if nc is not None and t > nc + _EPS:
            raise ValueError(f"advance_to({t}) would skip a completion at {nc}")
        self._now = max(self._now, t)
        finished = [
            tid
            for tid, tr in self._active.items()
            if tr.finish is not None and tr.finish <= self._now + _EPS
        ]
        for tid in sorted(finished):
            tr = self._active.pop(tid)
            self._out_busy.discard(tr.src)
            self._in_busy.discard(tr.dst)
        if finished:
            self._dispatch()
        return sorted(finished)
