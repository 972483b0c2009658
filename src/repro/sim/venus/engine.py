"""The flit-level, event-driven network engine (the "Venus" substitute).

Architecture (paper Sec. VI-B: input/output-buffered switches, credit
flow control, round-robin arbitration, round-robin message interleaving
at the adapters):

* Every directed inter-level link of the XGFT is a *channel* with a
  serialization server (one segment per ``segment_time``) and a
  credit-counted input buffer at its downstream end.
* A switch forwards by virtual cut-through at segment granularity: the
  head segment of each input buffer requests its output channel; each
  output channel arbitrates round-robin over the node's input buffers
  and transmits when it is idle *and* the downstream buffer has a free
  slot (credit).  Buffer slots are released when the segment departs the
  node, returning a credit upstream.
* A source adapter keeps one virtual queue per active message and feeds
  the host's up-channel round-robin across messages — the paper's
  "round-robin interleaving of messages at the network adapter".
* The destination adapter drains its down-channel at link rate; a
  message completes when its last segment arrives.

Because routes are up*/down*, the channel dependency graph is acyclic
and the credit scheme cannot deadlock; the engine enforces an event
budget as a defensive backstop regardless.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from ...core.base import RouteTable
from ...topology import XGFT
from ..config import NetworkConfig, PAPER_CONFIG
from ..events import EventQueue
from .messages import Message, Segment

__all__ = ["VenusSimulator", "VenusResult"]

_HOST_FEEDER_BASE = 1 << 40  # feeder ids for adapter message queues


@dataclass(frozen=True)
class VenusResult:
    """Timing of one flit-level phase simulation."""

    duration: float
    message_finish: dict[int, float]
    events_processed: int


class _Channel:
    """A directed link: serialization server + downstream credit pool."""

    __slots__ = (
        "index",
        "src_node",
        "dst_node",
        "busy",
        "credits",
        "rr_pos",
    )

    def __init__(
        self, index: int, src_node: tuple[int, int], dst_node: tuple[int, int], credits: int
    ):
        self.index = index
        self.src_node = src_node
        self.dst_node = dst_node
        self.busy = False
        self.credits = credits
        self.rr_pos = 0


class VenusSimulator:
    """Flit-level simulation of one XGFT under a fixed route table.

    The simulator is single-shot: construct, :meth:`inject` messages (at
    time 0 or later via ``start_time``), :meth:`run`.
    """

    def __init__(self, topo: XGFT, config: NetworkConfig = PAPER_CONFIG, degraded=None):
        if degraded is not None and degraded.topo != topo:
            raise ValueError("degraded topology does not match the simulated XGFT")
        self.topo = topo
        self.config = config
        self.degraded = degraded
        self.queue = EventQueue()
        self._channels: dict[int, _Channel] = {}
        #: node -> ordered feeder ids (input channels; host messages appended)
        self._feeders_of: dict[tuple[int, int], list[int]] = {}
        #: feeder id -> FIFO of segments waiting at that node
        self._fifo: dict[int, deque[Segment]] = {}
        #: feeder id -> channel that delivered those segments (for credit return)
        self._feeder_channel: dict[int, int] = {}
        self._messages: list[Message] = []
        self._pending_start: list[Message] = []
        self._build_fabric()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_fabric(self) -> None:
        """Instantiate channels; dead cables of a degraded topology are
        simply never built, so a route over one fails injection validation."""
        topo = self.topo
        for level in range(topo.h):
            for node in range(topo.num_nodes(level)):
                for port in range(topo.w[level]):
                    up = topo.up_link_index(level, node, port)
                    if self.degraded is not None and not self.degraded.cable_alive[up]:
                        continue
                    parent = topo.up_neighbor(level, node, port)
                    down = topo.down_link_index(level, node, port)
                    self._add_channel(up, (level, node), (level + 1, parent))
                    self._add_channel(down, (level + 1, parent), (level, node))

    def _add_channel(self, index: int, src: tuple[int, int], dst: tuple[int, int]) -> None:
        self._channels[index] = _Channel(index, src, dst, self.config.buffer_segments)
        self._feeders_of.setdefault(src, [])
        self._feeders_of.setdefault(dst, [])
        # every incoming channel is a feeder at its destination node
        self._feeders_of[dst].append(index)
        self._fifo[index] = deque()
        self._feeder_channel[index] = index

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    def inject_table(self, table: RouteTable, sizes: Sequence[int], start: float = 0.0) -> None:
        """Inject one message per route of ``table`` (sizes in bytes)."""
        if len(sizes) != len(table):
            raise ValueError("need one size per routed flow")
        for f in range(len(table)):
            route = table.route(f)
            self.inject(route.src, route.dst, int(sizes[f]), tuple(route.links(self.topo)), start)

    def inject(
        self, src: int, dst: int, size: int, channels: tuple[int, ...], start: float = 0.0
    ) -> Message:
        """Inject one message with an explicit channel route.

        The route is validated: consecutive channels must chain node to
        node, beginning at the source host and ending at the destination
        host (a truncated or disconnected route is a caller bug that
        would otherwise surface as a silently mis-delivered message).
        """
        self._validate_route(src, dst, channels)
        msg = Message(
            msg_id=len(self._messages),
            src=src,
            dst=dst,
            size=size,
            channels=channels,
            num_segments=self.config.segments_of(size),
            start_time=start,
        )
        self._messages.append(msg)
        self.queue.schedule(start, self._start_message, msg)
        return msg

    def _validate_route(self, src: int, dst: int, channels: tuple[int, ...]) -> None:
        if not channels:
            raise ValueError("a message route needs at least one channel")
        node = (0, src)
        for index in channels:
            ch = self._channels.get(index)
            if ch is None:
                raise ValueError(f"unknown channel {index} in route")
            if ch.src_node != node:
                raise ValueError(
                    f"disconnected route: channel {index} starts at {ch.src_node}, "
                    f"expected {node}"
                )
            node = ch.dst_node
        if node != (0, dst):
            raise ValueError(
                f"route for ({src} -> {dst}) terminates at {node}, not at the "
                "destination host"
            )

    def _start_message(self, msg: Message) -> None:
        """Open the message at the source adapter (a new feeder)."""
        feeder = _HOST_FEEDER_BASE + msg.msg_id
        fifo: deque[Segment] = deque(
            Segment(msg, i) for i in range(msg.num_segments)
        )
        msg.to_inject = 0  # all segments now sit in the adapter queue
        self._fifo[feeder] = fifo
        self._feeder_channel[feeder] = -1  # host queues hold no buffer credits
        host = (0, msg.src)
        self._feeders_of[host].append(feeder)
        self._try_start(msg.channels[0])

    # ------------------------------------------------------------------
    # Forwarding core
    # ------------------------------------------------------------------
    def _try_start(self, channel_index: int) -> None:
        """Attempt to begin a transmission on a channel (RR arbitration)."""
        ch = self._channels[channel_index]
        if ch.busy or ch.credits <= 0:
            return
        feeders = self._feeders_of[ch.src_node]
        n = len(feeders)
        if n == 0:
            return
        for probe in range(n):
            pos = (ch.rr_pos + probe) % n
            feeder = feeders[pos]
            fifo = self._fifo.get(feeder)
            if not fifo:
                continue
            seg = fifo[0]
            if seg.next_channel != channel_index:
                continue
            # transmit this segment
            ch.rr_pos = (pos + 1) % n
            fifo.popleft()
            if fifo:
                # the new head may want a *different*, currently idle
                # output (mixed-flow input buffer): re-arm that channel or
                # it would stall until an unrelated event pokes it
                nxt_head = fifo[0].next_channel
                if nxt_head is not None and nxt_head != channel_index:
                    self.queue.schedule(self.queue.now, self._try_start, nxt_head)
            delivered_by = self._feeder_channel[feeder]
            if delivered_by >= 0:
                # freeing a slot at this node returns a credit upstream
                self._channels[delivered_by].credits += 1
                self.queue.schedule(self.queue.now, self._try_start, delivered_by)
            elif not fifo:
                # exhausted host message queue: remove the feeder
                self._remove_host_feeder(ch.src_node, feeder)
            ch.busy = True
            ch.credits -= 1
            t_done = self.queue.now + self.config.segment_time
            self.queue.schedule(t_done, self._finish_transmission, ch, seg)
            return
        # no eligible feeder found: channel stays idle until a new head
        # segment or credit wakes it up again

    def _remove_host_feeder(self, node: tuple[int, int], feeder: int) -> None:
        self._feeders_of[node].remove(feeder)
        del self._fifo[feeder]
        del self._feeder_channel[feeder]

    def _finish_transmission(self, ch: _Channel, seg: Segment) -> None:
        """Serialization done: segment leaves the wire, channel frees."""
        ch.busy = False
        self.queue.schedule(
            self.queue.now + self.config.hop_latency, self._arrive, ch, seg
        )
        self._try_start(ch.index)

    def _arrive(self, ch: _Channel, seg: Segment) -> None:
        """Segment lands in the downstream node's input buffer."""
        seg.hop += 1
        nxt = seg.next_channel
        if nxt is None:
            # arrived at the destination host: consume
            ch.credits += 1
            self._try_start(ch.index)
            msg = seg.message
            msg.delivered += 1
            if msg.delivered == msg.num_segments:
                msg.finish_time = self.queue.now
            return
        self._fifo[ch.index].append(seg)
        self._try_start(nxt)

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self, max_events: int | None = None) -> VenusResult:
        """Drain the event queue; returns per-message completion times."""
        if max_events is None:
            total_seg_hops = sum(
                m.num_segments * len(m.channels) for m in self._messages
            )
            max_events = 60 * total_seg_hops + 10_000
        end = self.queue.run(max_events=max_events)
        unfinished = [m.msg_id for m in self._messages if not m.done]
        if unfinished:
            raise RuntimeError(
                f"messages {unfinished[:5]}... did not complete; "
                "possible routing/credit inconsistency"
            )
        return VenusResult(
            duration=end,
            message_finish={m.msg_id: float(m.finish_time) for m in self._messages},
            events_processed=self.queue.processed,
        )
