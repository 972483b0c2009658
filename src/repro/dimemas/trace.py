"""Trace records for the MPI replay engine (the Dimemas substitute).

The original toolchain replays post-mortem traces: "the trace contains
the MPI calls the application performed, which in turn include the
communication pattern as well as the causal relationships between
messages" (paper Sec. VI-B).  We reproduce that with a compact per-rank
program of records; the causal relationships are exactly the MPI
matching/blocking semantics the replay engine enforces.

A plain-text serialization is provided so traces can be inspected,
diffed and stored — one record per line::

    <rank> compute <seconds>
    <rank> send <dst> <bytes> <tag>
    <rank> recv <src> <tag>
    <rank> isend <dst> <bytes> <tag>
    <rank> irecv <src> <tag>
    <rank> waitall
    <rank> sendrecv <peer> <bytes> <tag>
    <rank> barrier

:meth:`Trace.to_text` opens with a ``# dimemas-lite trace, N ranks``
header, so ranks with no records survive the round trip.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

__all__ = [
    "Compute",
    "Send",
    "Recv",
    "Isend",
    "Irecv",
    "WaitAll",
    "SendRecv",
    "Barrier",
    "Record",
    "Trace",
    "MAX_RANKS",
]

#: the most ranks a trace text may declare or use.  Far above any
#: machine modelled here (the paper's 256 ranks, 2048-leaf workloads),
#: it keeps one hostile rank number from sizing a trace of billions
MAX_RANKS = 1 << 20

_HEADER = re.compile(r"#\s*dimemas-lite trace,\s*(\d+)\s+ranks\s*$")


def _check_amount(value: float, what: str) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{what} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class Compute:
    """Local computation for ``duration`` seconds."""

    duration: float

    def __post_init__(self):
        _check_amount(self.duration, "compute duration")


@dataclass(frozen=True)
class Send:
    """Blocking (rendezvous) send: returns when the transfer completes."""

    dst: int
    size: int
    tag: int = 0

    def __post_init__(self):
        _check_amount(self.size, "message size")


@dataclass(frozen=True)
class Recv:
    """Blocking receive: returns when the matching transfer completes."""

    src: int
    tag: int = 0


@dataclass(frozen=True)
class Isend:
    """Non-blocking send; completed by a later :class:`WaitAll`."""

    dst: int
    size: int
    tag: int = 0

    def __post_init__(self):
        _check_amount(self.size, "message size")


@dataclass(frozen=True)
class Irecv:
    """Non-blocking receive; completed by a later :class:`WaitAll`."""

    src: int
    tag: int = 0


@dataclass(frozen=True)
class WaitAll:
    """Block until every outstanding non-blocking operation of the rank
    has completed."""


@dataclass(frozen=True)
class SendRecv:
    """Simultaneous exchange with ``peer`` (both directions outstanding).

    Equivalent to ``Irecv(peer, tag); Isend(peer, size, tag); WaitAll()``
    — the idiom of the paper's pairwise-exchange phases.
    """

    peer: int
    size: int
    tag: int = 0

    def __post_init__(self):
        _check_amount(self.size, "message size")


@dataclass(frozen=True)
class Barrier:
    """Global synchronization across all ranks of the trace."""


Record = Union[Compute, Send, Recv, Isend, Irecv, WaitAll, SendRecv, Barrier]


def _peer_problem(rank: int, rec: Record, num_ranks: int) -> str | None:
    """Why ``rank``'s record ``rec`` names a bad peer, or ``None``."""
    for attr in ("dst", "src", "peer"):
        peer = getattr(rec, attr, None)
        if peer is not None and not 0 <= peer < num_ranks:
            return f"rank {rank}: record {rec} references rank {peer} outside [0, {num_ranks})"
        if peer == rank:
            return f"rank {rank}: self-communication in {rec}"
    return None


class Trace:
    """Per-rank programs plus the rank count."""

    def __init__(self, programs: Sequence[Sequence[Record]]):
        if not programs:
            raise ValueError("a trace needs at least one rank")
        self.programs: tuple[tuple[Record, ...], ...] = tuple(
            tuple(p) for p in programs
        )
        self.num_ranks = len(self.programs)
        self._validate()

    def _validate(self) -> None:
        for rank, prog in enumerate(self.programs):
            for rec in prog:
                problem = _peer_problem(rank, rec, self.num_ranks)
                if problem:
                    raise ValueError(problem)

    def __len__(self) -> int:
        return sum(len(p) for p in self.programs)

    def records(self) -> Iterator[tuple[int, Record]]:
        for rank, prog in enumerate(self.programs):
            for rec in prog:
                yield rank, rec

    # ------------------------------------------------------------------
    # Text round trip
    # ------------------------------------------------------------------
    def to_text(self) -> str:
        lines = [f"# dimemas-lite trace, {self.num_ranks} ranks"]
        for rank, rec in self.records():
            if isinstance(rec, Compute):
                lines.append(f"{rank} compute {rec.duration!r}")
            elif isinstance(rec, Send):
                lines.append(f"{rank} send {rec.dst} {rec.size} {rec.tag}")
            elif isinstance(rec, Recv):
                lines.append(f"{rank} recv {rec.src} {rec.tag}")
            elif isinstance(rec, Isend):
                lines.append(f"{rank} isend {rec.dst} {rec.size} {rec.tag}")
            elif isinstance(rec, Irecv):
                lines.append(f"{rank} irecv {rec.src} {rec.tag}")
            elif isinstance(rec, WaitAll):
                lines.append(f"{rank} waitall")
            elif isinstance(rec, SendRecv):
                lines.append(f"{rank} sendrecv {rec.peer} {rec.size} {rec.tag}")
            elif isinstance(rec, Barrier):
                lines.append(f"{rank} barrier")
            else:  # pragma: no cover - exhaustive
                raise TypeError(f"unknown record {rec!r}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Trace":
        """Parse :meth:`to_text` output; raises ``ValueError`` naming the line.

        The rank count is N from a ``# dimemas-lite trace, N ranks``
        header before the first record, else the largest rank + 1.  A
        record of a rank outside the count, or naming a peer outside it,
        and either count above :data:`MAX_RANKS`, is rejected.  Other
        ``#`` lines are comments.
        """
        parsed: list[tuple[int, int, Record]] = []
        declared: int | None = None
        max_rank = -1
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            header = _HEADER.match(line)
            if header:
                declared = int(header.group(1))
                if parsed or not 1 <= declared <= MAX_RANKS:
                    raise ValueError(
                        f"line {lineno}: {raw!r} must come before every record "
                        f"and declare 1 to {MAX_RANKS} ranks"
                    )
                continue
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            limit = MAX_RANKS if declared is None else declared
            try:
                rank = int(parts[0])
                if rank < 0:
                    raise ValueError(f"negative rank {rank}")
                if rank >= limit:
                    raise ValueError(f"rank {rank} outside [0, {limit})")
                op = parts[1]
                rec: Record
                if op == "compute":
                    rec = Compute(float(parts[2]))
                elif op == "send":
                    rec = Send(int(parts[2]), int(parts[3]), int(parts[4]))
                elif op == "recv":
                    rec = Recv(int(parts[2]), int(parts[3]))
                elif op == "isend":
                    rec = Isend(int(parts[2]), int(parts[3]), int(parts[4]))
                elif op == "irecv":
                    rec = Irecv(int(parts[2]), int(parts[3]))
                elif op == "waitall":
                    rec = WaitAll()
                elif op == "sendrecv":
                    rec = SendRecv(int(parts[2]), int(parts[3]), int(parts[4]))
                elif op == "barrier":
                    rec = Barrier()
                else:
                    raise ValueError(f"unknown op {op!r}")
            except (IndexError, ValueError) as exc:
                raise ValueError(f"line {lineno}: cannot parse {raw!r}: {exc}") from exc
            parsed.append((lineno, rank, rec))
            max_rank = max(max_rank, rank)
        num_ranks = max_rank + 1 if declared is None else declared
        programs: list[list[Record]] = [[] for _ in range(num_ranks)]
        for lineno, rank, rec in parsed:
            problem = _peer_problem(rank, rec, num_ranks)
            if problem:
                raise ValueError(f"line {lineno}: {problem}")
            programs[rank].append(rec)
        return Trace(programs)
