"""Synthetic trace generators for the paper's applications.

These stand in for the proprietary post-mortem traces (DESIGN.md,
substitutions): they emit the MPI call structure the paper documents for
WRF-256 and NAS CG.D-128, with configurable iteration counts and
compute-phase durations.  A generic pattern-to-trace converter is also
provided so any :class:`~repro.patterns.base.Pattern` can be replayed.
"""

from __future__ import annotations

from ..patterns.applications import (
    CG_PHASE_MESSAGE,
    WRF_DEFAULT_MESSAGE,
    cg_grid,
    cg_transpose_exchange,
)
from ..patterns.base import Pattern
from .trace import (
    Barrier,
    Compute,
    Irecv,
    Isend,
    Record,
    SendRecv,
    Trace,
    WaitAll,
)

__all__ = ["wrf_trace", "cg_trace", "pattern_trace"]


def wrf_trace(
    n: int = 256,
    row: int = 16,
    iterations: int = 1,
    message_size: int = WRF_DEFAULT_MESSAGE,
    compute_time: float = 0.0,
) -> Trace:
    """WRF's halo exchange as a trace.

    Per iteration every task posts non-blocking receives and sends to its
    ±row neighbours ("two outstanding communications"), waits for all,
    then computes.
    """
    if n % row:
        raise ValueError(f"n={n} must be a multiple of the mesh row {row}")
    programs: list[list[Record]] = []
    for me in range(n):
        prog: list[Record] = []
        for _ in range(iterations):
            neighbours = [p for p in (me - row, me + row) if 0 <= p < n]
            for peer in neighbours:
                prog.append(Irecv(peer, tag=0))
            for peer in neighbours:
                prog.append(Isend(peer, message_size, tag=0))
            prog.append(WaitAll())
            if compute_time > 0:
                prog.append(Compute(compute_time))
        programs.append(prog)
    return Trace(programs)


def cg_trace(
    n: int = 128,
    iterations: int = 1,
    message_size: int = CG_PHASE_MESSAGE,
    compute_time: float = 0.0,
) -> Trace:
    """NAS CG's five-phase exchange structure as a trace.

    Per iteration: ``log2(npcols)`` row-internal reduce exchanges
    (switch-local under sequential mapping with 16-wide rows) followed by
    the transpose-pair exchange, each as a blocking SendRecv — matching
    the data dependency chain of the CG solve (each phase consumes the
    previous one's result).
    """
    nprows, npcols = cg_grid(n)
    l2 = npcols.bit_length() - 1
    transpose = {s: d for s, d in cg_transpose_exchange(n)}
    programs: list[list[Record]] = []
    for me in range(n):
        prog: list[Record] = []
        for _ in range(iterations):
            for p in range(l2):
                prog.append(SendRecv(me ^ (1 << p), message_size, tag=p))
            peer = transpose.get(me)
            if peer is not None:
                prog.append(SendRecv(peer, message_size, tag=l2))
            if compute_time > 0:
                prog.append(Compute(compute_time))
        programs.append(prog)
    return Trace(programs)


def pattern_trace(
    pattern: Pattern,
    barrier_between_phases: bool = True,
    compute_time: float = 0.0,
) -> Trace:
    """Convert any multi-phase pattern into a replayable trace.

    Each phase becomes: post all receives, post all sends, wait — i.e.
    every flow of the phase outstanding simultaneously, with an optional
    global barrier separating phases (the bulk-synchronous semantics the
    figure harness also uses; disabling the barrier lets phases of
    different ranks slide past each other as in a real run).
    """
    n = pattern.num_ranks
    programs: list[list[Record]] = [[] for _ in range(n)]
    for tag, phase in enumerate(pattern.phases):
        sends: dict[int, list] = {r: [] for r in range(n)}
        recvs: dict[int, list] = {r: [] for r in range(n)}
        for src, dst, size in zip(phase.src.tolist(), phase.dst.tolist(), phase.sizes.tolist()):
            if src != dst:
                sends[src].append(Isend(dst, size, tag=tag))
                recvs[dst].append(Irecv(src, tag=tag))
        for r in range(n):
            programs[r].extend(recvs[r])
            programs[r].extend(sends[r])
            if recvs[r] or sends[r]:
                programs[r].append(WaitAll())
            if compute_time > 0:
                programs[r].append(Compute(compute_time))
            if barrier_between_phases:
                programs[r].append(Barrier())
    return Trace(programs)
