"""The paper's application workloads: WRF-256 and NAS CG.D-128 (Sec. VI-A).

These generators substitute for the proprietary post-mortem MPI traces
the authors replayed (see DESIGN.md, substitutions table).  They encode
precisely the communication structure the paper documents:

**WRF-256** — "pairwise exchanges in a 16x16 mesh.  Every task Ti
initiates two outstanding communications to nodes T(i±16) (except for the
first and last 16 tasks, which only send to T(i+16) and T(i-16)
respectively)."  One phase: all flows outstanding together.

**CG.D-128** — "a communication pattern that consists of five exchanges
of equal size, four of which are local to the first-level switch for the
radix we have used (m1 = 16).  Only the fifth phase is non-local" and the
fifth-phase messages are 750 KB.  We reproduce the NAS CG structure for a
``nprows x npcols`` process grid (npcols = nprows or 2*nprows):

* four reduce exchanges within the row: ``partner = me XOR 2^p`` for
  ``p = 0..log2(npcols)-1`` — with 16-column rows mapped sequentially
  these stay inside one 16-leaf switch;
* one transpose-pair exchange: for the 2:1 grid of 128 processes,
  ``t = me // 2;  partner = 2*((t % nprows)*nprows + t // nprows) + (me % 2)``,
  which reproduces the paper's Eq. (2) degeneracy: the destination's
  ``M_1`` digit ``d mod 16`` takes only two values per source switch, so
  D-mod-k funnels all sixteen flows of a switch through two uplinks.

Both patterns are symmetric (their connectivity matrices equal their
transposes), which is why the paper finds S-mod-k and D-mod-k perform
identically on them (Sec. VII-B/C).
"""

from __future__ import annotations

import numpy as np

from .base import Pattern, Phase
from .permutations import Permutation

__all__ = [
    "wrf_exchange",
    "wrf_pattern",
    "cg_grid",
    "cg_reduce_exchange",
    "cg_transpose_exchange",
    "cg_pattern",
    "WRF_DEFAULT_MESSAGE",
    "CG_PHASE_MESSAGE",
]

#: WRF halo-exchange message size (bytes).  The paper does not state it;
#: results are reported as slowdown ratios, which the fluid model renders
#: size-independent.  Chosen at a realistic halo scale.
WRF_DEFAULT_MESSAGE = 256 * 1024

#: CG.D phase message size: "all of equal number of bytes, namely, 750 KB"
#: (= na/npcols doubles = 1_500_000/16 * 8 bytes for class D on 128 ranks).
CG_PHASE_MESSAGE = 750_000


def _wrf_columns(n: int, row: int) -> tuple[np.ndarray, np.ndarray]:
    """``(src, dst)`` of the WRF exchange: task ``i`` sends to ``i + row``,
    then to ``i - row``, each where that task exists."""
    if n % row:
        raise ValueError(f"n={n} must be a multiple of the mesh row {row}")
    tasks = np.arange(n, dtype=np.int64)
    partners = np.stack([tasks + row, tasks - row], axis=1).ravel()
    keep = (partners >= 0) & (partners < n)
    return np.repeat(tasks, 2)[keep], partners[keep]


def wrf_exchange(n: int = 256, row: int = 16) -> list[tuple[int, int]]:
    """The WRF ±row pairwise exchange pairs on an ``n``-task job."""
    src, dst = _wrf_columns(n, row)
    return list(zip(src.tolist(), dst.tolist()))


def wrf_pattern(
    n: int = 256, row: int = 16, message_size: int = WRF_DEFAULT_MESSAGE
) -> Pattern:
    """WRF-256 as a single-phase workload (both sends outstanding)."""
    src, dst = _wrf_columns(n, row)
    phase = Phase(src, dst, np.full(len(src), message_size), name=f"WRF-{n}")
    return Pattern((phase,), name=phase.name, num_ranks=n)


def cg_grid(n: int) -> tuple[int, int]:
    """The NAS CG process grid ``(nprows, npcols)`` for ``n`` ranks.

    ``npcols = 2^ceil(log2(n)/2)`` and ``nprows = n / npcols`` — square for
    even powers of two, 2:1 otherwise (e.g. 128 -> 8 x 16).
    """
    bits = n.bit_length() - 1
    if n <= 0 or (1 << bits) != n:
        raise ValueError(f"NAS CG requires a power-of-two rank count, got {n}")
    npcols = 1 << ((bits + 1) // 2)
    nprows = n // npcols
    return nprows, npcols


def cg_reduce_exchange(n: int, p: int) -> Permutation:
    """The p-th row-internal reduce exchange: ``partner = me XOR 2^p``.

    ``p`` ranges over ``0..log2(npcols)-1``; every partner lies in the same
    row (the same block of ``npcols`` consecutive ranks).
    """
    _, npcols = cg_grid(n)
    l2 = npcols.bit_length() - 1
    if not 0 <= p < l2:
        raise ValueError(f"reduce phase {p} out of range [0, {l2})")
    return Permutation(np.arange(n, dtype=np.int64) ^ (1 << p))


def _cg_transpose_columns(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(src, dst)`` of the transpose exchange, fixed points dropped."""
    nprows, npcols = cg_grid(n)
    me = np.arange(n, dtype=np.int64)
    if npcols == nprows:
        partner = (me % nprows) * npcols + me // npcols
    else:  # npcols == 2 * nprows
        t = me // 2
        partner = 2 * ((t % nprows) * nprows + t // nprows) + (me % 2)
    moves = partner != me
    return me[moves], partner[moves]


def cg_transpose_exchange(n: int) -> list[tuple[int, int]]:
    """The non-local transpose-pair exchange of NAS CG (paper Eq. (2)).

    For a square grid this is the plain transpose partner; for the 2:1
    grid, pairs of ranks transpose jointly on the ``nprows x nprows``
    subgrid.  Fixed points (self-partners) are excluded from the traffic.
    """
    src, dst = _cg_transpose_columns(n)
    return list(zip(src.tolist(), dst.tolist()))


def cg_pattern(n: int = 128, message_size: int = CG_PHASE_MESSAGE) -> Pattern:
    """CG on ``n`` ranks: the five equal-size exchange phases of the paper."""
    _, npcols = cg_grid(n)
    l2 = npcols.bit_length() - 1
    me = np.arange(n, dtype=np.int64)
    sizes = np.full(n, message_size)
    phases = [
        Phase(me, cg_reduce_exchange(n, p).perm, sizes, name=f"reduce-exchange-{p}")
        for p in range(l2)
    ]
    src, dst = _cg_transpose_columns(n)
    phases.append(Phase(src, dst, sizes[: len(src)], name="transpose-exchange"))
    return Pattern(tuple(phases), name=f"CG.D-{n}", num_ranks=n)
