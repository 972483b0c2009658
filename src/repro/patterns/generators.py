"""Synthetic traffic generators.

The classic adversarial/benign patterns of the interconnection-network
literature, used by the tests, the Sec.-VII-B/C equivalence experiments
and the extra benchmarks.  All generators return
:class:`~repro.patterns.permutations.Permutation` or plain pair lists.
"""

from __future__ import annotations

import numpy as np

from .permutations import Permutation

__all__ = [
    "shift",
    "transpose",
    "bit_reversal",
    "bit_complement",
    "butterfly",
    "tornado_groups",
    "neighbor_exchange",
    "uniform_random_pairs",
    "hotspot",
]


def shift(n: int, k: int) -> Permutation:
    """Cyclic shift: ``i -> (i + k) mod n`` (the InfiniBand "shift" pattern
    of ref. [9])."""
    return Permutation((np.arange(n) + k) % n)


def transpose(rows: int, cols: int) -> Permutation:
    """Matrix transpose on a ``rows x cols`` process grid (row-major ids).

    ``i = r*cols + c  ->  c*rows + r``.  A permutation for any grid shape;
    an involution iff ``rows == cols``.
    """
    i = np.arange(rows * cols)
    r, c = np.divmod(i, cols)
    return Permutation(c * rows + r)


def _require_pow2(n: int) -> int:
    bits = n.bit_length() - 1
    if n <= 0 or (1 << bits) != n:
        raise ValueError(f"n must be a power of two, got {n}")
    return bits


def bit_reversal(n: int) -> Permutation:
    """Bit-reversal permutation on ``log2(n)`` bits."""
    bits = _require_pow2(n)
    out = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        out |= ((np.arange(n) >> b) & 1) << (bits - 1 - b)
    return Permutation(out)


def bit_complement(n: int) -> Permutation:
    """Bit-complement: ``i -> ~i`` on ``log2(n)`` bits."""
    bits = _require_pow2(n)
    return Permutation((~np.arange(n)) & (n - 1))


def butterfly(n: int, stage: int) -> Permutation:
    """Butterfly exchange: swap the lowest bit with bit ``stage``."""
    bits = _require_pow2(n)
    if not 0 <= stage < bits:
        raise ValueError(f"stage {stage} out of range [0, {bits})")
    i = np.arange(n)
    b0 = i & 1
    bs = (i >> stage) & 1
    out = i & ~(1 | (1 << stage))
    out |= bs | (b0 << stage)
    return Permutation(out)


def tornado_groups(n: int, group: int) -> Permutation:
    """Tornado-style shift by half the group count across groups of
    ``group`` consecutive nodes (stress for the upper levels)."""
    if n % group:
        raise ValueError("n must be a multiple of group")
    num_groups = n // group
    i = np.arange(n)
    g, local = np.divmod(i, group)
    shift_g = (g + max(1, num_groups // 2)) % num_groups
    return Permutation(shift_g * group + local)


def neighbor_exchange(n: int, distance: int = 1) -> list[tuple[int, int]]:
    """±distance pairwise exchange (every node sends both ways; nodes close
    to the boundary only send inward) — the WRF structure, parametric."""
    pairs = []
    for i in range(n):
        if i + distance < n:
            pairs.append((i, i + distance))
        if i - distance >= 0:
            pairs.append((i, i - distance))
    return pairs


def uniform_random_pairs(
    n: int, num_flows: int, rng: np.random.Generator | int | None = None
) -> list[tuple[int, int]]:
    """``num_flows`` uniformly random (src != dst) pairs."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    src = rng.integers(0, n, num_flows)
    off = rng.integers(1, n, num_flows)
    dst = (src + off) % n
    return list(zip(src.tolist(), dst.tolist()))


def hotspot(n: int, target: int, senders: int | None = None) -> list[tuple[int, int]]:
    """Everybody (or the first ``senders``) sends to one hot node: pure
    endpoint contention, the case routing cannot and need not fix."""
    senders = n if senders is None else senders
    return [(s, target) for s in range(senders) if s != target]
