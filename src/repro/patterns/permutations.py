"""Permutation patterns and their algebra (paper Sec. III, VII-B).

Permutations are the extreme communication pattern: every source sends to
a distinct destination.  The paper's equivalence argument for S-mod-k and
D-mod-k rests on the *inverse* permutation: routing ``P`` with S-mod-k
produces the same contention spectrum as routing ``P^{-1}`` with D-mod-k.
This module provides a small permutation type with the operations that
argument needs (inverse, composition, symmetry tests) plus conversions to
flow pairs.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .base import Pattern, Phase

__all__ = ["Permutation"]


class Permutation:
    """A permutation of ``range(n)`` acting as a traffic pattern.

    ``perm[i]`` is the destination of source ``i``.  Self-loops (fixed
    points) are legal in the permutation but excluded from the traffic
    pairs (a node does not use the network to talk to itself).
    """

    __slots__ = ("perm",)

    def __init__(self, perm: Sequence[int] | np.ndarray):
        arr = np.asarray(perm, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("a permutation must be one-dimensional")
        n = len(arr)
        if n == 0:
            raise ValueError("empty permutation")
        if not np.array_equal(np.sort(arr), np.arange(n)):
            raise ValueError("not a permutation of range(n)")
        self.perm = arr

    # -- constructors -----------------------------------------------------
    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(np.arange(n))

    @staticmethod
    def random(n: int, rng: np.random.Generator | int | None = None) -> "Permutation":
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        return Permutation(rng.permutation(n))

    @staticmethod
    def from_function(n: int, fn: Callable[[int], int]) -> "Permutation":
        return Permutation([fn(i) for i in range(n)])

    # -- algebra ------------------------------------------------------------
    def inverse(self) -> "Permutation":
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(len(self.perm))
        return Permutation(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """``(self ∘ other)(i) = self(other(i))``."""
        if len(other) != len(self):
            raise ValueError("size mismatch")
        return Permutation(self.perm[other.perm])

    def is_involution(self) -> bool:
        """True iff applying the permutation twice is the identity
        (pairwise-exchange patterns such as CG's are involutions)."""
        return bool((self.perm[self.perm] == np.arange(len(self))).all())

    def fixed_points(self) -> np.ndarray:
        return np.nonzero(self.perm == np.arange(len(self)))[0]

    # -- as traffic -----------------------------------------------------------
    def pairs(self) -> list[tuple[int, int]]:
        """Traffic pairs, fixed points excluded."""
        return [
            (int(i), int(d))
            for i, d in enumerate(self.perm)
            if i != d
        ]

    def pattern(self, size: int = 1, name: str = "") -> Pattern:
        src = np.flatnonzero(self.perm != np.arange(len(self)))
        phase = Phase(src, self.perm[src], np.full(len(src), size), name=name or "permutation")
        return Pattern((phase,), name=phase.name, num_ranks=len(self))

    # -- dunders ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.perm)

    def __getitem__(self, i: int) -> int:
        return int(self.perm[i])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and np.array_equal(self.perm, other.perm)

    def __hash__(self) -> int:
        return hash(self.perm.tobytes())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if len(self.perm) <= 16:
            return f"Permutation({self.perm.tolist()})"
        return f"Permutation(n={len(self.perm)})"
