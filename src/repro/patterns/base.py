"""Traffic-pattern data model (paper Sec. III).

A *communication pattern* is a set of ``(source, destination)`` pairs,
optionally weighted by bytes — the paper's connectivity matrix ``M`` with
``m_ij != 0`` iff ``(i -> j)`` is in the pattern.  Applications structure
their traffic into *phases* (the paper's "series of permutations" vs
"inject everything" discussion); we model a workload as an ordered list
of phases, each a list of flows injected together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = ["Flow", "Phase", "Pattern"]


@dataclass(frozen=True)
class Flow:
    """One point-to-point transfer."""

    src: int
    dst: int
    size: int = 1

    def __post_init__(self):
        if self.src < 0 or self.dst < 0:
            raise ValueError(f"negative endpoint in flow {self}")
        if self.size <= 0:
            raise ValueError(f"non-positive size in flow {self}")

    @property
    def pair(self) -> tuple[int, int]:
        return (self.src, self.dst)


@dataclass(frozen=True)
class Phase:
    """Flows injected concurrently (separated from other phases by
    application-level dependencies)."""

    flows: tuple[Flow, ...]
    name: str = ""

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, int]], size: int = 1, name: str = "") -> "Phase":
        return Phase(tuple(Flow(s, d, size) for s, d in pairs), name=name)

    def pairs(self) -> list[tuple[int, int]]:
        return [f.pair for f in self.flows]

    def is_permutation(self) -> bool:
        """True iff no endpoint repeats on either side (and no self flows)."""
        srcs = [f.src for f in self.flows]
        dsts = [f.dst for f in self.flows]
        return (
            len(set(srcs)) == len(srcs)
            and len(set(dsts)) == len(dsts)
            and all(f.src != f.dst for f in self.flows)
        )

    def total_bytes(self) -> int:
        return sum(f.size for f in self.flows)

    def __len__(self) -> int:
        return len(self.flows)


@dataclass(frozen=True)
class Pattern:
    """An ordered multi-phase workload."""

    phases: tuple[Phase, ...]
    name: str = ""
    #: number of communicating processes (ranks); endpoints must be < num_ranks
    num_ranks: int = 0

    def __post_init__(self):
        max_ep = max(
            (max(f.src, f.dst) for ph in self.phases for f in ph.flows),
            default=-1,
        )
        if self.num_ranks == 0:
            object.__setattr__(self, "num_ranks", max_ep + 1)
        elif max_ep >= self.num_ranks:
            raise ValueError(
                f"endpoint {max_ep} out of range for {self.num_ranks} ranks"
            )

    @staticmethod
    def single_phase(
        pairs: Iterable[tuple[int, int]],
        size: int = 1,
        name: str = "",
        num_ranks: int = 0,
    ) -> "Pattern":
        return Pattern(
            (Phase.from_pairs(pairs, size=size, name=name),), name=name, num_ranks=num_ranks
        )

    def flows(self) -> Iterator[Flow]:
        for phase in self.phases:
            yield from phase.flows

    def pairs(self) -> list[tuple[int, int]]:
        """All (src, dst) pairs over all phases (with repetitions)."""
        return [f.pair for f in self.flows()]

    def unique_pairs(self) -> list[tuple[int, int]]:
        """Sorted unique pairs — the support of the connectivity matrix."""
        return sorted({f.pair for f in self.flows()})

    def connectivity_matrix(self, n: int | None = None) -> np.ndarray:
        """The paper's ``M(N x N)``: total bytes per (src, dst) pair."""
        n = n if n is not None else self.num_ranks
        mat = np.zeros((n, n), dtype=np.int64)
        for f in self.flows():
            mat[f.src, f.dst] += f.size
        return mat

    def total_bytes(self) -> int:
        return sum(ph.total_bytes() for ph in self.phases)

    def inverse(self) -> "Pattern":
        """The pattern with every flow reversed (Sec. VII-B/C's ``D -> S``)."""
        return Pattern(
            tuple(
                Phase(tuple(Flow(f.dst, f.src, f.size) for f in ph.flows), name=ph.name)
                for ph in self.phases
            ),
            name=f"inverse({self.name})" if self.name else "inverse",
            num_ranks=self.num_ranks,
        )

    def is_symmetric(self) -> bool:
        """True iff the connectivity matrix equals its transpose (paper:
        "if the pattern is symmetric, the inverse is itself")."""
        mat = self.connectivity_matrix()
        return bool((mat == mat.T).all())

    def __len__(self) -> int:
        return sum(len(ph) for ph in self.phases)
