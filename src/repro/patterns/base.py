"""Traffic-pattern data model (paper Sec. III).

A *communication pattern* is a set of ``(source, destination)`` pairs,
optionally weighted by bytes — the paper's connectivity matrix ``M`` with
``m_ij != 0`` iff ``(i -> j)`` is in the pattern.  Applications structure
their traffic into *phases* (the paper's "series of permutations" vs
"inject everything" discussion); we model a workload as an ordered list
of phases, each a set of flows injected together.  A phase holds its
flows as parallel arrays, as :class:`repro.workloads.ArrivalStream`
does, so routing, the census and the engines read them without a
per-flow Python object in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..core.base import leaf_ids

__all__ = ["Phase", "Pattern"]


def _column(values: object, what: str) -> np.ndarray:
    """A read-only int64 copy of one phase column (the leaf-id integer rule)."""
    column = np.array(leaf_ids(values, what=what))
    column.setflags(write=False)
    return column


@dataclass(frozen=True, eq=False)
class Phase:
    """Flows injected concurrently (separated from other phases by
    application-level dependencies).

    Flow ``i`` moves ``sizes[i]`` bytes from leaf ``src[i]`` to leaf
    ``dst[i]``.  The three columns are validated, read-only int64
    arrays: an endpoint must be a non-negative integer and a size a
    positive one (a float is rejected, never truncated).  Self-pairs
    are legal; they move no network bytes.
    """

    src: np.ndarray
    dst: np.ndarray
    sizes: np.ndarray
    name: str = ""

    def __post_init__(self):
        src = _column(self.src, "source")
        dst = _column(self.dst, "destination")
        sizes = _column(self.sizes, "flow size")
        if len(dst) != len(src) or len(sizes) != len(src):
            raise ValueError(
                f"phase {self.name!r}: {len(src)} sources, {len(dst)} destinations "
                f"and {len(sizes)} sizes; the columns must be parallel"
            )
        bad = (src < 0) | (dst < 0) | (sizes <= 0)
        if bad.any():
            f = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"flow {f} ({int(src[f])} -> {int(dst[f])}, {int(sizes[f])} B) of phase "
                f"{self.name!r} has a negative endpoint or a non-positive size"
            )
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "sizes", sizes)

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, int]], size: int = 1, name: str = "") -> "Phase":
        arr = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs))
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"pairs must be (src, dst) pairs, got shape {arr.shape}")
        return Phase(arr[:, 0], arr[:, 1], np.full(len(arr), size), name=name)

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.src.tolist(), self.dst.tolist()))

    def is_permutation(self) -> bool:
        """True iff no endpoint repeats on either side (and no self flows)."""
        return (
            len(np.unique(self.src)) == len(self)
            and len(np.unique(self.dst)) == len(self)
            and bool((self.src != self.dst).all())
        )

    def total_bytes(self) -> int:
        # Python ints: an int64 sum would wrap past 2**63 bytes
        return sum(self.sizes.tolist())

    def __len__(self) -> int:
        return len(self.src)

    def _key(self) -> tuple[str, bytes, bytes, bytes]:
        return (self.name, self.src.tobytes(), self.dst.tobytes(), self.sizes.tobytes())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Phase) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True)
class Pattern:
    """An ordered multi-phase workload."""

    phases: tuple[Phase, ...]
    name: str = ""
    #: number of communicating processes (ranks); endpoints must be < num_ranks
    num_ranks: int = 0

    def __post_init__(self):
        max_ep = max(
            (int(max(ph.src.max(), ph.dst.max())) for ph in self.phases if len(ph)),
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

    def pairs(self) -> list[tuple[int, int]]:
        """All (src, dst) pairs over all phases (with repetitions)."""
        return [pair for phase in self.phases for pair in phase.pairs()]

    def unique_pairs(self) -> list[tuple[int, int]]:
        """Sorted unique pairs — the support of the connectivity matrix."""
        return sorted(set(self.pairs()))

    def connectivity_matrix(self, n: int | None = None) -> np.ndarray:
        """The paper's ``M(N x N)``: total bytes per (src, dst) pair."""
        n = n if n is not None else self.num_ranks
        mat = np.zeros((n, n), dtype=np.int64)
        for phase in self.phases:
            np.add.at(mat, (phase.src, phase.dst), phase.sizes)
        return mat

    def total_bytes(self) -> int:
        return sum(ph.total_bytes() for ph in self.phases)

    def inverse(self) -> "Pattern":
        """The pattern with every flow reversed (Sec. VII-B/C's ``D -> S``)."""
        return Pattern(
            tuple(Phase(ph.dst, ph.src, ph.sizes, name=ph.name) for ph in self.phases),
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
