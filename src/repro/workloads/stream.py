"""The struct-of-arrays arrival stream every dynamic component speaks.

An :class:`ArrivalStream` is an open-loop traffic demand: one flow per
entry, time-sorted, with uniform parallel arrays so the dynamic driver
can slice arrival batches and build COO incidences without ever
materializing per-flow Python objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ArrivalStream"]


@dataclass(frozen=True)
class ArrivalStream:
    """A time-sorted batch of flow arrivals (struct-of-arrays).

    ``times`` are absolute arrival instants in seconds (non-decreasing,
    starting at or after 0); ``src``/``dst`` are leaf ids; ``sizes``
    are flow sizes in bytes.  Self-pairs are legal in a *trace* (they
    carry no network bytes) but the generators never emit them and the
    driver drops them with a count.
    """

    times: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        src = np.asarray(self.src, dtype=np.int64)
        dst = np.asarray(self.dst, dtype=np.int64)
        sizes = np.asarray(self.sizes, dtype=np.float64)
        for name, arr in (("times", times), ("src", src), ("dst", dst), ("sizes", sizes)):
            if arr.ndim != 1:
                raise ValueError(f"{name} must be a 1-d array")
            if arr.shape != times.shape:
                raise ValueError("arrival arrays must be parallel (same length)")
        for name, arr in (("arrival times", times), ("flow sizes", sizes)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite, got {arr[~np.isfinite(arr)][0]}")
        if len(times):
            if (np.diff(times) < 0).any():
                raise ValueError("arrival times must be non-decreasing")
            if times[0] < 0:
                raise ValueError("arrival times must be non-negative")
            if (sizes < 0).any():
                raise ValueError("flow sizes must be non-negative")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "sizes", sizes)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def horizon(self) -> float:
        """The last arrival instant (0.0 for an empty stream)."""
        return float(self.times[-1]) if len(self.times) else 0.0

    @property
    def offered_bytes(self) -> float:
        """Total bytes the stream asks the network to carry."""
        return float(self.sizes.sum())

    def validate_leaves(self, num_leaves: int) -> None:
        """Raise if any endpoint falls outside ``[0, num_leaves)``."""
        for name, arr in (("src", self.src), ("dst", self.dst)):
            if len(arr) and (arr.min() < 0 or arr.max() >= num_leaves):
                bad = arr[(arr < 0) | (arr >= num_leaves)][0]
                raise ValueError(
                    f"arrival {name} {int(bad)} outside the machine's "
                    f"{num_leaves} leaves"
                )

    def head(self, num_flows: int) -> "ArrivalStream":
        """The first ``num_flows`` arrivals (the whole stream if fewer)."""
        if num_flows >= len(self):
            return self
        return ArrivalStream(
            self.times[:num_flows],
            self.src[:num_flows],
            self.dst[:num_flows],
            self.sizes[:num_flows],
        )
