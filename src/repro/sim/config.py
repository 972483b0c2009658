"""Network parameters shared by the simulators (paper Sec. VI-B).

"For the network model, we have used an input/output buffered switch
model, link speed of 2 Gbits/s, flit size of 8 bytes, and segment size of
1 KB with a round-robin interleaving of messages at the network adapter."
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["NetworkConfig", "PAPER_CONFIG"]


@dataclass(frozen=True)
class NetworkConfig:
    """Link/switch parameters of the simulated network."""

    #: link bandwidth in bytes per second (paper: 2 Gbit/s)
    link_bandwidth: float = 2e9 / 8
    #: flit size in bytes (paper: 8 B)
    flit_size: int = 8
    #: adapter segmentation unit in bytes (paper: 1 KB)
    segment_size: int = 1024
    #: per-hop propagation + switching latency in seconds (small vs the
    #: 4.1 us segment serialization time; not specified by the paper)
    hop_latency: float = 50e-9
    #: per-port buffer capacity, in segments (input and output side each)
    buffer_segments: int = 4

    def __post_init__(self):
        if not (math.isfinite(self.link_bandwidth) and self.link_bandwidth > 0):
            raise ValueError(
                f"link_bandwidth must be positive and finite, got {self.link_bandwidth}"
            )
        if not (math.isfinite(self.hop_latency) and self.hop_latency >= 0):
            raise ValueError(f"hop_latency must be non-negative and finite, got {self.hop_latency}")
        if self.flit_size <= 0 or self.segment_size <= 0:
            raise ValueError("flit and segment sizes must be positive")
        if self.segment_size % self.flit_size:
            raise ValueError("segment size must be a whole number of flits")
        if self.buffer_segments < 1:
            raise ValueError("need at least one segment of buffering")

    @property
    def segment_time(self) -> float:
        """Serialization time of one segment on one link (seconds)."""
        return self.segment_size / self.link_bandwidth

    @property
    def flit_time(self) -> float:
        """Serialization time of one flit (seconds)."""
        return self.flit_size / self.link_bandwidth

    def segments_of(self, size: int) -> int:
        """Number of segments a message of ``size`` bytes occupies."""
        if size <= 0:
            raise ValueError("message size must be positive")
        return -(-size // self.segment_size)


#: the configuration used throughout the paper's evaluation
PAPER_CONFIG = NetworkConfig()
