"""S-mod-k (source-modulo) oblivious routing.

The "self-routing" scheme of the earliest fat-tree works (Leiserson's
CM-5 description [1], Ohring's XGFT paper [10]): every source is assigned
a unique ascending path, regardless of destination, so the endpoint
contention of a source is concentrated onto a single path up.

For a k-ary n-tree the rule is ``parent = floor(s / k^(l-1)) mod k`` at
hop ``l``; for a general XGFT the paper (Sec. V) prescribes using the
source's Table-I digit: *"To choose the output port at level l, the
operation M_l mod w_{l+1} is performed"*.  At level 0 no ``M_0`` digit
exists; we take ``M_1 mod w_1``, which is the unique (trivial) choice for
every topology with ``w_1 == 1`` — all topologies evaluated in the paper —
and a sane spread over host uplinks otherwise.
"""

from __future__ import annotations

import numpy as np

from ..topology import XGFT
from .base import RoutingAlgorithm

__all__ = ["SModK", "source_digit_port"]


def source_digit_port(topo: XGFT, level: int, endpoint: np.ndarray) -> np.ndarray:
    """The mod-k port rule at ``level`` applied to an endpoint-id array.

    ``port = M_max(level,1)(endpoint) mod w_{level+1}`` (see module
    docstring for the level-0 convention).
    """
    digit_index = max(level, 1)  # paper's 1-based digit M_l; M_1 at level 0
    digit = (endpoint // topo.mprod(digit_index - 1)) % topo.m[digit_index - 1]
    return digit % topo.w[level]


class SModK(RoutingAlgorithm):
    """Source-mod-k routing (paper Sec. V)."""

    name = "s-mod-k"
    steered_by = "src"

    def port_array(self, level: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        return source_digit_port(self.topo, level, src)
