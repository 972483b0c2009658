"""D-mod-k (destination-modulo) oblivious routing.

The mirror image of S-mod-k: every *destination* is assigned a unique
descending path, regardless of source, concentrating the endpoint
contention of a destination onto a single path down from its NCA.
Proposed independently several times (refs [6]-[9], [11] of the paper;
it is the basis of the InfiniBand "fat-tree" routing in OpenSM) and
shown by those works to beat random and some adaptive schemes.

Because the port choice depends only on the destination, D-mod-k is
implementable with per-switch destination-indexed forwarding tables
(LFTs); see :mod:`repro.core.forwarding`.
"""

from __future__ import annotations

import numpy as np

from .base import RoutingAlgorithm
from .smodk import source_digit_port

__all__ = ["DModK"]


class DModK(RoutingAlgorithm):
    """Destination-mod-k routing (paper Sec. V).

    ``port at level l = M_l(d) mod w_{l+1}`` — e.g. the paper's CG
    analysis: ``r1 = d mod 16`` on ``XGFT(2;16,16;1,16)``.
    """

    name = "d-mod-k"
    steered_by = "dst"

    def port_array(self, level: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        return source_digit_port(self.topo, level, dst)
