"""r-NCA-u and r-NCA-d: the paper's proposed oblivious family (Sec. VIII).

"Random NCA Up" applies the S-mod-k self-routing rule to *relabeled*
source digits; "Random NCA Down" applies the D-mod-k rule to relabeled
destination digits (see :mod:`repro.core.relabel` for the relabeling).
The family therefore

* concentrates endpoint contention exactly like S-mod-k / D-mod-k (one
  ascending path per source, resp. one descending path per destination),
* distributes routes over the NCAs in a balanced way even in slimmed
  trees (balanced surjections instead of the skewed modulo), and
* randomizes the root responsibilities, breaking the regular
  pattern/routing resonance that makes CG.D pathological under mod-k.

With ``map_kind="mod"`` both classes degenerate to exactly S-mod-k /
D-mod-k — the paper's observation that the classic schemes are special
cases of the family (and our ablation baseline).
"""

from __future__ import annotations

import numpy as np

from ..topology import XGFT
from .base import RoutingAlgorithm
from .relabel import MapKind, RelabelMaps

__all__ = ["RNCAUp", "RNCADown"]


class _RelabeledModK(RoutingAlgorithm):
    """Shared machinery: mod-k self-routing on relabeled digits.

    Subclasses set :attr:`~RoutingAlgorithm.steered_by` to the endpoint
    whose relabeled digits steer the route.
    """

    def __init__(
        self,
        topo: XGFT,
        seed: int = 0,
        map_kind: MapKind = "balanced-random",
    ):
        super().__init__(topo)
        self.seed = int(seed)
        self.map_kind: MapKind = map_kind
        self.maps = RelabelMaps(topo, seed=seed, kind=map_kind)

    def port_array(self, level: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        endpoint = src if self.steered_by == "src" else dst
        return self.maps.port_array(level, endpoint)


class RNCAUp(_RelabeledModK):
    """Random NCA Up (``r-NCA-u``): S-mod-k on relabeled source digits.

    Like S-mod-k, every source keeps a single ascending path (endpoint
    contention of a source is concentrated on the way up), but which NCA
    set serves which source is a balanced random choice per subtree.
    """

    name = "r-nca-u"
    steered_by = "src"


class RNCADown(_RelabeledModK):
    """Random NCA Down (``r-NCA-d``): D-mod-k on relabeled destination digits.

    Like D-mod-k, every destination keeps a single descending path; the
    NCA responsibilities are randomized and balanced.  Being
    destination-deterministic, it remains implementable with per-switch
    forwarding tables (:mod:`repro.core.forwarding`).
    """

    name = "r-nca-d"
    steered_by = "dst"
