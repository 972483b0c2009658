"""Extensions the paper proposes but does not evaluate.

Two schemes built from the paper's own suggestions:

* :class:`AutoModK` — Sec. VII-C: *"A possible heuristic would be to
  choose S-mod-k for a many-destinations dominated pattern.  And
  D-mod-k for a many-source dominated pattern."*  The scheme inspects
  only the endpoint multiplicity histogram of the pattern (no routes,
  no topology knowledge beyond labels) and delegates to the matching
  digit rule.  Rationale: with many destinations per source, sources are
  the scarce contended resource, and S-mod-k concentrates each source's
  endpoint contention onto one ascending path.

* :class:`BestOfKRNCA` — the conclusion's future work: *"further improve
  these algorithms to reduce the gap between their performance in the
  worst cases and the optimum"*.  Draws ``k`` independent r-NCA
  relabelings and installs the one with the best worst-case contention
  over a synthetic probe set of random permutations.  The probes are
  pattern-independent, so the scheme remains oblivious — it spends
  offline effort to discard unlucky scrambles, trimming the upper
  whisker of the Fig.-5 boxes.
"""

from __future__ import annotations

import numpy as np

from ..topology import XGFT
from .base import PairInput, RoutingAlgorithm, pair_array
from .dmodk import DModK
from .rnca import RNCADown, RNCAUp
from .smodk import SModK

__all__ = ["AutoModK", "BestOfKRNCA"]


class AutoModK(RoutingAlgorithm):
    """Sec. VII-C's endpoint-dominance heuristic over {S,D}-mod-k.

    ``prepare`` (called by :meth:`build_table` with the pattern's pairs)
    compares the maximum out-degree (destinations per source) with the
    maximum in-degree (sources per destination):

    * more destinations per source → S-mod-k (concentrate at sources);
    * more sources per destination → D-mod-k (concentrate at
      destinations);
    * tie (e.g. any symmetric pattern) → D-mod-k, the variant
      deployable with destination-indexed forwarding tables.
    """

    name = "auto-mod-k"

    def __init__(self, topo: XGFT):
        super().__init__(topo)
        self._delegate: RoutingAlgorithm = DModK(topo)

    @property
    def chosen(self) -> str:
        """Name of the currently delegated scheme."""
        return self._delegate.name

    def prepare(self, pairs: PairInput) -> None:
        arr = pair_array(pairs, self.topo.num_leaves)
        arr = arr[arr[:, 0] != arr[:, 1]]
        max_out = int(np.bincount(arr[:, 0], minlength=1).max())
        max_in = int(np.bincount(arr[:, 1], minlength=1).max())
        if max_out > max_in:
            self._delegate = SModK(self.topo)
        else:
            self._delegate = DModK(self.topo)

    def port_array(self, level: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        return self._delegate.port_array(level, src, dst)


class BestOfKRNCA(RoutingAlgorithm):
    """Offline seed selection over the r-NCA family (future work).

    Parameters
    ----------
    topo:
        Topology to route.
    seed:
        Master seed; candidate relabelings use ``seed * k + i``.
    k:
        Number of candidate relabelings.
    probes:
        Number of random probe permutations per candidate.
    direction:
        ``"down"`` (default, selects over r-NCA-d) or ``"up"``.

    Selection metric: the worst contention level over the probe set,
    ties broken by the mean.  Everything is fixed at construction time —
    the resulting scheme is a plain static oblivious routing.
    """

    name = "r-nca-best"

    def __init__(
        self,
        topo: XGFT,
        seed: int = 0,
        k: int = 8,
        probes: int = 12,
        direction: str = "down",
    ):
        super().__init__(topo)
        if k < 1 or probes < 1:
            raise ValueError("need k >= 1 candidates and probes >= 1")
        if direction not in ("up", "down"):
            raise ValueError(f"direction must be 'up' or 'down', not {direction!r}")
        self.seed = int(seed)
        self.k = int(k)
        self.probes = int(probes)
        self.direction = direction
        cls = RNCADown if direction == "down" else RNCAUp
        rng = np.random.default_rng(
            np.random.SeedSequence([0xBE5707, self.seed & 0xFFFFFFFF])
        )
        leaves = np.arange(topo.num_leaves, dtype=np.int64)
        probe_pairs = []
        for _ in range(self.probes):
            pairs = np.stack((leaves, rng.permutation(topo.num_leaves)), axis=1)
            probe_pairs.append(pairs[pairs[:, 0] != pairs[:, 1]])
        best: RoutingAlgorithm | None = None
        best_key: tuple[int, float] | None = None
        for i in range(self.k):
            candidate = cls(topo, seed=self.seed * self.k + i)
            levels = [
                self._probe_contention(candidate, pairs) for pairs in probe_pairs
            ]
            key = (max(levels), float(np.mean(levels)))
            if best_key is None or key < best_key:
                best, best_key = candidate, key
        assert best is not None
        self._delegate = best
        #: (worst, mean) probe contention of the installed relabeling
        self.selected_score = best_key

    @staticmethod
    def _probe_contention(candidate: RoutingAlgorithm, pairs: np.ndarray) -> int:
        from ..contention.metrics import max_network_contention

        return max_network_contention(candidate.build_table(pairs))

    def port_array(self, level: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        return self._delegate.port_array(level, src, dst)
