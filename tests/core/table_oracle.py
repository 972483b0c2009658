"""The tuple-based route-table construction, kept as a test oracle.

:meth:`repro.core.base.RoutingAlgorithm.build_table` and
:meth:`~repro.core.base.RoutingAlgorithm.all_pairs_table` once turned
every pair into a Python tuple and back into arrays.  Their bodies live
on here verbatim, as functions over an algorithm instance, together
with the two pattern-side loops that changed alongside them (the
``auto-mod-k`` degree count and the ``r-nca-best`` probe selection).
``test_table_equivalence.py`` pins the array-native code to them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core import AutoModK, DModK, RNCADown, RNCAUp, SModK
from repro.core.base import RoutingAlgorithm
from repro.core.route import RouteTable
from repro.topology import XGFT

__all__ = ["OracleAutoModK", "all_pairs_table", "best_of_k_selection", "build_table"]


def build_table(alg: RoutingAlgorithm, pairs: Iterable[tuple[int, int]]) -> RouteTable:
    """Route a batch of pairs into a :class:`RouteTable`."""
    pair_list = [(int(s), int(d)) for s, d in pairs]
    alg.prepare(pair_list)
    if pair_list:
        src = np.asarray([p[0] for p in pair_list], dtype=np.int64)
        dst = np.asarray([p[1] for p in pair_list], dtype=np.int64)
    else:
        src = np.empty(0, dtype=np.int64)
        dst = np.empty(0, dtype=np.int64)
    nca = alg.topo.nca_level_array(src, dst)
    if type(alg).port_array is RoutingAlgorithm.port_array:
        # scalar-only algorithm: one up_ports call per unique pair
        return RouteTable(alg.topo, src, dst, nca, alg._scalar_port_matrix(src, dst))
    ports = np.zeros((len(src), alg.topo.h), dtype=np.int64)
    for level in range(alg.topo.h):
        active = np.nonzero(nca > level)[0]
        if len(active) == 0:
            break
        ports[active, level] = alg.port_array(level, src[active], dst[active])
    return RouteTable(alg.topo, src, dst, nca, ports)


def all_pairs_table(alg: RoutingAlgorithm, include_self: bool = False) -> RouteTable:
    """Route every ordered leaf pair (used by the Fig.-4 route census)."""
    n = alg.topo.num_leaves
    src, dst = np.divmod(np.arange(n * n, dtype=np.int64), n)
    if not include_self:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    return build_table(alg, zip(src.tolist(), dst.tolist()))


class OracleAutoModK(AutoModK):
    """:class:`~repro.core.heuristics.AutoModK` with its dict-count ``prepare``."""

    def prepare(self, pairs: Sequence[tuple[int, int]]) -> None:
        out_deg: dict[int, int] = {}
        in_deg: dict[int, int] = {}
        for s, d in pairs:
            if s == d:
                continue
            out_deg[s] = out_deg.get(s, 0) + 1
            in_deg[d] = in_deg.get(d, 0) + 1
        max_out = max(out_deg.values(), default=0)
        max_in = max(in_deg.values(), default=0)
        if max_out > max_in:
            self._delegate = SModK(self.topo)
        else:
            self._delegate = DModK(self.topo)


def best_of_k_selection(
    topo: XGFT, seed: int = 0, k: int = 8, probes: int = 12, direction: str = "down"
) -> tuple[int, tuple[int, float]]:
    """``r-nca-best``'s choice over tuple probe lists: ``(seed, score)``.

    The selection loop of :class:`~repro.core.heuristics.BestOfKRNCA`,
    with its probes routed by the oracle :func:`build_table`.
    """
    from repro.contention.metrics import max_network_contention

    cls = RNCADown if direction == "down" else RNCAUp
    rng = np.random.default_rng(np.random.SeedSequence([0xBE5707, seed & 0xFFFFFFFF]))
    probe_pairs = [
        [(int(s), int(d)) for s, d in enumerate(rng.permutation(topo.num_leaves)) if s != d]
        for _ in range(probes)
    ]
    best_seed, best_key = -1, None
    for i in range(k):
        candidate = cls(topo, seed=seed * k + i)
        levels = [max_network_contention(build_table(candidate, pairs)) for pairs in probe_pairs]
        key = (max(levels), float(np.mean(levels)))
        if best_key is None or key < best_key:
            best_seed, best_key = candidate.seed, key
    assert best_key is not None
    return best_seed, best_key
