"""The recursive per-subtree relabeling behind the r-NCA family (Sec. VIII).

The paper's proposal keeps the *self-routing* structure of S-mod-k /
D-mod-k (route from the label digits of one endpoint) but replaces the
raw digits by *relabeled* ones so that

1. the root "responsibilities" are assigned randomly (breaking the
   regularity that makes CG pathological), and
2. the assignment of the ``m_i`` child positions onto the ``w_{i+1}``
   parent ports is *balanced* even when ``w_{i+1} < m_i`` (fixing the
   modulo imbalance of Sec. VII-D: with plain ``mod``, residues
   ``< m_i mod w_{i+1}`` receive one extra child each).

Formally (paper Sec. VIII): for every digit position ``i`` and every
subtree context (the more-significant digits ``M_h..M_{i+1}``) we draw a
*balanced random surjection* ``[0, m_i) -> [0, w_{i+1})`` — every image
value receives either ``floor(m_i/w_{i+1})`` or ``ceil(m_i/w_{i+1})``
preimages, a random permutation when the two sizes coincide.  Because the
scrambles are drawn independently *per subtree*, the relabeling preserves
topological neighbourhoods ("otherwise the relabeling, and thus the
routing, would be completely random" — the paper's footnote); the
ablation bench quantifies exactly that degradation.

The maps are materialized as one NumPy table per level, and their
images as one per-leaf port table, so relabeled digit extraction is a
single gather.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ..topology import XGFT

__all__ = ["RelabelMaps", "balanced_random_map", "mod_map"]

MapKind = Literal["balanced-random", "mod", "global-random"]


def balanced_random_map(m: int, w: int, rng: np.random.Generator) -> np.ndarray:
    """A balanced random surjection ``[0, m) -> [0, w)`` as an int array.

    Every image value receives ``floor(m/w)`` or ``ceil(m/w)`` preimages;
    which values get the extra preimage, and which preimages map where,
    is uniformly random.  For ``m == w`` this is a uniform random
    permutation.
    """
    if m < 1 or w < 1:
        raise ValueError(f"need m >= 1 and w >= 1, got m={m}, w={w}")
    # floor(m/w) preimages for everybody, plus one extra for a uniformly
    # random subset of m mod w image values (not always 0..m%w-1, which
    # would re-introduce a deterministic skew akin to the modulo's).
    values = np.tile(np.arange(w, dtype=np.int64), m // w)
    extra = m % w
    if extra:
        values = np.concatenate(
            [values, rng.choice(w, size=extra, replace=False).astype(np.int64)]
        )
    rng.shuffle(values)
    return values


def mod_map(m: int, w: int) -> np.ndarray:
    """The plain modulo map ``x -> x mod w`` (degenerates r-NCA to S/D-mod-k)."""
    return np.arange(m, dtype=np.int64) % w


class RelabelMaps:
    """Per-level, per-subtree relabeled digits for one XGFT.

    Parameters
    ----------
    topo:
        The topology.
    seed:
        Seed for the scramble draws (one independent stream per level).
    kind:
        * ``"balanced-random"`` — the paper's proposal (default);
        * ``"mod"`` — plain modulo maps: the relabeling becomes the
          identity of S/D-mod-k (ablation / sanity baseline);
        * ``"global-random"`` — a single scramble per level shared by all
          subtrees (ablation: loses the per-subtree independence that
          breaks pattern regularity, cf. DESIGN.md Sec. 6).

    Notes
    -----
    ``table[level]`` has shape ``(num_contexts(level), m_digit)`` where a
    *context* is the tuple of digits above the scrambled one, identified
    by the integer ``leaf // P_{digit}``; entry ``[c, v]`` is the new
    digit (an up-port in ``[0, w_{level+1})``).  Level 0 scrambles digit
    ``M_1`` into ``[0, w_1)`` (trivial for the usual ``w_1 == 1``);
    level ``l >= 1`` scrambles digit ``M_l`` into ``[0, w_{l+1})``,
    mirroring the mod-k port rule it replaces.  :meth:`port_array` reads
    a per-leaf ``(n, h)`` table of these new digits, gathered from the
    maps once at construction.
    """

    def __init__(self, topo: XGFT, seed: int = 0, kind: MapKind = "balanced-random"):
        self.topo = topo
        self.seed = int(seed)
        self.kind: MapKind = kind
        root = np.random.SeedSequence([0x5CA1AB1E, self.seed & 0xFFFFFFFF])
        level_seeds = root.spawn(topo.h)
        self._tables: list[np.ndarray] = []
        # every leaf's relabeled digit per level: column ``level`` holds
        # ``table(level)[context, digit]``, gathered once from the maps
        leaves = np.arange(topo.num_leaves, dtype=np.int64)
        self._ports = np.empty((topo.num_leaves, topo.h), dtype=np.int64, order="F")
        for level in range(topo.h):
            digit_index = max(level, 1)  # M_1 at level 0, M_l at level l
            m_digit = topo.m[digit_index - 1]
            w_port = topo.w[level]
            num_contexts = topo.num_leaves // topo.mprod(digit_index)
            rng = np.random.default_rng(level_seeds[level])
            if kind == "mod":
                table = np.broadcast_to(
                    mod_map(m_digit, w_port), (num_contexts, m_digit)
                ).copy()
            elif kind == "global-random":
                table = np.broadcast_to(
                    balanced_random_map(m_digit, w_port, rng),
                    (num_contexts, m_digit),
                ).copy()
            elif kind == "balanced-random":
                table = np.empty((num_contexts, m_digit), dtype=np.int64)
                for c in range(num_contexts):
                    table[c] = balanced_random_map(m_digit, w_port, rng)
            else:  # pragma: no cover - guarded by Literal type
                raise ValueError(f"unknown relabel map kind: {kind!r}")
            self._tables.append(table)
            digit = (leaves // topo.mprod(digit_index - 1)) % m_digit
            self._ports[:, level] = table[leaves // topo.mprod(digit_index), digit]

    def table(self, level: int) -> np.ndarray:
        """The ``(contexts, m)`` map table of ``level`` (read-only view)."""
        return self._tables[level]

    def port_array(self, level: int, endpoint: np.ndarray) -> np.ndarray:
        """Relabeled digit (= up-port at ``level``) for an endpoint-id array."""
        return self._ports[:, level][endpoint]

    def new_label(self, leaf: int) -> tuple[int, ...]:
        """The full relabeled digit tuple of a leaf, MSB first.

        The paper writes the top digit as "-" (irrelevant to routing); we
        report it as ``-1``.  Mostly useful for inspection and tests.
        """
        leaf_arr = np.asarray([leaf], dtype=np.int64)
        digits = [int(self.port_array(level, leaf_arr)[0]) for level in range(self.topo.h)]
        return (-1, *reversed(digits[1:])) if self.topo.h > 1 else (-1,)
