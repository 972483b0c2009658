"""NCA-level contention analysis (paper Sec. VII-B/C).

Section VII-B counts, for a routing scheme, how many permutations are
routed at each contention level ``C``; the key theorem is that the counts
are *identical* for S-mod-k and D-mod-k, via the inverse-permutation
bijection: routing ``P`` with S-mod-k yields the same contention
distribution as routing ``P^{-1}`` with D-mod-k.  Section VII-C extends
the argument to general patterns through their permutation
decomposition.  The functions here compute the quantities those
experiments need; the theorem itself is asserted exactly by the tests
(``tests/contention/test_nca.py``, and on the paper's slimmed tree in
``tests/experiments/test_figures.py``), and ``repro equivalence``
demonstrates it statistically over random permutations.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from ..core.base import RoutingAlgorithm
from ..patterns.decomposition import decompose_into_permutations
from ..patterns.permutations import Permutation
from .metrics import max_network_contention

__all__ = [
    "pattern_contention_level",
    "permutation_contention_level",
    "contention_spectrum",
    "general_pattern_contention",
]


def pattern_contention_level(
    algorithm: RoutingAlgorithm, pairs: Sequence[tuple[int, int]]
) -> int:
    """Contention level ``C`` of a pattern under an algorithm."""
    flows = [(s, d) for s, d in pairs if s != d]
    if not flows:
        return 0
    return max_network_contention(algorithm.build_table(flows))


def permutation_contention_level(
    algorithm: RoutingAlgorithm, perm: Permutation
) -> int:
    """Contention level of a permutation pattern."""
    return pattern_contention_level(algorithm, perm.pairs())


def contention_spectrum(
    algorithm: RoutingAlgorithm, perms: Iterable[Permutation]
) -> Counter:
    """Histogram {contention level: #permutations} over a permutation set.

    Feeding the same set (or its element-wise inverses) to S-mod-k and
    D-mod-k produces identical histograms — the Sec. VII-B equivalence.
    """
    spectrum: Counter = Counter()
    for perm in perms:
        spectrum[permutation_contention_level(algorithm, perm)] += 1
    return spectrum


def general_pattern_contention(
    algorithm: RoutingAlgorithm, pairs: Sequence[tuple[int, int]]
) -> tuple[int, list[int]]:
    """Sec. VII-C: contention of a general pattern and of its permutation
    rounds.

    Returns ``(c_max, per_round_levels)`` where ``c_max`` is the maximum
    contention over the decomposition rounds.  The paper argues the
    pattern's effective contention is ``c_max`` — same-endpoint flows
    across rounds only add endpoint contention.
    """
    rounds = decompose_into_permutations([(s, d) for s, d in pairs if s != d])
    levels = [pattern_contention_level(algorithm, rnd) for rnd in rounds]
    return (max(levels) if levels else 0, levels)
