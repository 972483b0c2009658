"""Traffic patterns: the data model, permutation algebra, synthetic
generators and the paper's application workloads (Sec. III and VI-A)."""

from .applications import (
    CG_PHASE_MESSAGE,
    WRF_DEFAULT_MESSAGE,
    cg_grid,
    cg_pattern,
    cg_reduce_exchange,
    cg_transpose_exchange,
    wrf_exchange,
    wrf_pattern,
)
from .base import Pattern, Phase
from .decomposition import decompose_into_permutations, max_endpoint_multiplicity
from .generators import (
    bit_complement,
    bit_reversal,
    butterfly,
    hotspot,
    neighbor_exchange,
    shift,
    tornado_groups,
    transpose,
    uniform_random_pairs,
)
from .permutations import Permutation
from .registry import PATTERNS, available_patterns, register_pattern, resolve_pattern

__all__ = [
    "Phase",
    "Pattern",
    "Permutation",
    "PATTERNS",
    "register_pattern",
    "resolve_pattern",
    "available_patterns",
    "shift",
    "transpose",
    "bit_reversal",
    "bit_complement",
    "butterfly",
    "tornado_groups",
    "neighbor_exchange",
    "uniform_random_pairs",
    "hotspot",
    "wrf_exchange",
    "wrf_pattern",
    "cg_grid",
    "cg_pattern",
    "cg_reduce_exchange",
    "cg_transpose_exchange",
    "decompose_into_permutations",
    "max_endpoint_multiplicity",
    "WRF_DEFAULT_MESSAGE",
    "CG_PHASE_MESSAGE",
]
