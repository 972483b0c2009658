"""Name-based construction of routing algorithms.

The experiment harness, CLI and benchmarks refer to algorithms by the
names used in the paper's plots (``s-mod-k``, ``d-mod-k``, ``random``,
``r-nca-u``, ``r-nca-d``, ``colored``); the :data:`ALGORITHMS` registry
(a :class:`repro.registry.Registry`) turns those names — optionally
parameterized via the shared spec DSL, ``"r-nca-d(map_kind=mod)"`` —
into configured instances.  :func:`make_algorithm` is the thin
construction shim every consumer (sweep engine, CLI, ``repro.api``
scenarios, benchmarks) goes through.
"""

from __future__ import annotations

from typing import Callable

from ..registry import Registry, parse_spec
from ..topology import XGFT
from .base import RoutingAlgorithm
from .colored import Colored
from .dmodk import DModK
from .heuristics import AutoModK, BestOfKRNCA
from .random_nca import RandomNCA
from .rnca import RNCADown, RNCAUp
from .smodk import SModK

__all__ = [
    "ALGORITHMS",
    "make_algorithm",
    "available_algorithms",
    "register_algorithm",
    "is_oblivious",
    "DETERMINISTIC_ALGORITHMS",
    "RANDOMIZED_ALGORITHMS",
    "SINGLE_SEED_ALGORITHMS",
]

#: the algorithm registry: name -> ``builder(topo, seed=..., **kwargs)``
ALGORITHMS: Registry[Callable[..., RoutingAlgorithm]] = Registry("algorithm")


def _rnca_builder(cls, direction: str):
    """r-NCA builder with the optional best-of-``r`` selection knob.

    ``r`` draws that many candidate relabelings and installs the one
    with the best worst-case probe contention (the conclusion's
    future-work heuristic, :class:`~repro.core.heuristics.BestOfKRNCA`);
    ``r=1`` (the default) is the plain single-draw scheme.
    """

    def build(topo, seed=0, r=1, **kw):
        if r == 1:
            return cls(topo, seed=seed, **kw)
        return BestOfKRNCA(topo, seed=seed, k=int(r), direction=direction, **kw)

    return build


ALGORITHMS.register(SModK.name, lambda topo, seed=0, **kw: SModK(topo))
ALGORITHMS.register(DModK.name, lambda topo, seed=0, **kw: DModK(topo))
ALGORITHMS.register(RandomNCA.name, lambda topo, seed=0, **kw: RandomNCA(topo, seed=seed))
ALGORITHMS.register(RNCAUp.name, _rnca_builder(RNCAUp, "up"))
ALGORITHMS.register(RNCADown.name, _rnca_builder(RNCADown, "down"))
ALGORITHMS.register(Colored.name, lambda topo, seed=0, **kw: Colored(topo, seed=seed, **kw))
ALGORITHMS.register(AutoModK.name, lambda topo, seed=0, **kw: AutoModK(topo))
ALGORITHMS.register(
    BestOfKRNCA.name, lambda topo, seed=0, **kw: BestOfKRNCA(topo, seed=seed, **kw)
)

#: algorithms whose routes do not depend on a seed
DETERMINISTIC_ALGORITHMS = (SModK.name, DModK.name)
#: algorithms evaluated over many seeds in the paper's boxplots
RANDOMIZED_ALGORITHMS = (RandomNCA.name, RNCAUp.name, RNCADown.name)
#: algorithms swept with a single seed by the sweep planner: either
#: seed-free, or (Colored, the heuristics) plotted as one series in the
#: paper rather than boxed over seeds
SINGLE_SEED_ALGORITHMS = DETERMINISTIC_ALGORITHMS + (
    Colored.name,
    AutoModK.name,
    BestOfKRNCA.name,
)


def is_oblivious(algorithm: RoutingAlgorithm) -> bool:
    """True iff the algorithm never looks at the pattern it routes.

    Detected structurally: an algorithm is oblivious exactly when its
    class keeps the no-op :meth:`~RoutingAlgorithm.prepare` hook.  Only
    an oblivious scheme's routes can be built ahead of the traffic: the
    dynamic driver routes a whole arrival stream up front, and the
    route store and ``repro serve`` hold its all-pairs table — a
    pattern-aware scheme's answers change with every pattern.
    """
    return type(algorithm).prepare is RoutingAlgorithm.prepare


def register_algorithm(
    name: str, builder: Callable[..., RoutingAlgorithm], *, override: bool = False
) -> None:
    """Register a custom algorithm (see ``examples/custom_routing_algorithm.py``).

    ``builder(topo, seed=..., **kwargs)`` must return a
    :class:`~repro.core.base.RoutingAlgorithm`.  Thin shim over
    ``ALGORITHMS.register``.
    """
    ALGORITHMS.register(name, builder, override=override)


def available_algorithms() -> tuple[str, ...]:
    """Registered algorithm names."""
    return ALGORITHMS.names()


def make_algorithm(name: str, topo: XGFT, seed: int = 0, **kwargs) -> RoutingAlgorithm:
    """Instantiate an algorithm by its paper name or full spec string.

    ``name`` may carry spec-DSL parameters (``"r-nca-d(map_kind=mod)"``);
    explicit ``**kwargs`` win over spec parameters on collision.

    ``topo`` may be any resolved topology.  The paper's NCA schemes are
    only defined on XGFTs; asking for one on a general graph raises
    unless the registered builder advertises ``supports_graphs = True``
    (the :mod:`repro.graphs` schemes do, and they also accept XGFTs by
    lowering them).
    """
    if "(" in name:
        name, spec_kwargs = parse_spec(name)
        kwargs = {**spec_kwargs, **kwargs}
    builder = ALGORITHMS.get(name)
    if not isinstance(topo, XGFT) and not getattr(builder, "supports_graphs", False):
        raise ValueError(
            f"algorithm {name!r} is defined only on XGFT topologies; "
            f"on general graphs use a graph-capable scheme "
            f"(e.g. random-walk, racke-tree)"
        )
    return builder(topo, seed=seed, **kwargs)
