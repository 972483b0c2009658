"""The simulation-engine registry.

Every place the package selects an execution backend — the
:class:`repro.api.Scenario` facade, the sweep engine, the CLI, the
phase drivers in :mod:`repro.sim.network` — resolves the engine name
through :data:`ENGINES`, a :class:`repro.registry.Registry` like the
algorithm/pattern/topology/metric registries.  Third-party backends
join by registration instead of by editing engine internals::

    from repro.sim.engines import Engine, register_engine

    register_engine(Engine(
        name="fluid-gpu",
        kind="fluid",
        factory=GpuFluidSimulator,
        description="max-min fluid model on the GPU",
    ))

Two engine *kinds* exist:

* ``"fluid"`` — a phase-level max-min fluid backend; ``factory`` builds
  a simulator over ``(num_links, capacity)`` exposing the
  :class:`repro.sim.fluid.FluidSimulator` surface (``add_flows`` /
  ``run_until_idle`` / ``results`` ...).  Built-ins: ``fluid`` (the
  scalar reference implementation), ``fluid-vec`` (the vectorized
  batch engine, the default) and ``fluid-vec-inc`` (the incremental
  engine for dynamic traffic); the two vectorized engines share the
  filling kernel of :mod:`repro.sim.maxmin` — see
  ``docs/performance.md``.
* ``"replay"`` — the Dimemas-substitute trace replay; it drives whole
  patterns causally and has no per-phase simulator factory.  Its
  transfer network (:class:`repro.dimemas.FluidTransferNetwork`) runs
  on :data:`DEFAULT_ENGINE`, so this module builds every simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..registry import Registry
from .fluid import FluidSimulator
from .fluid_inc import IncFluidSimulator
from .fluid_vec import VecFluidSimulator

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINES",
    "Engine",
    "available_engines",
    "fluid_engine_names",
    "is_fluid_engine",
    "make_fluid_simulator",
    "register_engine",
    "resolve_engine",
]

#: the engine registry: name -> :class:`Engine`
ENGINES: Registry = Registry("engine")

#: the engine used when a caller does not name one.  ``fluid-vec`` is
#: the default: the equivalence suite (property + golden + Venus
#: cross-validation + the engine-agreement cells) proves it computes
#: the scalar engine's allocation, and ``bench/run.py`` times it.
DEFAULT_ENGINE = "fluid-vec"


@dataclass(frozen=True)
class Engine:
    """A named, registered simulation backend."""

    name: str
    #: ``"fluid"`` (phase-level fluid model) or ``"replay"``
    kind: str
    #: ``(num_links, capacity) -> simulator`` for fluid-kind engines
    factory: Callable | None = None
    description: str = ""

    def __post_init__(self):
        if self.kind not in ("fluid", "replay"):
            raise ValueError(f"unknown engine kind {self.kind!r}")
        if self.kind == "fluid" and self.factory is None:
            raise ValueError("a fluid-kind engine needs a simulator factory")


def register_engine(engine: Engine, *, override: bool = False) -> Engine:
    """Register an :class:`Engine` under its own name."""
    ENGINES.register(engine.name, engine, override=override)
    return engine


def resolve_engine(name: str | Engine) -> Engine:
    """The registered :class:`Engine`, or ``ValueError`` naming the options."""
    if isinstance(name, Engine):
        return name
    return ENGINES.get(str(name))


def available_engines() -> tuple[str, ...]:
    """Registered engine names (built-in and third-party)."""
    return ENGINES.names()


def fluid_engine_names() -> tuple[str, ...]:
    """The registered fluid-kind engine names."""
    return tuple(n for n in ENGINES.names() if ENGINES.get(n).kind == "fluid")


def is_fluid_engine(name: str | Engine) -> bool:
    """Does ``name`` denote a phase-level fluid backend?"""
    return resolve_engine(name).kind == "fluid"


def make_fluid_simulator(name: str | Engine, num_links: int, capacity):
    """Instantiate the fluid simulator of a fluid-kind engine."""
    engine = resolve_engine(name)
    if engine.kind != "fluid":
        raise ValueError(
            f"engine {engine.name!r} is not a fluid backend and cannot "
            "run the phase-level fluid model"
        )
    return engine.factory(num_links, capacity)


register_engine(
    Engine(
        name="fluid",
        kind="fluid",
        factory=FluidSimulator,
        description="scalar max-min fluid reference implementation",
    )
)
register_engine(
    Engine(
        name="fluid-vec",
        kind="fluid",
        factory=VecFluidSimulator,
        description="vectorized batch max-min fluid engine (default)",
    )
)
register_engine(
    Engine(
        name="fluid-vec-inc",
        kind="fluid",
        factory=IncFluidSimulator,
        description=(
            "incremental max-min fluid engine: component-local refills "
            "with exact-agreement fallback to full filling"
        ),
    )
)
register_engine(
    Engine(
        name="replay",
        kind="replay",
        description="Dimemas-substitute causal trace replay",
    )
)
