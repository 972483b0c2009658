"""Network simulation engines (paper Sec. VI-B).

* :mod:`repro.sim.fluid` — scalar max-min fair fluid model (the
  reference implementation and test oracle);
* :mod:`repro.sim.maxmin` — the parallel progressive-filling kernel
  and the flow slots / batch ingest both vectorized engines share;
* :mod:`repro.sim.fluid_vec` — vectorized batch fluid engine (the
  default sweep workhorse; same allocation, one full refill per epoch);
* :mod:`repro.sim.fluid_inc` — incremental fluid engine for dynamic
  traffic (component-local refills, lazy draining);
* :mod:`repro.sim.engines` — the engine registry every backend
  selection resolves through (``fluid`` / ``fluid-vec`` /
  ``fluid-vec-inc`` / ``replay``);
* :mod:`repro.sim.venus` — flit-level event-driven engine (the Venus
  substitute; used for validation and latency-sensitive studies);
* :mod:`repro.sim.network` — the link-space glue, the phase makespan
  and the Full-Crossbar reference (patterns are timed through
  :mod:`repro.api`);
* :mod:`repro.sim.config` — the paper's network parameters.
"""

from .config import PAPER_CONFIG, NetworkConfig
from .engines import (
    DEFAULT_ENGINE,
    ENGINES,
    Engine,
    available_engines,
    fluid_engine_names,
    is_fluid_engine,
    make_fluid_simulator,
    register_engine,
    resolve_engine,
)
from .events import EventQueue
from .fluid import FlowResult, FluidSimulator
from .fluid_inc import IncFluidSimulator
from .fluid_vec import VecFluidSimulator
from .network import (
    LinkSpace,
    crossbar_link_space,
    crossbar_pattern_time,
    crossbar_phase_time,
    simulate_phase_fluid,
    xgft_link_space,
)
from .venus import VenusResult, VenusSimulator

__all__ = [
    "NetworkConfig",
    "PAPER_CONFIG",
    "EventQueue",
    "FluidSimulator",
    "IncFluidSimulator",
    "VecFluidSimulator",
    "FlowResult",
    "DEFAULT_ENGINE",
    "ENGINES",
    "Engine",
    "available_engines",
    "fluid_engine_names",
    "is_fluid_engine",
    "make_fluid_simulator",
    "register_engine",
    "resolve_engine",
    "LinkSpace",
    "xgft_link_space",
    "crossbar_link_space",
    "simulate_phase_fluid",
    "crossbar_phase_time",
    "crossbar_pattern_time",
    "VenusSimulator",
    "VenusResult",
]
