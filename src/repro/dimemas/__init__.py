"""Trace-driven MPI replay (the Dimemas substitute, paper Sec. VI-B).

* :mod:`repro.dimemas.trace` — trace records and text (de)serialization;
* :mod:`repro.dimemas.tracegen` — synthetic WRF / NAS-CG trace builders;
* :mod:`repro.dimemas.replay` — the replay engine and its one fluid
  network (an XGFT's routes, installed in one batch before the replay,
  or the crossbar, on the default fluid engine);
* :mod:`repro.dimemas.busmodel` — the classic Dimemas bus model.
"""

from .busmodel import BusTransferNetwork
from .replay import (
    FluidTransferNetwork,
    ReplayEngine,
    ReplayResult,
    TransferNetwork,
    replay_on_crossbar,
    replay_on_xgft,
    route_trace,
)
from .trace import (
    Barrier,
    Compute,
    Irecv,
    Isend,
    Record,
    Recv,
    Send,
    SendRecv,
    Trace,
    WaitAll,
)
from .tracegen import cg_trace, pattern_trace, wrf_trace

__all__ = [
    "Trace",
    "Record",
    "Compute",
    "Send",
    "Recv",
    "Isend",
    "Irecv",
    "WaitAll",
    "SendRecv",
    "Barrier",
    "ReplayEngine",
    "ReplayResult",
    "TransferNetwork",
    "FluidTransferNetwork",
    "BusTransferNetwork",
    "route_trace",
    "replay_on_xgft",
    "replay_on_crossbar",
    "wrf_trace",
    "cg_trace",
    "pattern_trace",
]
