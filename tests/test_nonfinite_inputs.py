"""NaN and infinity are rejected wherever numbers enter the simulators.

``x <= 0`` and ``x < 0`` are both False for NaN, and an infinite flow
size satisfies the completion test ``remaining <= eps * size + eps``
(``inf <= inf``), so without explicit checks a NaN or ``inf`` would
pass validation and "complete" flows, stall the event loop, or finish a
flow at t=0 — differently on each engine — and a NaN or negative hop
latency would schedule flit-level events at NaN or past times.  Every
registered fluid engine, the network configuration, the arrival stream
and the trace reader must raise ``ValueError`` instead.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.sim import NetworkConfig
from repro.sim.engines import fluid_engine_names, make_fluid_simulator
from repro.workloads import ArrivalStream, read_trace, resolve_workload, write_trace

BAD = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("engine", fluid_engine_names())
class TestEngines:
    @pytest.mark.parametrize("bad", BAD)
    def test_capacity(self, engine, bad):
        with pytest.raises(ValueError, match="finite"):
            make_fluid_simulator(engine, 2, bad)
        with pytest.raises(ValueError, match="finite"):
            make_fluid_simulator(engine, 2, np.asarray([1.0, bad]))

    @pytest.mark.parametrize("bad", BAD)
    def test_flow_size(self, engine, bad):
        sim = make_fluid_simulator(engine, 2, 1.0)
        with pytest.raises(ValueError, match="finite"):
            sim.add_flow(0, [0], bad)
        # the flow was not admitted: the engine is still idle and usable
        assert sim.active_flows == 0
        sim.add_flow(0, [0], 1.0)
        assert sim.run_until_idle() == pytest.approx(1.0)
        with pytest.raises(ValueError, match="finite"):
            make_fluid_simulator(engine, 2, 1.0).add_flows(
                np.asarray([0, 1]),
                np.asarray([1.0, bad]),
                np.asarray([0, 1]),
                np.asarray([0, 1]),
            )


@pytest.mark.parametrize("bad", (*BAD, 0.0, -1.0))
def test_link_bandwidth(bad):
    with pytest.raises(ValueError, match="link_bandwidth"):
        NetworkConfig(link_bandwidth=bad)


@pytest.mark.parametrize("bad", (*BAD, -1e-9))
def test_hop_latency(bad):
    with pytest.raises(ValueError, match="hop_latency"):
        NetworkConfig(hop_latency=bad)
    assert NetworkConfig(hop_latency=0.0).hop_latency == 0.0


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("column", ("times", "sizes"))
def test_arrival_stream(bad, column):
    arrays = {"times": [0.0, 1.0], "src": [0, 1], "dst": [1, 0], "sizes": [1.0, 2.0]}
    arrays[column] = [arrays[column][0], bad]
    with pytest.raises(ValueError, match="finite"):
        ArrivalStream(**{k: np.asarray(v) for k, v in arrays.items()})


@pytest.mark.parametrize("bad", ("inf", "nan"))
@pytest.mark.parametrize("column", ("time", "size"))
def test_trace_file(tmp_path, bad, column):
    """A trace file carrying inf / nan fails to load instead of
    replaying as completed flows."""
    good = ArrivalStream(
        np.asarray([0.0, 1e-6, 2e-6]),
        np.asarray([0, 1, 2]),
        np.asarray([1, 2, 3]),
        np.asarray([1e5, 2e5, 3e5]),
    )
    path = tmp_path / "arrivals.csv"
    write_trace(good, path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[2].split(",")
    row[header.index(column)] = bad
    lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="finite"):
        read_trace(path)
    with pytest.raises(ValueError, match="finite"):
        resolve_workload(f"trace(path={path})", 16).generate()
