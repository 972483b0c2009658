#!/usr/bin/env python
"""The co-simulation toolchain: traces, replay, and three network models.

The paper couples Dimemas (MPI replay from post-mortem traces) with
Venus (flit-level network simulation).  This demo exercises our
substitutes end to end:

1. generate a synthetic CG.D trace (five SendRecv exchange phases with
   compute between iterations), show its text serialization;
2. replay it on three network models — the ideal Full-Crossbar, the
   classic Dimemas bus model, and the fluid XGFT model under two routing
   schemes;
3. cross-check one contended phase against the flit-level engine.

Run:  python examples/trace_replay_demo.py
"""

from __future__ import annotations

from repro.core import DModK, RNCADown
from repro.dimemas import (
    BusTransferNetwork,
    ReplayEngine,
    cg_trace,
    replay_on_crossbar,
    replay_on_xgft,
)
from repro.patterns import cg_transpose_exchange
from repro.sim import NetworkConfig, VenusSimulator, simulate_phase_fluid
from repro.topology import slimmed_two_level


def main() -> None:
    # -- 1. the trace ---------------------------------------------------
    trace = cg_trace(128, iterations=2, compute_time=2e-3)
    print(f"CG.D-128 trace: {trace.num_ranks} ranks, {len(trace)} records")
    print("rank 2's program (first iteration):")
    for rec in trace.programs[2][:6]:
        print(f"  {rec}")
    text = trace.to_text()
    print(f"text form: {len(text.splitlines())} lines, first three:")
    for line in text.splitlines()[:3]:
        print(f"  {line}")

    # -- 2. replay on three network models ----------------------------------
    print("\nreplaying the trace:")
    xbar = replay_on_crossbar(trace, 256)
    print(f"  full-crossbar          : {xbar.total_time * 1e3:8.2f} ms "
          f"({xbar.num_transfers} transfers)")

    bus = ReplayEngine(trace, BusTransferNetwork(128, buses=64)).run()
    print(f"  dimemas bus model (64) : {bus.total_time * 1e3:8.2f} ms")

    topo = slimmed_two_level(16, 16, 16)
    for alg, label in ((DModK(topo), "d-mod-k"), (RNCADown(topo, seed=3), "r-nca-d")):
        res = replay_on_xgft(trace, topo, alg)
        print(
            f"  {topo} + {label:<8}: {res.total_time * 1e3:8.2f} ms "
            f"(slowdown {res.total_time / xbar.total_time:.2f}x)"
        )

    # -- 3. flit-level cross-check of the hot phase -------------------------
    cfg = NetworkConfig(hop_latency=0.0)
    pairs = cg_transpose_exchange(128)
    size = 64 * 1024  # scaled down so the flit run stays snappy
    table = DModK(topo).build_table(pairs)
    fluid = simulate_phase_fluid(table, [size] * len(table), cfg)
    venus = VenusSimulator(topo, cfg)
    venus.inject_table(table, [size] * len(table))
    vres = venus.run()
    print(
        f"\ntranspose phase under d-mod-k, {size // 1024} KiB messages:\n"
        f"  fluid engine      : {fluid * 1e6:9.1f} us\n"
        f"  flit-level engine : {vres.duration * 1e6:9.1f} us "
        f"({vres.events_processed} events, ratio {vres.duration / fluid:.3f})"
    )


if __name__ == "__main__":
    main()
