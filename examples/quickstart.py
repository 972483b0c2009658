#!/usr/bin/env python
"""Quickstart: build an XGFT, route a pattern, measure contention and time.

Walks the core API end to end:

1. construct topologies (full and slimmed 16-ary 2-trees, Table-I labels);
2. route individual pairs with each oblivious scheme;
3. census a routed pattern's contention (endpoint vs network);
4. simulate a phase with the fluid engine and report the slowdown vs the
   ideal Full-Crossbar;
5. redo the whole study through the high-level ``repro.api`` facade
   (one ``Scenario`` per point, ``compare`` for the table).

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import XGFT, make_algorithm, parse_xgft
from repro.api import Scenario, compare
from repro.contention import contention_report, max_network_contention
from repro.patterns import Phase, shift
from repro.sim import crossbar_phase_time, simulate_phase_fluid
from repro.topology import ascii_art, cost_summary


def main() -> None:
    # -- 1. topologies ----------------------------------------------------
    full = XGFT((16, 16), (1, 16))          # the paper's 16-ary 2-tree
    slim = parse_xgft("XGFT(2;16,16;1,8)")  # half the roots
    print(ascii_art(parse_xgft("XGFT(2;4,4;1,2)")))
    print()
    for topo in (full, slim):
        cs = cost_summary(topo)
        print(
            f"{topo}: {cs['switches']} switches, {cs['total_ports']} ports, "
            f"full-bisection={cs['is_full_bisection']}"
        )

    # -- 2. routes ----------------------------------------------------------
    src, dst = 3, 200
    print(f"\nroutes for leaf {src} -> leaf {dst} (NCA level "
          f"{full.nca_level(src, dst)}):")
    for name in ("s-mod-k", "d-mod-k", "random", "r-nca-u", "r-nca-d"):
        alg = make_algorithm(name, full, seed=42)
        route = alg.route(src, dst)
        print(f"  {name:>8}: up-ports {route.up_ports}, "
              f"path {route.node_path(full)}")

    # -- 3. contention census -------------------------------------------------
    pattern = shift(256, 16)  # cyclic +16 shift: every switch talks ahead
    pairs = pattern.pairs()
    print(f"\n+16 shift on {full}:")
    for name in ("d-mod-k", "random"):
        table = make_algorithm(name, full, seed=1).build_table(pairs)
        rep = contention_report(table)
        print(
            f"  {name:>8}: network contention C={rep.max_network_contention}, "
            f"{rep.num_contended_links} contended links"
        )

    # -- 4. timed simulation -----------------------------------------------
    phase = Phase.from_pairs(pairs, size=256 * 1024)
    t_ref = crossbar_phase_time(phase, 256)
    print(f"\nphase time on the ideal crossbar: {t_ref * 1e3:.3f} ms")
    for name in ("d-mod-k", "random"):
        table = make_algorithm(name, full, seed=1).build_table(pairs)
        t = simulate_phase_fluid(table, [256 * 1024] * len(table))
        print(f"  {name:>8}: {t * 1e3:.3f} ms  (slowdown {t / t_ref:.2f}x)")

    # -- 5. the same study, one facade call each ----------------------------
    # steps 2-4 by hand above; repro.api.Scenario does route + simulate +
    # measure per {topology, pattern, algorithm} point, caches the shared
    # intermediates and tabulates the comparison (docs/api.md)
    base = Scenario("xgft:2;16,16;1,8", "shift(d=16)", "d-mod-k")
    print("\nvia repro.api on the slimmed tree:")
    print(
        compare(
            [base, base.with_(algorithm="random"), base.with_(algorithm="r-nca-d")],
            metrics=("max_link_load", "max_network_contention", "slowdown"),
        )
    )


if __name__ == "__main__":
    main()
