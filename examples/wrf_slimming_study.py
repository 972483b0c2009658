#!/usr/bin/env python
"""How far can you slim a fat tree for WRF before it hurts?

The motivation of the paper (and of refs [2]-[4]): full-bisection fat
trees are overprovisioned for real workloads — *if* the routing is right.
This study sweeps XGFT(2;16,16;1,w2) for WRF-256 and prints, per w2:

* the hardware cost (switches, ports),
* the slowdown under S-mod-k (the right oblivious scheme here) and under
  static Random (the wrong one),
* the resulting cost-performance picture: with S-mod-k, WRF tolerates a
  2x-slimmed tree at zero slowdown (its ±16 exchange needs exactly one
  uplink per source), while Random pays from the start.

Run:  python examples/wrf_slimming_study.py
"""

from __future__ import annotations

from repro.api import Scenario, compare
from repro.patterns import wrf_pattern
from repro.sim import crossbar_pattern_time
from repro.topology import cost_summary, slimmed_two_level


def main() -> None:
    t_ref = crossbar_pattern_time(wrf_pattern(256), 256)
    print(f"WRF-256 on the ideal crossbar: {t_ref * 1e3:.2f} ms")
    print(
        f"\n{'w2':>3} {'switches':>9} {'ports':>7} "
        f"{'s-mod-k':>9} {'random':>9}   verdict"
    )
    knee = None
    results = {}
    for w2 in range(16, 0, -1):
        topo = slimmed_two_level(16, 16, w2)
        cs = cost_summary(topo)
        # the spec-named "wrf" pattern's crossbar reference is
        # computed once per process and reused for every w2
        base = Scenario(topo, "wrf", "s-mod-k")
        s_modk, rand = (
            r["slowdown"]
            for r in compare([base, base.with_(algorithm="random")], ("slowdown",)).results
        )
        results[w2] = (cs, s_modk, rand)
        verdict = ""
        if s_modk <= 2.0:
            verdict = "within 2x of the crossbar under s-mod-k"
            knee = w2
        print(
            f"{w2:>3} {cs['switches']:>9} {cs['total_ports']:>7} "
            f"{s_modk:>9.2f} {rand:>9.2f}   {verdict}"
        )
    if knee:
        full_cs = results[16][0]
        slim_cs, s_at_knee, rand_at_knee = results[knee]
        saved = 1 - slim_cs["total_ports"] / full_cs["total_ports"]
        print(
            f"\nWith S-mod-k, WRF stays within 2x of the crossbar down to "
            f"w2={knee} — {saved:.0%} of the switch ports removed for a "
            f"{s_at_knee:.1f}x slowdown, where Random already pays "
            f"{rand_at_knee:.1f}x.  The routing scheme, not the bisection, "
            "decides how much slimming a workload tolerates (the paper's "
            "point about refs [2]-[4])."
        )


if __name__ == "__main__":
    main()
