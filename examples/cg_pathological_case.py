#!/usr/bin/env python
"""Anatomy of a routing pathology: NAS CG.D-128 under D-mod-k.

Reproduces the paper's Sec. VII-A analysis step by step:

1. CG's five equal-size (750 KB) exchange phases — four switch-local,
   one transpose-pair exchange across switches (Fig. 3);
2. Eq. (2): the transpose destinations' ``d mod 16`` digit takes only
   two values per source switch, so D-mod-k funnels all fourteen
   inter-switch flows of a switch through two uplinks;
3. the measured consequence: the phase runs ~7-8x slower than on an
   ideal crossbar, dragging the whole application to >2x;
4. the paper's fix: r-NCA-d keeps D-mod-k's structure but randomizes the
   NCA responsibilities, dissolving the resonance.

Run:  python examples/cg_pathological_case.py
"""

from __future__ import annotations

from collections import defaultdict

from repro.api import Scenario, compare
from repro.contention import contention_report
from repro.core import make_algorithm
from repro.patterns import cg_pattern, cg_transpose_exchange
from repro.sim import crossbar_phase_time, simulate_phase_fluid
from repro.topology import slimmed_two_level


def main() -> None:
    topo = slimmed_two_level(16, 16, 16)  # the full 16-ary 2-tree
    pattern = cg_pattern(128)

    # -- 1. the pattern ----------------------------------------------------
    print(f"CG.D-128 on {topo} (sequential mapping):")
    for phase in pattern.phases:
        local = int((phase.src // 16 == phase.dst // 16).sum())
        print(
            f"  {phase.name:<22} {len(phase):>3} flows x "
            f"{phase.sizes[0]} B, {local}/{len(phase)} switch-local"
        )

    # -- 2. Eq. (2) ---------------------------------------------------------
    pairs = cg_transpose_exchange(128)
    digits = defaultdict(set)
    for s, d in pairs:
        digits[s // 16].add(d % 16)
    print("\nEq. (2): destination digit (d mod 16) per source switch:")
    for sw in sorted(digits):
        print(f"  switch {sw}: {sorted(digits[sw])}")

    # -- 3. the consequence ---------------------------------------------------
    dmodk = make_algorithm("d-mod-k", topo)
    table = dmodk.build_table(pairs)
    rep = contention_report(table)
    print(
        f"\nD-mod-k routes the transpose phase with network contention "
        f"C = {rep.max_network_contention} "
        f"(14 flows forced over 2 uplinks per switch)"
    )
    transpose = pattern.phases[-1]
    t_phase = simulate_phase_fluid(table, transpose.sizes)
    t_ref = crossbar_phase_time(transpose, 256)
    print(
        f"simulated phase time: {t_phase * 1e3:.2f} ms vs crossbar "
        f"{t_ref * 1e3:.2f} ms -> {t_phase / t_ref:.1f}x (paper: ~8x)"
    )

    # -- 4. the fix ---------------------------------------------------------
    # one compare() per scheme; every scenario sends the same traffic, so
    # all of them divide by one memoized crossbar reference
    print("\nwhole-application slowdown vs Full-Crossbar:")
    for name in ("d-mod-k", "random", "r-nca-d", "colored"):
        seeds = range(5) if name in ("random", "r-nca-d") else [0]
        scenarios = [Scenario(topo, pattern, name, seed=s) for s in seeds]
        values = [r["slowdown"] for r in compare(scenarios, ("slowdown",)).results]
        mid = sorted(values)[len(values) // 2]
        print(f"  {name:>8}: {mid:.2f}x" + ("  (median of 5 seeds)" if len(values) > 1 else ""))
    print(
        "\nr-NCA-d keeps D-mod-k's endpoint concentration but randomizes "
        "which root serves which destination, breaking the modulo/pattern "
        "resonance — the paper's Sec. VIII proposal."
    )


if __name__ == "__main__":
    main()
