"""Golden regression of the general-graph smoke grids.

Two sweeps, each gated against its own committed baseline by
:func:`repro.experiments.sweep_compare` at 5%:

* the **graph grid** — {fat tree, leaf-spine with failed links,
  random-regular} x {random-walk, racke-tree}, 64 hosts each, against
  ``benchmarks/baseline_graph.json``;
* the **bridge grid** — the shared fat tree only, running
  ``xgft-path(scheme=d-mod-k)`` (the paper's D-mod-k replayed through
  the path machinery) next to plain ``d-mod-k``, against
  ``benchmarks/baseline_graph_bridge.json``; the bridge exists only on
  XGFT-derived graphs, hence the second sweep.

Each baseline is the ``-o`` artifact of the matching ``repro sweep``
command in ``docs/graphs.md``: rerun that command to rewrite it after
an intended change, and ``repro compare`` gates any other run of it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import (
    SweepSpec,
    format_sweep_compare,
    load_artifact,
    run_sweep,
    sweep_compare,
)
from repro.graphs.contention import GRAPH_METRICS

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"

FAT_TREE = "XGFT(2;8,8;1,4)"
GRAPH_TOPOLOGIES = (
    FAT_TREE,
    "leafspine(leaves=8,spines=4,hosts=8,fail=3,seed=1)",
    "random-regular(switches=16,degree=4,hosts=4,seed=3)",
)
PATTERNS = ("bit-reversal", "shift")
METRICS = (
    "max_link_load",
    "mean_link_load",
    "max_network_contention",
    "sim_time",
    "slowdown",
) + GRAPH_METRICS

#: grid -> (spec, baseline, numeric values compared).  The graph grid
#: compares 12 runs x 9 metrics; the bridge grid 2 bridge-path runs x 9
#: plus 2 d-mod-k runs x 5 (the graph congestion metrics answer SKIPPED
#: on XGFT port tables): 136 values in all.
GRIDS = {
    "graph": (
        SweepSpec(
            topologies=GRAPH_TOPOLOGIES,
            patterns=PATTERNS,
            algorithms=("random-walk", "racke-tree"),
            metrics=METRICS,
            engine="fluid-vec",
        ),
        "baseline_graph.json",
        108,
    ),
    "bridge": (
        SweepSpec(
            topologies=(FAT_TREE,),
            patterns=PATTERNS,
            algorithms=("xgft-path(scheme=d-mod-k)", "d-mod-k"),
            metrics=METRICS,
            engine="fluid-vec",
        ),
        "baseline_graph_bridge.json",
        28,
    ),
}


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_smoke_grid_matches_committed_baseline(grid):
    spec, baseline_name, compared = GRIDS[grid]
    baseline = load_artifact(BENCHMARKS / baseline_name)
    assert baseline["spec"] == spec.to_dict()  # written by the documented command
    comparison = sweep_compare(baseline, run_sweep(spec, jobs=2), rel_tol=0.05)
    report = format_sweep_compare(comparison)
    assert comparison.compared == compared, report
    assert comparison.ok, report
    assert not comparison.improvements, report
    assert not comparison.new_runs, report
