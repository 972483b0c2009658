"""The figure/table regeneration harness (paper Secs. VI, VII, IX).

One function per paper artifact (:mod:`repro.experiments.figures`),
the sweep engine (:mod:`repro.experiments.sweep`), boxplot statistics
(:mod:`repro.experiments.stats`) and plain-text rendering
(:mod:`repro.experiments.report`).  A pattern's slowdown vs the
Full-Crossbar is the ``slowdown`` metric of a
:class:`repro.api.Scenario`, the path every figure and sweep takes.
"""

from .figures import (
    DETERMINISTIC,
    RANDOMIZED,
    EquivalenceResult,
    Fig3Result,
    Fig4Result,
    FigureSweep,
    SweepSeries,
    application_pattern,
    equivalence,
    fig2,
    fig3,
    fig4,
    fig5,
    table1,
)
from .report import (
    MetricDelta,
    SweepComparison,
    format_dynamic_sweep,
    format_equivalence,
    format_fault_sweep,
    format_fig3,
    format_fig4,
    format_sweep,
    format_sweep_compare,
    format_sweep_results,
    format_table1,
    sweep_compare,
)
from .stats import BoxStats, box_stats
from .sweep import (
    DEFAULT_METRICS,
    DYNAMIC_METRICS,
    KNOWN_METRICS,
    RESILIENCE_METRICS,
    SCHEMA_VERSION,
    RouteTableCache,
    RunSpec,
    SweepResult,
    SweepSpec,
    dynamic_grid_spec,
    execute_run,
    fault_grid_spec,
    load_artifact,
    plan_runs,
    run_sweep,
    write_artifact,
)

__all__ = [
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "table1",
    "equivalence",
    "FigureSweep",
    "SweepSeries",
    "Fig3Result",
    "Fig4Result",
    "EquivalenceResult",
    "application_pattern",
    "BoxStats",
    "box_stats",
    "format_sweep",
    "format_fig3",
    "format_fig4",
    "format_table1",
    "format_equivalence",
    "DETERMINISTIC",
    "RANDOMIZED",
    # sweep engine
    "SCHEMA_VERSION",
    "DEFAULT_METRICS",
    "DYNAMIC_METRICS",
    "KNOWN_METRICS",
    "RESILIENCE_METRICS",
    "SweepSpec",
    "RunSpec",
    "SweepResult",
    "RouteTableCache",
    "plan_runs",
    "run_sweep",
    "execute_run",
    "write_artifact",
    "load_artifact",
    "fault_grid_spec",
    "dynamic_grid_spec",
    # sweep reports
    "MetricDelta",
    "SweepComparison",
    "sweep_compare",
    "format_sweep_compare",
    "format_sweep_results",
    "format_fault_sweep",
    "format_dynamic_sweep",
]
