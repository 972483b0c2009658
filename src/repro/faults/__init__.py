"""Fault injection and degraded-topology resilience evaluation.

The paper evaluates oblivious routing on pristine XGFTs; this package
asks the deployment question: what happens to those schemes when cables
and switches fail?  Four pieces:

* :mod:`repro.faults.models` — fault sets, seeded/adversarial sampling,
  fault schedules and the ``links:rate=...`` spec DSL;
* :mod:`repro.faults.degraded` — :class:`DegradedTopology`, the failure
  mask view of an XGFT with vectorized leaf-to-leaf reachability;
* :mod:`repro.faults.repair` — local route repair (keep surviving
  routes, re-draw broken ones through surviving NCAs) over route
  tables, plus LFT re-export for destination-deterministic schemes;
* :mod:`repro.faults.metrics` — disconnected-pair fraction, load
  inflation vs the fault-free baseline, inflation CDFs.

The sweep engine exposes all of it as a ``faults`` grid axis, and
``repro faults`` produces failure-rate slowdown curves from the shell.
"""

from .degraded import DegradedTopology
from .metrics import (
    DEFAULT_INFLATION_QUANTILES,
    ResilienceReport,
    inflation_ratio,
    load_inflation_cdf,
    resilience_report,
)
from .models import (
    FaultSchedule,
    FaultSet,
    FaultSpec,
    parse_fault_spec,
    random_link_faults,
    random_switch_faults,
    worst_link_faults,
)
from .repair import (
    PAIR_DISCONNECTED,
    PAIR_INTACT,
    PAIR_REPAIRED,
    RepairResult,
    UnreachablePairError,
    export_repaired_lfts,
    repair_pairs,
    repair_table,
)

__all__ = [
    "FaultSet",
    "FaultSchedule",
    "FaultSpec",
    "parse_fault_spec",
    "random_link_faults",
    "random_switch_faults",
    "worst_link_faults",
    "DegradedTopology",
    "UnreachablePairError",
    "RepairResult",
    "repair_table",
    "repair_pairs",
    "PAIR_INTACT",
    "PAIR_REPAIRED",
    "PAIR_DISCONNECTED",
    "export_repaired_lfts",
    "ResilienceReport",
    "resilience_report",
    "load_inflation_cdf",
    "inflation_ratio",
    "DEFAULT_INFLATION_QUANTILES",
]
