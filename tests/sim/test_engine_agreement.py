"""Every fluid engine on the same smoke cells: one allocation, one set of FCTs.

The max-min allocation is unique, so any two engines must finish a
phase at the same simulated time, and the two vectorized engines must
produce the same flow-completion times under churn; a real divergence
is an engine bug, not noise.  The cells:

* four contended *phase* cells on ``XGFT(2;8,8;1,4)``: d-mod-k routes of
  200 or 1,000 uniformly random pairs (seed 0), 64 KiB messages, equal
  (flows finish in rate-class batches) or ±50% mixed (every completion
  is its own event), run on every registered fluid engine;
* one *dynamic* cell: a locality-biased Poisson stream through the
  driver on ``fluid-vec`` and ``fluid-vec-inc``.

The same runs carry the incremental engine's refill-telemetry floors:
a refactor that stops resolving events with component-local partial
refills, or stops reporting the split, fails here.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.factory import make_algorithm
from repro.patterns.generators import uniform_random_pairs
from repro.sim.config import PAPER_CONFIG
from repro.sim.engines import fluid_engine_names, make_fluid_simulator
from repro.sim.network import flow_incidence, xgft_link_space
from repro.topology.registry import resolve_topology
from repro.workloads import DynamicDriver, resolve_workload

TOPOLOGY = "XGFT(2;8,8;1,4)"
FLOW_COUNTS = (200, 1000)
SIZE_MODES = ("uniform", "mixed")
MESSAGE_BYTES = 64 * 1024.0
WORKLOAD = "poisson(load=0.7,sizes=uniform,spread=0.5,flows=600,locality=0.9,group=8)"

#: phase times of two engines agree to this relative difference
PHASE_REL_TOL = 1e-6
#: FCT mean, FCT p99 and makespan of the two vectorized engines agree
#: to this relative difference: the incremental engine's exactness bound
FCT_REL_TOL = 1e-9


def rel_diff(a: float, b: float) -> float:
    denom = max(abs(a), abs(b))
    return abs(a - b) / denom if denom else 0.0


def phase_cell(topo, num_flows: int, sizes: str):
    """One contended phase: its d-mod-k table and message sizes."""
    rng = np.random.default_rng(0)
    pairs = uniform_random_pairs(topo.num_leaves, num_flows, rng)
    table = make_algorithm("d-mod-k", topo).build_table(pairs)
    if sizes == "uniform":
        return table, np.full(num_flows, MESSAGE_BYTES)
    return table, MESSAGE_BYTES * (1.0 + 0.5 * (2.0 * rng.random(num_flows) - 1.0))


def run_phase(engine: str, table, sizes: np.ndarray) -> tuple[float, dict]:
    """The phase's simulated duration and the engine's telemetry."""
    space = xgft_link_space(table.topo)
    coo_flow, coo_link = flow_incidence(table, space)
    sim = make_fluid_simulator(engine, space.num_links, PAPER_CONFIG.link_bandwidth)
    sim.add_flows(np.arange(len(table), dtype=np.int64), sizes, coo_flow, coo_link)
    return sim.run_until_idle(), sim.telemetry()


@pytest.fixture(scope="module")
def phases() -> dict[tuple[int, str], dict[str, tuple[float, dict]]]:
    topo = resolve_topology(TOPOLOGY)
    out = {}
    for num_flows in FLOW_COUNTS:
        for sizes in SIZE_MODES:
            table, flow_sizes = phase_cell(topo, num_flows, sizes)
            out[(num_flows, sizes)] = {
                engine: run_phase(engine, table, flow_sizes)
                for engine in fluid_engine_names()
            }
    return out


@pytest.fixture(scope="module")
def dynamic() -> dict:
    topo = resolve_topology(TOPOLOGY)
    workload = resolve_workload(WORKLOAD, topo.num_leaves)
    out = {}
    for engine in ("fluid-vec", "fluid-vec-inc"):
        driver = DynamicDriver(
            topo, make_algorithm("d-mod-k", topo), engine=engine, config=PAPER_CONFIG
        )
        out[engine] = driver.run(workload.generate(0), workload=workload.spec, seed=0)
    return out


def test_phase_times_agree_pairwise_on_every_engine(phases):
    engines = fluid_engine_names()
    # a check that compared nothing must not pass
    assert {"fluid", "fluid-vec", "fluid-vec-inc"} <= set(engines)
    for cell, by_engine in phases.items():
        for a, b in itertools.combinations(engines, 2):
            diff = rel_diff(by_engine[a][0], by_engine[b][0])
            assert diff <= PHASE_REL_TOL, f"{cell}: {a} and {b} differ by {diff:.3g}"


def test_incremental_phase_reports_its_refill_work(phases):
    for cell, by_engine in phases.items():
        tel = by_engine["fluid-vec-inc"][1]
        assert tel["partial_refills"] + tel["full_refills"] == tel["recomputes"], cell
        assert tel["links_touched"] <= tel["links_active"], cell
        assert tel["flows_touched"] <= tel["flows_active"], cell
    # floors of the 1,000-flow mixed phase: the split is reported, and
    # refills touch (and count) links
    tel = phases[(1000, "mixed")]["fluid-vec-inc"][1]
    assert tel["partial_refills"] >= 0 and tel["full_refills"] >= 0
    assert tel["links_touched"] >= 1 and tel["links_active"] >= 1


def test_dynamic_fcts_agree_between_vectorized_engines(dynamic):
    vec, inc = dynamic["fluid-vec"], dynamic["fluid-vec-inc"]
    assert vec.num_completed == inc.num_completed > 0
    for name, a, b in (
        ("fct mean", vec.fct.mean, inc.fct.mean),
        ("fct p99", vec.fct.p99, inc.fct.p99),
        ("makespan", vec.makespan, inc.makespan),
    ):
        diff = rel_diff(a, b)
        assert diff <= FCT_REL_TOL, f"{name} differs by {diff:.3g}"


def test_dynamic_refill_telemetry_floors(dynamic):
    inc = dynamic["fluid-vec-inc"].stats.engine
    assert inc["recomputes"] >= 1
    # most events resolve with component-local refills
    assert inc["partial_refills"] >= 200
    assert inc["full_refills"] >= 0
    assert inc["component_size_hwm"] >= 1
    assert inc["links_touched"] >= 1 and inc["flows_touched"] >= 1
    # the refill-work reduction: full-refill-equivalent link work over
    # the link work actually done
    assert inc["links_active"] / inc["links_touched"] >= 2.0
    vec = dynamic["fluid-vec"].stats.engine
    assert vec["recomputes"] >= 1 and vec["active_flows_hwm"] >= 1
