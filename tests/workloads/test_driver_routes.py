"""The dynamic driver installs each arrival on its scheme's all-pairs route.

For every case of ``tests/core/test_route_purity.py``, random arrival
streams (repeated pairs, self-pairs, several arrivals per instant) are
drained through a recording engine that notes the links each admitted
arrival is installed on.  Each admitted arrival must sit on exactly the
links of its pair's ``all_pairs_table()`` row; under a random cable
fault (XGFT port schemes only) that row is the one ``repair_table``
returns, and the rejected arrivals are exactly the pairs it disconnects.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import DegradedTopology, parse_fault_spec, repair_table
from repro.sim import VecFluidSimulator
from repro.sim.engines import ENGINES, Engine, register_engine
from repro.sim.network import flow_incidence, xgft_link_space
from repro.topology import XGFT
from repro.workloads import ArrivalStream, DynamicDriver
from tests.core.test_route_purity import CASES, _all_pairs, _router

ENGINE = "fluid-vec-recording-test"
REPAIR_SEED = 5


class _Recording:
    """A fluid engine that notes the links of every flow it admits."""

    def __init__(self, inner, installed: dict[int, tuple[int, ...]]):
        self._inner = inner
        self._installed = installed

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def add_flows(self, ids, sizes, coo_flow, coo_link):
        for f, flow_id in enumerate(ids):
            self._installed[int(flow_id)] = tuple(sorted(coo_link[coo_flow == f].tolist()))
        return self._inner.add_flows(ids, sizes, coo_flow, coo_link)


@pytest.fixture(scope="module")
def installed():
    """Per-arrival installed links of the runs on :data:`ENGINE`."""
    log: dict[int, tuple[int, ...]] = {}
    register_engine(
        Engine(
            name=ENGINE,
            kind="fluid",
            factory=lambda n, c: _Recording(VecFluidSimulator(n, c), log),
        ),
        override=True,
    )
    try:
        yield log
    finally:
        ENGINES.unregister(ENGINE)


def _row_links(table, space) -> list[tuple[int, ...]]:
    coo_flow, coo_link = flow_incidence(table, space)
    return [tuple(sorted(coo_link[coo_flow == f].tolist())) for f in range(len(table))]


@st.composite
def _streams(draw, num_leaves: int) -> ArrivalStream:
    leaf = st.integers(0, num_leaves - 1)
    pairs = draw(st.lists(st.tuples(leaf, leaf), min_size=1, max_size=30))
    # a few instants, so batches hold several arrivals
    ticks = sorted(draw(st.lists(st.integers(0, 4), min_size=len(pairs), max_size=len(pairs))))
    src, dst = (np.asarray(col, dtype=np.int64) for col in zip(*pairs))
    return ArrivalStream(np.asarray(ticks) * 1e-6, src, dst, np.full(len(pairs), 1000.0))


@pytest.mark.parametrize(("topology", "spec"), CASES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_admitted_arrivals_ride_their_all_pairs_rows(installed, topology, spec, data):
    full = _all_pairs(topology, spec)
    algorithm = _router(topology, spec)
    stream = data.draw(_streams(full.topo.num_leaves))
    degraded = None
    rows = full
    disconnected = np.zeros(len(full), dtype=bool)
    if isinstance(full.topo, XGFT) and data.draw(st.booleans(), label="faulted"):
        cables = data.draw(st.integers(1, 4), label="cables")
        fault_seed = data.draw(st.integers(0, 50), label="fault_seed")
        fault = parse_fault_spec(f"links:count={cables},seed={fault_seed}")
        degraded = DegradedTopology(full.topo, fault.realize(full.topo))
        repair = repair_table(full, degraded, seed=REPAIR_SEED)
        rows, disconnected = repair.table, repair.disconnected
    space = xgft_link_space(full.topo)
    links = _row_links(rows, space)
    # all-pairs row of each pair, and its row among the repair's survivors
    row_of = {(int(s), int(d)): r for r, (s, d) in enumerate(zip(full.src, full.dst))}
    survivor = np.cumsum(~disconnected) - 1

    installed.clear()
    driver = DynamicDriver(
        algorithm.topo, algorithm, engine=ENGINE, degraded=degraded, repair_seed=REPAIR_SEED
    )
    result = driver.run(stream)

    want_rejected = set()
    for k, (s, d) in enumerate(zip(stream.src.tolist(), stream.dst.tolist())):
        if s == d:
            assert k not in installed, "a self-pair entered the network"
            continue
        r = row_of[(s, d)]
        if disconnected[r]:
            want_rejected.add(k)
            continue
        assert installed.get(k) == links[survivor[r]], (k, s, d)
    network = {k for k in range(len(stream)) if stream.src[k] != stream.dst[k]}
    assert network - set(installed) == want_rejected
    assert result.num_rejected == len(want_rejected)
    assert result.num_self == len(stream) - len(network)
