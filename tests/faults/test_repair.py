"""Route repair: batch tables, the replay's repaired routes, LFT re-export."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Scenario
from repro.core import make_algorithm
from repro.core.forwarding import InconsistentRouteError
from repro.faults import (
    DegradedTopology,
    FaultSet,
    export_repaired_lfts,
    random_link_faults,
    random_switch_faults,
    repair_table,
)
from repro.faults import repair as repair_module
from repro.topology import XGFT


@pytest.fixture
def topo():
    return XGFT((4, 4), (1, 2))


@pytest.fixture
def deg(topo):
    return DegradedTopology(topo, random_link_faults(topo, count=3, seed=11))


class TestRepairTable:
    def test_zero_faults_is_identity(self, topo):
        table = make_algorithm("d-mod-k", topo).all_pairs_table()
        result = repair_table(table, DegradedTopology(topo, FaultSet.none()))
        assert result.num_broken == 0
        assert result.num_repaired == 0
        assert result.num_disconnected == 0
        assert np.array_equal(result.table.ports, table.ports)

    def test_surviving_routes_untouched(self, topo, deg):
        table = make_algorithm("d-mod-k", topo).all_pairs_table()
        result = repair_table(table, deg, seed=0)
        rows = result.surviving_rows()
        untouched = ~result.repaired[rows]
        assert np.array_equal(
            result.table.ports[untouched], table.ports[rows][untouched]
        )

    def test_repaired_table_avoids_dead_links(self, topo, deg):
        for name in ("d-mod-k", "s-mod-k", "random"):
            table = make_algorithm(name, topo, seed=2).all_pairs_table()
            result = repair_table(table, deg, seed=1)
            assert not deg.broken_flow_mask(result.table).any()
            result.table.validate()

    def test_disconnected_accounting(self, topo):
        # isolate leaf 0: every flow touching it must be dropped
        deg = DegradedTopology(
            topo, FaultSet(links=frozenset({topo.up_link_index(0, 0, 0)}))
        )
        table = make_algorithm("d-mod-k", topo).all_pairs_table()
        result = repair_table(table, deg)
        assert result.num_disconnected == 2 * (topo.num_leaves - 1)
        assert len(result.diagnostics) == result.num_disconnected
        assert all("disconnected" in d for d in result.diagnostics)
        survivors = result.table
        assert 0 not in survivors.src and 0 not in survivors.dst
        assert result.disconnected_fraction == pytest.approx(
            result.num_disconnected / len(table)
        )

    def test_deterministic_per_seed(self, topo, deg):
        table = make_algorithm("s-mod-k", topo).all_pairs_table()
        a = repair_table(table, deg, seed=5)
        b = repair_table(table, deg, seed=5)
        assert np.array_equal(a.table.ports, b.table.ports)

    def test_masks_partition_broken(self, topo, deg):
        table = make_algorithm("d-mod-k", topo).all_pairs_table()
        result = repair_table(table, deg)
        assert np.array_equal(result.broken, result.repaired | result.disconnected)
        assert not (result.repaired & result.disconnected).any()

    def test_topology_mismatch(self, topo, deg):
        other = make_algorithm("d-mod-k", XGFT((2, 2), (1, 2))).all_pairs_table()
        with pytest.raises(ValueError, match="does not match"):
            repair_table(other, deg)


class TestReplayRepair:
    """The replay repairs the routes it installs with :func:`repair_table`,
    the draw that repairs the phase tables, so both models time the same
    repaired routes."""

    @pytest.mark.parametrize("algorithm", ["d-mod-k", "random", "colored", "r-nca-d"])
    @pytest.mark.parametrize(
        "faults", ["links:count=3,seed=1", "switches:count=1,seed=2"]
    )
    def test_replay_time_equals_the_phase_model(self, algorithm, faults):
        scenario = Scenario(
            "XGFT(2;8,8;2,4)", "bit-reversal", algorithm, faults=faults, seed=1
        )
        phase = scenario.evaluate(metrics=("sim_time",))
        replay = scenario.evaluate(metrics=("sim_time",), engine="replay")
        assert phase.fault_info["repaired_flows"] > 0
        assert phase.fault_info["disconnected_flows"] == 0
        assert replay["sim_time"] == pytest.approx(phase["sim_time"], rel=1e-9)


class TestGreedyDstPolicy:
    def test_stays_destination_deterministic(self, topo):
        deg = DegradedTopology(topo, random_switch_faults(topo, count=1, seed=1, level=2))
        tables, skipped = export_repaired_lfts(make_algorithm("d-mod-k", topo), deg)
        assert skipped == ()  # one dead root never disconnects this tree
        base = make_algorithm("d-mod-k", topo).all_pairs_table()
        broken = deg.broken_flow_mask(base)
        assert broken.any()
        for f in range(len(base)):
            src, dst = int(base.src[f]), int(base.dst[f])
            walked = tables.walk(src, dst)
            if not broken[f]:
                # an intact route is kept
                assert walked == base.route(f).node_path(topo)
                continue
            # a broken one climbs to its NCA level, at each switch taking
            # the cyclically next live up-port after the base port
            level = int(base.nca_level[f])
            assert len(walked) == 2 * level + 1
            for i in range(level):
                node, parent = walked[i][1], walked[i + 1][1]
                port = next(p for p in range(topo.w[i]) if topo.up_neighbor(i, node, p) == parent)
                want = int(base.ports[f, i])
                alive = deg.alive_up_ports(i, node)
                assert port == min(alive, key=lambda p, w=topo.w[i]: (p - want) % w)

    def test_climbs_only_the_broken_rows(self, topo, deg, monkeypatch):
        climbs = []
        climb = repair_module._greedy_climb

        def counting(degraded, src, dst, base_ports):
            climbs.append((src, dst))
            return climb(degraded, src, dst, base_ports)

        monkeypatch.setattr(repair_module, "_greedy_climb", counting)
        _, skipped = export_repaired_lfts(make_algorithm("d-mod-k", topo), deg)
        base = make_algorithm("d-mod-k", topo).all_pairs_table()
        broken = deg.broken_flow_mask(base)
        assert len(climbs) == int(broken.sum()) > len(skipped)
        assert set(climbs) == set(zip(base.src[broken].tolist(), base.dst[broken].tolist()))

    def test_source_routed_base_rejected(self):
        # enough surviving roots that S-mod-k keeps its source-dependence
        topo = XGFT((4, 4), (1, 4))
        deg = DegradedTopology(topo, random_switch_faults(topo, count=1, seed=1, level=2))
        with pytest.raises(InconsistentRouteError):
            export_repaired_lfts(make_algorithm("s-mod-k", topo), deg)

    def test_skipped_pairs_are_reported(self, topo):
        # isolating a leaf makes every pair touching it unrepairable
        deg = DegradedTopology(
            topo, FaultSet(links=frozenset({topo.up_link_index(0, 0, 0)}))
        )
        tables, skipped = export_repaired_lfts(make_algorithm("d-mod-k", topo), deg)
        assert len(skipped) == 2 * (topo.num_leaves - 1)
        assert all(0 in (s, d) for s, d, _ in skipped)
        # the surviving pairs still walk correctly
        assert tables.walk(4, 9)[-1] == (0, 9)


class TestRegistrySpecAcceptance:
    """The facade rewiring: the LFT exporter accepts algorithm specs."""

    @pytest.mark.parametrize("spec", ["d-mod-k", "r-nca-d(map_kind=mod)"])
    def test_export_repaired_lfts_from_spec(self, topo, deg, spec):
        by_spec, skipped_a = export_repaired_lfts(spec, deg, seed=2)
        by_obj, skipped_b = export_repaired_lfts(make_algorithm(spec, topo, seed=2), deg)
        assert by_spec.tables == by_obj.tables
        assert skipped_a == skipped_b

    def test_topology_mismatch(self, deg):
        with pytest.raises(ValueError, match="does not match"):
            export_repaired_lfts(make_algorithm("d-mod-k", XGFT((2, 2), (1, 2))), deg)


class TestRepairPairs:
    """The server-facing aligned repair primitive."""

    def _pairs(self, table):
        return table.src, table.dst, table.nca_level, table.ports

    def test_agrees_with_repair_table_on_survivors(self, topo, deg):
        from repro.faults import PAIR_DISCONNECTED, PAIR_INTACT, repair_pairs

        table = make_algorithm("d-mod-k", topo).all_pairs_table()
        reference = repair_table(table, deg, seed=0)
        ports, status = repair_pairs(deg, *self._pairs(table), seed=0)
        keep = status != PAIR_DISCONNECTED
        assert np.array_equal(ports[keep], reference.table.ports)
        assert np.array_equal(status != PAIR_INTACT, np.asarray(reference.broken))

    def test_output_is_aligned_and_inputs_untouched(self, topo, deg):
        from repro.faults import repair_pairs

        table = make_algorithm("random", topo, seed=3).all_pairs_table()
        before = table.ports.copy()
        ports, status = repair_pairs(deg, *self._pairs(table), seed=1)
        assert ports.shape == table.ports.shape
        assert len(status) == len(table)
        assert np.array_equal(table.ports, before)
        assert ports is not table.ports

    def test_disconnected_rows_zeroed_in_place(self, topo):
        from repro.faults import PAIR_DISCONNECTED, repair_pairs

        # isolate leaf 0 by killing its only uplink
        deg = DegradedTopology(
            topo, FaultSet(links=frozenset({topo.up_link_index(0, 0, 0)}))
        )
        table = make_algorithm("d-mod-k", topo).all_pairs_table()
        ports, status = repair_pairs(deg, *self._pairs(table), seed=0)
        dead = status == PAIR_DISCONNECTED
        touches_zero = (np.asarray(table.src) == 0) | (np.asarray(table.dst) == 0)
        assert np.array_equal(dead, touches_zero)
        assert (ports[dead] == 0).all()

    def test_zero_faults_identity(self, topo):
        from repro.faults import PAIR_INTACT, repair_pairs

        table = make_algorithm("s-mod-k", topo).all_pairs_table()
        ports, status = repair_pairs(
            DegradedTopology(topo, FaultSet.none()), *self._pairs(table)
        )
        assert (status == PAIR_INTACT).all()
        assert np.array_equal(ports, table.ports)
