"""Tests for the replay engine: MPI semantics, timing, deadlock detection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DModK, SModK, make_algorithm
from repro.dimemas import (
    Barrier,
    BusTransferNetwork,
    Compute,
    FluidTransferNetwork,
    Irecv,
    Isend,
    Recv,
    ReplayEngine,
    Send,
    SendRecv,
    Trace,
    WaitAll,
    replay_on_crossbar,
    replay_on_xgft,
    route_trace,
)
from repro.sim import PAPER_CONFIG, FluidSimulator
from repro.sim.network import crossbar_link_space, xgft_link_space
from repro.topology import XGFT

BW = PAPER_CONFIG.link_bandwidth


def run_xbar(trace, n=4):
    return ReplayEngine(trace, FluidTransferNetwork(crossbar_link_space(n))).run()


class TestBasicSemantics:
    def test_compute_only(self):
        res = run_xbar(Trace([[Compute(1.5)], [Compute(0.5)]]))
        assert res.total_time == pytest.approx(1.5)
        assert res.rank_finish == (1.5, 0.5)
        assert res.num_transfers == 0

    def test_blocking_send_recv(self):
        tr = Trace([[Send(1, 1000)], [Recv(0)]])
        res = run_xbar(tr)
        assert res.total_time == pytest.approx(1000 / BW)
        assert res.num_transfers == 1

    def test_rendezvous_waits_for_receiver(self):
        """The receiver shows up late: the transfer cannot start earlier."""
        tr = Trace([[Send(1, 1000)], [Compute(1.0), Recv(0)]])
        res = run_xbar(tr)
        assert res.total_time == pytest.approx(1.0 + 1000 / BW)
        # the *sender* also blocks until then (synchronous send)
        assert res.rank_finish[0] == pytest.approx(1.0 + 1000 / BW)

    def test_sender_late(self):
        tr = Trace([[Compute(2.0), Send(1, 1000)], [Recv(0)]])
        res = run_xbar(tr)
        assert res.rank_finish[1] == pytest.approx(2.0 + 1000 / BW)

    def test_nonblocking_overlap(self):
        """Isend lets the sender compute while the transfer flows."""
        t_net = 1000 / BW
        tr = Trace(
            [
                [Isend(1, 1000), Compute(10 * t_net), WaitAll()],
                [Irecv(0), WaitAll()],
            ]
        )
        res = run_xbar(tr)
        assert res.rank_finish[0] == pytest.approx(10 * t_net)

    def test_sendrecv_bidirectional(self):
        tr = Trace([[SendRecv(1, 1000)], [SendRecv(0, 1000)]])
        res = run_xbar(tr)
        # full duplex: both directions in parallel
        assert res.total_time == pytest.approx(1000 / BW)

    def test_tag_matching(self):
        """Messages match by tag, not only by peer order."""
        tr = Trace(
            [
                [Isend(1, 1000, tag=7), Isend(1, 3000, tag=9), WaitAll()],
                [Irecv(0, tag=9), Irecv(0, tag=7), WaitAll()],
            ]
        )
        res = run_xbar(tr)
        assert res.num_transfers == 2
        # both share rank0's injection: serialized fair -> 4000 bytes total
        assert res.total_time == pytest.approx(4000 / BW)

    def test_fifo_same_tag(self):
        """MPI non-overtaking: same (src, dst, tag) matches in post order."""
        tr = Trace(
            [
                [Isend(1, 1000, tag=0), Isend(1, 2000, tag=0), WaitAll()],
                [Irecv(0, tag=0), Irecv(0, tag=0), WaitAll()],
            ]
        )
        res = run_xbar(tr)
        assert res.num_transfers == 2

    def test_zero_byte_message_completes_at_once(self):
        """Regression: the fluid engines finish a zero-byte flow inside
        ``add_flow``, so the network must report it itself — else both
        ranks wait forever and the replay reports a deadlock."""
        tr = Trace([[Send(1, 0)], [Recv(0)]])
        assert replay_on_crossbar(tr, 2).total_time == 0.0
        topo = XGFT((4, 4), (1, 2))
        assert replay_on_xgft(tr, topo, DModK(topo)).total_time == 0.0
        assert ReplayEngine(tr, BusTransferNetwork(2)).run().total_time == 0.0
        # an empty message still orders the sender's next one
        tr = Trace([[Compute(1.0), Send(1, 0), Send(1, 1000)], [Recv(0), Recv(0)]])
        assert run_xbar(tr, 2).rank_finish == (1.0 + 1000 / BW, 1.0 + 1000 / BW)


class TestBarrier:
    def test_barrier_aligns_ranks(self):
        tr = Trace(
            [
                [Compute(3.0), Barrier(), Compute(1.0)],
                [Compute(1.0), Barrier(), Compute(1.0)],
            ]
        )
        res = run_xbar(tr)
        assert res.rank_finish == (4.0, 4.0)

    def test_barrier_then_communication(self):
        tr = Trace(
            [
                [Barrier(), Send(1, 1000)],
                [Compute(2.0), Barrier(), Recv(0)],
            ]
        )
        res = run_xbar(tr)
        assert res.total_time == pytest.approx(2.0 + 1000 / BW)


class TestDeadlockDetection:
    def test_unmatched_send(self):
        with pytest.raises(RuntimeError, match="deadlock"):
            run_xbar(Trace([[Send(1, 100)], []]))

    def test_unmatched_recv(self):
        with pytest.raises(RuntimeError, match="deadlock"):
            run_xbar(Trace([[], [Recv(0)]]))

    def test_barrier_mismatch(self):
        with pytest.raises(RuntimeError, match="deadlock"):
            run_xbar(Trace([[Barrier()], []]))

    def test_tag_mismatch(self):
        with pytest.raises(RuntimeError, match="deadlock"):
            run_xbar(Trace([[Send(1, 100, tag=1)], [Recv(0, tag=2)]]))


class TestOnXGFT:
    def test_contended_transfers_share_bandwidth(self):
        """Two transfers forced onto one uplink take twice as long."""
        topo = XGFT((16, 16), (1, 16))
        tr = Trace.from_text(
            "0 send 32 1000 0\n32 recv 0 0\n1 send 48 1000 0\n48 recv 1 0\n"
        )
        res = replay_on_xgft(tr, topo, DModK(topo))  # both take uplink r1=0
        assert res.total_time == pytest.approx(2000 / BW)
        res_xbar = replay_on_crossbar(tr, 256)
        assert res_xbar.total_time == pytest.approx(1000 / BW)

    def test_mapping_respected(self):
        """With a mapping that co-locates the peers in one switch the
        transfer avoids the top level entirely (but timing equal here)."""
        topo = XGFT((4, 4), (1, 1))  # single root: inter-switch is scarce
        tr = Trace([[Send(1, 4000)], [Recv(0)], [Send(3, 4000)], [Recv(2)]])
        same_switch = replay_on_xgft(tr, topo, SModK(topo), mapping=[0, 1, 2, 3])
        cross = replay_on_xgft(tr, topo, SModK(topo), mapping=[0, 4, 1, 8])
        assert same_switch.total_time <= cross.total_time + 1e-12


class TestRankMapping:
    """A rank is placed on a leaf of the machine before the first transfer
    starts, or the replay refuses with the rank's name."""

    TRACE = Trace([[Send(1, 1000)], [Recv(0)], [Compute(1.0)]])

    @pytest.mark.parametrize(
        ("num_leaves", "mapping", "message"),
        [
            (16, [0, -1, 2], "rank 1 is mapped to leaf -1, outside"),
            (16, [0, 16, 2], "rank 1 is mapped to leaf 16, outside"),
            (16, [0, 1], "rank 2 has no leaf: 3 ranks, only 2 placed"),
            (2, None, "rank 2 has no leaf: 3 ranks, only 2 placed"),
        ],
        ids=["leaf-below", "leaf-above", "short-mapping", "more-ranks-than-leaves"],
    )
    def test_rejected_naming_the_rank(self, num_leaves, mapping, message):
        with pytest.raises(ValueError, match=message):
            replay_on_crossbar(self.TRACE, num_leaves, mapping=mapping)

    def test_checked_before_the_first_transfer(self):
        net = FluidTransferNetwork(crossbar_link_space(16), mapping=[0, -1, 2])
        with pytest.raises(ValueError, match="rank 1"):
            ReplayEngine(self.TRACE, net)
        assert net.sim.active_flows == 0

    def test_xgft_checked_before_routing(self, routing_calls):
        topo = XGFT((4, 4), (1, 2))
        with pytest.raises(ValueError, match="rank 1 is mapped to leaf -1"):
            replay_on_xgft(self.TRACE, topo, DModK(topo), mapping=[0, -1, 2])
        assert routing_calls["pairs"] == []


class TestInstalledRoutes:
    """A transfer crosses exactly its leaf pair's route plus its adapters."""

    @pytest.mark.parametrize("shared", [False, True], ids=["one-per-leaf", "two-per-leaf"])
    def test_each_transfer_crosses_its_route(self, shared, routing_calls):
        topo = XGFT((8, 8), (1, 4))
        alg = make_algorithm("random", topo, seed=3)
        trace = random_trace(5, 16, barrier=True, compute=False)
        leaves = np.random.default_rng(5).choice(topo.num_leaves, 16, replace=False)
        mapping = (leaves // 2 if shared else leaves).tolist()
        space = xgft_link_space(topo)
        net = FluidTransferNetwork(space, route_trace(trace, alg, mapping), mapping=mapping)
        crossed = []
        add_flow = net.sim.add_flow

        def recording(flow_id, links, size):
            crossed.append(sorted(links))
            add_flow(flow_id, links, size)

        net.sim.add_flow = recording
        res = ReplayEngine(trace, net).run()
        expected = []
        for rank, rec in trace.records():
            if isinstance(rec, (Isend, SendRecv)):
                s, d = mapping[rank], mapping[rec.peer if isinstance(rec, SendRecv) else rec.dst]
                tree = [] if s == d else list(alg.route(s, d).links(topo))
                expected.append(sorted(tree + [space.injection(s), space.ejection(d)]))
        assert res.num_transfers == len(crossed)
        assert sorted(crossed) == sorted(expected)
        assert len(routing_calls["pairs"]) == 1


class TestIterationBudget:
    def test_budget_guard(self):
        tr = Trace([[Compute(0.1) for _ in range(100)]])
        with pytest.raises(RuntimeError, match="budget"):
            ReplayEngine(tr, FluidTransferNetwork(crossbar_link_space(1))).run(max_iterations=5)


def random_trace(seed: int, n: int, barrier: bool, compute: bool) -> Trace:
    """A deadlock-free random trace: phases of Isend/Irecv/WaitAll or
    of pairwise SendRecv, some messages empty, optional compute records
    and barriers between phases."""
    rng = np.random.default_rng(seed)
    progs: list[list] = [[] for _ in range(n)]

    def size() -> int:
        return 0 if rng.random() < 0.15 else int(rng.integers(1, 200_000))

    for tag in range(int(rng.integers(1, 5))):
        if rng.random() < 0.3:
            perm = rng.permutation(n).tolist()
            for a, b in zip(perm[0::2], perm[1::2]):
                nbytes = size()
                progs[a].append(SendRecv(b, nbytes, tag))
                progs[b].append(SendRecv(a, nbytes, tag))
        else:
            sends: list[list] = [[] for _ in range(n)]
            recvs: list[list] = [[] for _ in range(n)]
            for _ in range(int(rng.integers(1, 2 * n))):
                s, d = rng.choice(n, 2, replace=False).tolist()
                sends[s].append(Isend(d, size(), tag))
                recvs[d].append(Irecv(s, tag))
            for r in range(n):
                progs[r] += recvs[r] + sends[r]
                if recvs[r] or sends[r]:
                    progs[r].append(WaitAll())
        for r in range(n):
            if compute and rng.random() < 0.5:
                progs[r].append(Compute(float(rng.uniform(0.0, 2e-4))))
            if barrier:
                progs[r].append(Barrier())
    return Trace(progs)


class TestDefaultEngineMatchesScalarOracle:
    """Replay on the default engine equals replay on the scalar
    ``FluidSimulator`` swapped into the same network (the allocation is
    unique, so only float noise may differ)."""

    TOPO = XGFT((8, 8), (1, 4))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([2, 5, 16]),
        barrier=st.booleans(),
        compute=st.booleans(),
        on_tree=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_finish_matches(self, seed, n, barrier, compute, on_tree):
        trace = random_trace(seed, n, barrier, compute)
        rng = np.random.default_rng(seed)
        mapping = rng.choice(self.TOPO.num_leaves, n, replace=False).tolist()
        alg = make_algorithm("random", self.TOPO, seed=seed % 7)
        finish = []
        for oracle in (False, True):
            if on_tree:
                net = FluidTransferNetwork(
                    xgft_link_space(self.TOPO),
                    route_trace(trace, alg, mapping),
                    mapping=mapping,
                )
            else:
                net = FluidTransferNetwork(
                    crossbar_link_space(self.TOPO.num_leaves), mapping=mapping
                )
            if oracle:
                net.sim = FluidSimulator(net.space.num_links, PAPER_CONFIG.link_bandwidth)
            res = ReplayEngine(trace, net).run()
            assert all(type(t) is float for t in res.rank_finish)
            finish.append(res.rank_finish)
        assert finish[0] == pytest.approx(finish[1], rel=1e-9, abs=1e-15)
