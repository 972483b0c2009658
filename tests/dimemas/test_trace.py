"""Tests for the trace data model and its text round trip."""

from __future__ import annotations

import pytest

from repro.dimemas import (
    Barrier,
    Compute,
    Irecv,
    Isend,
    Recv,
    Send,
    SendRecv,
    Trace,
    WaitAll,
)
from repro.dimemas.trace import MAX_RANKS


class TestRecords:
    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            Compute(-1.0)

    @pytest.mark.parametrize("duration", [float("inf"), float("nan")])
    def test_nonfinite_compute_rejected(self, duration):
        """Regression: a NaN or infinite compute record was accepted and
        the replay returned ``total_time=nan``."""
        with pytest.raises(ValueError, match="compute duration"):
            Compute(duration)

    @pytest.mark.parametrize("record", [Send, Isend, SendRecv])
    @pytest.mark.parametrize("size", [-5, float("inf"), float("nan")])
    def test_bad_message_size_rejected(self, record, size):
        """Regression: ``Send(1, -5)`` was accepted and failed only
        inside the network model."""
        with pytest.raises(ValueError, match="message size"):
            record(1, size)

    def test_zero_byte_messages_allowed(self):
        tr = Trace([[Send(1, 0), Isend(1, 0), SendRecv(1, 0), WaitAll()], [Recv(0)]])
        assert Trace.from_text(tr.to_text()).programs == tr.programs

    def test_trace_checks_peer_range(self):
        with pytest.raises(ValueError):
            Trace([[Send(5, 100)], []])

    def test_trace_rejects_self_communication(self):
        with pytest.raises(ValueError):
            Trace([[Send(0, 100)]])

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            Trace([])

    def test_record_iteration(self):
        tr = Trace([[Compute(1.0), Send(1, 10)], [Recv(0)]])
        recs = list(tr.records())
        assert len(recs) == len(tr) == 3
        assert recs[0] == (0, Compute(1.0))


class TestTextRoundTrip:
    def test_all_record_kinds(self):
        tr = Trace(
            [
                [
                    Compute(0.5),
                    Send(1, 100, 2),
                    Recv(1, 3),
                    Isend(1, 200, 4),
                    Irecv(1, 5),
                    WaitAll(),
                    SendRecv(1, 300, 6),
                    Barrier(),
                ],
                [
                    Recv(0, 2),
                    Send(0, 100, 3),
                    Irecv(0, 4),
                    Isend(0, 200, 5),
                    WaitAll(),
                    SendRecv(0, 300, 6),
                    Barrier(),
                ],
            ]
        )
        text = tr.to_text()
        back = Trace.from_text(text)
        assert back.programs == tr.programs
        assert back.to_text() == text

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n0 send 1 10 0\n1 recv 0 0\n"
        tr = Trace.from_text(text)
        assert tr.num_ranks == 2
        assert tr.programs[0] == (Send(1, 10, 0),)

    def test_parse_error_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            Trace.from_text("0 frobnicate 1\n")
        with pytest.raises(ValueError, match="line 2"):
            Trace.from_text("0 send 1 10 0\n0 send xyz\n")

    def test_negative_rank_rejected(self):
        """Regression: every record of a negative rank was silently
        dropped."""
        with pytest.raises(ValueError, match="line 2: .*negative rank"):
            Trace.from_text("0 recv 1 0\n-1 send 0 5 0\n1 send 0 5 0\n")

    def test_nonfinite_compute_line_rejected(self):
        with pytest.raises(ValueError, match="line 1: .*compute duration"):
            Trace.from_text("0 compute nan\n")

    def test_rank_gap_yields_empty_program(self):
        tr = Trace.from_text("0 send 2 10 0\n2 recv 0 0\n")
        assert tr.num_ranks == 3
        assert tr.programs[1] == ()

    def test_idle_ranks_survive_round_trip(self):
        """Regression: the header's rank count was ignored, so a 4-rank
        trace whose ranks 2 and 3 are idle read back as 2 ranks."""
        tr = Trace([[Send(1, 10)], [Recv(0)], [], []])
        back = Trace.from_text(tr.to_text())
        assert back.num_ranks == 4
        assert back.programs == tr.programs

    def test_hostile_rank_rejected_before_allocation(self):
        """Regression: one line sized the trace from its rank number, so
        ``2000000000 compute 1`` asked for about 200 GB."""
        for rank in (2_000_000_000, MAX_RANKS):
            with pytest.raises(ValueError, match=f"line 1: .*rank {rank} outside"):
                Trace.from_text(f"{rank} compute 1\n")

    def test_rank_beyond_header_rejected(self):
        text = "# dimemas-lite trace, 2 ranks\n0 send 1 10 0\n2 compute 1\n"
        with pytest.raises(ValueError, match=r"line 3: .*rank 2 outside \[0, 2\)"):
            Trace.from_text(text)

    @pytest.mark.parametrize("header", ["# dimemas-lite trace, 2 ranks\n", ""])
    def test_peer_out_of_range_names_its_line(self, header):
        """Regression: a peer outside the rank count was reported
        without the line that named it."""
        text = f"{header}0 compute 1\n1 recv 0 0\n0 send 5 10 0\n"
        line = 4 if header else 3
        with pytest.raises(ValueError, match=rf"line {line}: rank 0: .*rank 5 outside \[0, 2\)"):
            Trace.from_text(text)

    @pytest.mark.parametrize(
        "text",
        [
            f"# dimemas-lite trace, {MAX_RANKS + 1} ranks\n",
            "# dimemas-lite trace, 0 ranks\n",
            "0 compute 1\n# dimemas-lite trace, 2 ranks\n",
        ],
        ids=["over-cap", "zero", "after-records"],
    )
    def test_bad_header_rejected(self, text):
        with pytest.raises(ValueError, match="line [12]: .*ranks"):
            Trace.from_text(text)
