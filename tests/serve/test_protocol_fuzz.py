"""Hostile input to the JSON-lines protocol: one in-band answer per line.

Random JSON values for the fields a lookup reads (``src``, ``dst``,
``faults``, ``repair_seed``), non-object lines, truncated lines and
undecodable bytes go through :func:`repro.serve.answer_line` and over
one TCP connection.  Every line gets exactly one answer, every error
comes back in band and is counted in ``stats()["errors"]``, and the
connection keeps serving: a trailing ``ping`` on it still succeeds.
Endpoints must be integer leaf ids; nothing is truncated into one.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.serve import RouteServer, answer_line, handle_request, serve_forever
from repro.serve.server import STREAM_LIMIT

TOPO = "XGFT(2;4,4;1,4)"  # 16 leaves

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
#: values a lenient parser coerces or chokes on: integral and
#: non-finite floats, bools, numeric strings, ints beyond 64 bits
edge_values = st.sampled_from(
    [1.0, 1.7, float("inf"), float("-inf"), float("nan"), True, "1", 10**30, -(10**30), 2**63]
)
leaf = st.integers(-2, 17)
endpoints = (
    leaf
    | st.lists(leaf, max_size=4)
    | edge_values
    | st.lists(leaf | edge_values, max_size=3)
    | json_values
)
fault_specs = (
    st.sampled_from(
        [
            None,
            "none",
            "links:count=2,seed=1",
            "links:rate=0.2",
            "switches:count=1",
            "worst-links:count=2",
            "links:count=99",
            "links:count=1,seed=-1",
            "bogus",
        ]
    )
    | edge_values
    | json_values
)
requests = st.fixed_dictionaries(
    {"op": st.sampled_from(["lookup", "batch"]) | json_values, "src": endpoints, "dst": endpoints},
    optional={
        "faults": fault_specs,
        "repair_seed": st.integers(-3, 3) | edge_values | json_values,
    },
)


#: hypothesis settings of the fuzz tests: a module-scoped server is
#: shared across examples on purpose, its error tally is read per example
fuzz = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def encode(value) -> bytes:
    return json.dumps(value).encode()


lines = st.one_of(
    requests.map(encode),
    json_values.map(encode),  # non-object lines (and the odd empty object)
    st.tuples(requests.map(encode), st.floats(0.0, 1.0)).map(
        lambda cut: cut[0][: int(len(cut[0]) * cut[1])]  # truncated mid-frame
    ),
    st.binary(max_size=12),  # undecodable bytes
).filter(lambda line: b"\n" not in line and line.strip())


@pytest.fixture(scope="module")
def server(tmp_path_factory) -> RouteServer:
    return RouteServer.from_store(TOPO, "d-mod-k", store=tmp_path_factory.mktemp("store"))


def error_count(server: RouteServer) -> int:
    return sum(server.stats()["errors"].values())


def check_response(response) -> None:
    assert isinstance(response, dict) and isinstance(response["ok"], bool)
    if not response["ok"]:
        assert isinstance(response["error"], str)
    json.dumps(response, allow_nan=False)  # always encodable as a reply


@settings(fuzz, max_examples=200)
@given(line=lines)
def test_every_line_gets_one_counted_answer(server, line):
    errors = error_count(server)
    response = answer_line(server, line)
    check_response(response)
    assert error_count(server) == errors + (not response["ok"])


@settings(fuzz, max_examples=200)
@given(request=requests)
def test_handle_request_never_raises(server, request):
    check_response(handle_request(server, request))


async def exchange(server: RouteServer, payload: bytes) -> list[dict]:
    """Send ``payload`` on one connection, half-close, read every reply."""
    loop = asyncio.get_running_loop()
    ready: asyncio.Future = loop.create_future()
    task = asyncio.ensure_future(serve_forever(server, port=0, ready=ready))
    try:
        host, port = await ready
        reader, writer = await asyncio.open_connection(host, port, limit=STREAM_LIMIT)
        writer.write(payload)
        await writer.drain()
        writer.write_eof()
        replies = [json.loads(line) for line in (await reader.read()).splitlines()]
        writer.close()
        await writer.wait_closed()
        return replies
    finally:
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass


@settings(fuzz, max_examples=50)
@given(batch=st.lists(lines, min_size=1, max_size=8))
def test_one_connection_answers_every_line_then_a_ping(server, batch):
    payload = b"".join(line + b"\n" for line in batch) + b'{"op": "ping"}\n'
    replies = asyncio.run(exchange(server, payload))
    assert len(replies) == len(batch) + 1
    for reply in replies:
        check_response(reply)
    assert replies[-1] == {"ok": True, "op": "ping"}


def test_oversize_line_is_answered_in_band_then_skipped(server):
    oversize = b'{"op": "batch", "src": [' + b"1, " * (STREAM_LIMIT // 3 + 1) + b"1]}\n"
    assert len(oversize) > STREAM_LIMIT
    decode_errors = server.stats()["errors"].get("decode", 0)
    replies = asyncio.run(exchange(server, oversize + b'{"op": "ping"}\n'))
    assert len(replies) == 2
    assert not replies[0]["ok"] and "longer than" in replies[0]["error"]
    assert replies[1] == {"ok": True, "op": "ping"}
    assert server.stats()["errors"]["decode"] == decode_errors + 1
    # an oversize line cut short by EOF still gets its one answer
    replies = asyncio.run(exchange(server, oversize[: STREAM_LIMIT + 10]))
    assert len(replies) == 1 and "longer than" in replies[0]["error"]


@pytest.mark.parametrize(
    "request_",
    [
        {"op": "batch", "src": [0.5], "dst": [1]},
        {"op": "lookup", "src": 0, "dst": 1.7},
        {"op": "lookup", "src": 0, "dst": True},
        {"op": "lookup", "src": 0, "dst": "1"},
        {"op": "batch", "src": [[0]], "dst": [[1]]},
        {"op": "batch", "src": [0], "dst": [10**30]},
        {"op": "lookup", "src": 0, "dst": 10**30},
        {"op": "batch", "src": [0], "dst": [1], "faults": 5},
        {"op": "batch", "src": [0], "dst": [1], "faults": "none", "repair_seed": 1.5},
        {"op": "batch", "src": [0], "dst": [1], "faults": "none", "repair_seed": float("inf")},
    ],
    ids=[
        "float-batch",
        "float",
        "bool",
        "string",
        "nested",
        "beyond-int64-batch",
        "beyond-int64",
        "faults-int",
        "seed-float",
        "seed-inf",
    ],
)
def test_malformed_fields_are_rejected_not_coerced(server, request_):
    response = handle_request(server, request_)
    assert not response["ok"]
    assert not response["error"].startswith("internal error")


def test_range_and_self_pair_errors_are_unchanged(server):
    out_of_range = handle_request(server, {"op": "batch", "src": [0], "dst": [16]})["error"]
    assert out_of_range.startswith("KeyError: ") and "outside leaf range" in out_of_range
    self_pair = handle_request(server, {"op": "lookup", "src": 3, "dst": 3})["error"]
    assert self_pair.startswith("KeyError: ") and "self-pair" in self_pair


def test_batch_cli_answers_hostile_lines(tmp_path, capsys):
    queries = tmp_path / "queries.jsonl"
    queries.write_bytes(
        b'{"op": "batch", "src": [0], "dst": [1000000000000000000000000000000]}\n'
        b'{"op": "batch", "src": [0], "dst": [1], "faults": 5}\n'
        b"[[[[[[[[\n"
        b'\xff\xfe{"op": "ping"}\n'
        b'{"op": "lookup", "src": 0, "dst": 1}\n'
    )
    argv = ["serve", "--topology", TOPO, "--algorithm", "d-mod-k"]
    argv += ["--store", str(tmp_path / "store"), "--batch", str(queries)]
    assert main(argv) == 1
    replies = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [reply["ok"] for reply in replies] == [False, False, False, False, True]
