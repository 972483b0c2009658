"""Route serving: batch/async queries over stored compact tables.

:mod:`repro.serve.server` holds :class:`RouteServer` (vectorized
lookups, what-if fault repair, LFT export), the JSON-lines protocol
dispatcher and the asyncio TCP endpoint.

Shell entry point: ``repro serve`` (see ``docs/serving.md``).  The
serving benchmark is the ``serve`` workload of ``bench/run.py``.
"""

from .server import (
    RouteServer,
    answer_line,
    decode_error_response,
    handle_request,
    serve_forever,
)

__all__ = [
    "RouteServer",
    "answer_line",
    "decode_error_response",
    "handle_request",
    "serve_forever",
]
