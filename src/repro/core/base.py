"""Routing-algorithm interface and the vectorized route table.

Two tiers of API:

* :class:`RoutingAlgorithm` — produces one :class:`~repro.core.route.Route`
  per ``(src, dst)`` query.  *Oblivious* algorithms answer from the pair
  alone (plus internal, pattern-independent state such as seeds); the
  pattern-aware ``Colored`` baseline instead derives its answers from a
  whole pattern handed to :meth:`RoutingAlgorithm.prepare`.
* :class:`~repro.core.route.RouteTable` — a struct-of-arrays batch of
  routes for a set of pairs, with NumPy-vectorized expansion into
  directed-link indices (the hot path of every contention census and of
  the fluid simulator).  It lives in :mod:`repro.core.route` and is
  re-exported here for backwards compatibility.

Algorithms whose per-level port choice is a pure function of endpoint
label digits (S-mod-k, D-mod-k, the r-NCA family, Random) implement
:meth:`RoutingAlgorithm.port_array` and get fully vectorized table
construction for free.

Table construction is array-native end to end: :func:`pair_array` turns
any batch of pairs into one validated ``(F, 2)`` int64 array at the
edge, and nothing after it handles a pair as a Python tuple.
"""

from __future__ import annotations

from abc import ABC
from collections.abc import Iterable, Sequence
from typing import Union

import numpy as np
import numpy.typing as npt

from ..topology import XGFT
from .route import IntArray, Route, RouteTable

__all__ = ["PairInput", "RoutingAlgorithm", "RouteTable", "leaf_ids", "pair_array"]

#: what :meth:`RoutingAlgorithm.build_table` accepts: an ``(F, 2)``
#: integer array or any iterable of ``(src, dst)`` pairs
PairInput = Union[npt.NDArray[np.integer], Iterable[tuple[int, int]]]


def pair_array(pairs: PairInput, num_leaves: int) -> IntArray:
    """The ``(F, 2)`` int64 array of a batch of ``(src, dst)`` leaf pairs.

    The one place routing input is converted and checked: an integer
    array passes through (cast to int64 if needed), any other iterable
    of pairs is converted once.  Raises ``ValueError`` for a batch that
    is not ``(F, 2)`` shaped, and for the first pair holding a
    non-integer endpoint or one outside ``[0, num_leaves)``.  The range
    check is one vectorized min/max.
    """
    arr = _converted(pairs, "pairs must be (src, dst) leaf-id pairs")
    if arr.ndim == 1 and arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"pairs must be (src, dst) pairs of shape (F, 2), got shape {arr.shape}")
    if len(arr) == 0:
        return np.empty((0, 2), dtype=np.int64)
    f = _first_non_integer(arr)
    if f is not None:
        raise ValueError(
            f"pair {tuple(arr[f].tolist())} at row {f} is not a pair of integer "
            f"leaf ids (dtype {arr.dtype})"
        )
    if arr.min() < 0 or arr.max() >= num_leaves:
        f = int(np.flatnonzero(((arr < 0) | (arr >= num_leaves)).any(axis=1))[0])
        raise ValueError(
            f"pair {tuple(arr[f].tolist())} at row {f} has an endpoint outside "
            f"the leaf range [0, {num_leaves})"
        )
    return arr.astype(np.int64, copy=False)


def leaf_ids(values: object, what: str = "leaf id") -> IntArray:
    """A flat batch of integer leaf ids as int64: one column of :func:`pair_array`.

    For callers that take sources and destinations apart (the route
    server's JSON requests; a :class:`repro.patterns.Phase`, whose errors
    name ``what`` each value is): the same conversion and integer rule,
    with no range check, so the caller keeps its own range error.
    Raises ``ValueError`` for a batch that is not flat and for the first
    entry that is not a 64-bit integer: floats (integral or not), bools,
    strings and ints beyond 64 bits are rejected, never truncated.
    """
    arr = _converted(values, f"{what}s must be a flat list of integers")
    if arr.ndim != 1:
        raise ValueError(f"{what}s must be a flat list of integers, got shape {arr.shape}")
    if arr.size == 0:
        return np.empty(0, dtype=np.int64)
    f = _first_non_integer(arr[:, None])
    if f is not None:
        raise ValueError(
            f"{what} {arr[f : f + 1].tolist()[0]!r} at index {f} is not a 64-bit "
            f"integer (dtype {arr.dtype})"
        )
    # a uint64 id past the int64 range wraps negative: the caller's
    # range check rejects it like any other id outside the tree
    return arr.astype(np.int64, copy=False)


def _converted(values: object, what: str) -> np.ndarray:
    """``values`` as an array, converted once (an array passes through)."""
    if isinstance(values, np.ndarray):
        return values
    try:
        return np.asarray(values if isinstance(values, Sequence) else list(values))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what}: {exc}") from None


def _first_non_integer(arr: np.ndarray) -> int | None:
    """Row of the first non-integer entry of a 2-D batch; None if it has none.

    The leaf-id rule: only integer dtypes pass.  Any other dtype fails
    as a whole (bool, float, string, or object for ints beyond 64
    bits); the row is only for the error message: the first one holding
    a fractional, non-finite or out-of-int64 value, else row 0.
    """
    if arr.dtype.kind in "iu":
        return None
    try:
        with np.errstate(invalid="ignore"):
            values = arr.astype(np.float64)
            bad = (values % 1 != 0) | (np.abs(values) >= 2.0**63)
    except (TypeError, ValueError, OverflowError):
        return 0
    rows = np.flatnonzero(bad.any(axis=1))
    return int(rows[0]) if len(rows) else 0


class RoutingAlgorithm(ABC):
    """Common interface of all routing schemes in this package.

    Subclasses must provide :attr:`name` and either :meth:`up_ports`
    (scalar) or :meth:`port_array` (vectorized digit-wise choice); the
    default implementations derive one from the other.
    """

    #: short identifier used by the factory, reports and plots
    name: str = "abstract"

    #: ``"src"`` or ``"dst"`` when every level's up-port is a function of
    #: that endpoint alone, so :meth:`port_array` reads only that argument
    #: (S-mod-k, D-mod-k, r-NCA-u, r-NCA-d); ``None`` otherwise.  The
    #: route store builds such a scheme's all-pairs entry from one port
    #: column per level instead of routing every pair.
    steered_by: str | None = None

    def __init__(self, topo: XGFT):
        self.topo = topo

    # -- pattern hook ---------------------------------------------------
    def prepare(self, pairs: PairInput) -> None:
        """Observe the communication pattern before routing it.

        Oblivious algorithms ignore this (that is what *oblivious* means);
        the pattern-aware Colored baseline overrides it.  Called by
        :meth:`build_table` with the validated ``(F, 2)`` int64 array of
        the exact pairs being routed; overrides that may also be called
        directly go through :func:`pair_array` first.
        """

    # -- scalar interface -------------------------------------------------
    def up_ports(self, src: int, dst: int) -> tuple[int, ...]:
        """Up-port sequence ``<r_0..r_{l-1}>`` for the pair (default: via port_array)."""
        lvl = self.topo.nca_level(src, dst)
        s = np.asarray([src], dtype=np.int64)
        d = np.asarray([dst], dtype=np.int64)
        return tuple(int(self.port_array(i, s, d)[0]) for i in range(lvl))

    def route(self, src: int, dst: int) -> Route:
        """The route for a single pair."""
        return Route(src, dst, self.up_ports(src, dst))

    # -- vectorized interface ----------------------------------------------
    def port_array(self, level: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Vectorized up-port choice at ``level`` for pair arrays.

        Only called for pairs whose NCA is *above* ``level``.  The default
        falls back to scalar :meth:`up_ports`, calling it once per
        *unique* pair and scattering the result; digit-wise algorithms
        override this with pure NumPy.
        """
        uniq, inverse = np.unique(np.stack([src, dst], axis=1), axis=0, return_inverse=True)
        vals = np.empty(len(uniq), dtype=np.int64)
        for i, (s, d) in enumerate(uniq.tolist()):
            vals[i] = self.up_ports(int(s), int(d))[level]
        return vals[inverse]

    def _scalar_port_matrix(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Full ``(F, h)`` port matrix for scalar-only algorithms.

        One :meth:`up_ports` call per unique pair — instead of one per
        (pair, level) as the level-by-level :meth:`port_array` fallback
        would make — then a vectorized gather back onto the flow axis.
        Patterns routinely repeat pairs across phases, so the dedup also
        collapses that repetition.
        """
        ports = np.zeros((len(src), self.topo.h), dtype=np.int64)
        if len(src) == 0:
            return ports
        uniq, inverse = np.unique(np.stack([src, dst], axis=1), axis=0, return_inverse=True)
        uniq_ports = np.zeros((len(uniq), self.topo.h), dtype=np.int64)
        for i, (s, d) in enumerate(uniq.tolist()):
            seq = self.up_ports(int(s), int(d))
            if seq:
                uniq_ports[i, : len(seq)] = seq
        return uniq_ports[inverse]

    def build_table(self, pairs: PairInput) -> RouteTable:
        """Route a batch of pairs into a :class:`RouteTable`.

        ``pairs`` is an ``(F, 2)`` integer array or any iterable of
        ``(src, dst)`` pairs; :func:`pair_array` converts and validates
        it once, and :meth:`prepare` receives the resulting array.
        """
        arr = pair_array(pairs, self.topo.num_leaves)
        self.prepare(arr)
        src = np.ascontiguousarray(arr[:, 0])
        dst = np.ascontiguousarray(arr[:, 1])
        nca = self.topo.nca_level_array(src, dst)
        if type(self).port_array is RoutingAlgorithm.port_array:
            # scalar-only algorithm: one up_ports call per unique pair
            return RouteTable(self.topo, src, dst, nca, self._scalar_port_matrix(src, dst))
        ports = np.zeros((len(src), self.topo.h), dtype=np.int64)
        for level in range(self.topo.h):
            active = np.nonzero(nca > level)[0]
            if len(active) == 0:
                break
            ports[active, level] = self.port_array(level, src[active], dst[active])
        return RouteTable(self.topo, src, dst, nca, ports)

    def all_pairs_table(self, include_self: bool = False) -> RouteTable:
        """Route every ordered leaf pair (used by the Fig.-4 route census).

        Rows are source-major with destinations ascending.  The pair
        array is built column-major, so the table's ``src`` and ``dst``
        columns are views into it, not copies.
        """
        n = self.topo.num_leaves
        per_src = n if include_self else n - 1
        pairs = np.empty((n * per_src, 2), dtype=np.int64, order="F")
        pairs[:, 0] = np.repeat(np.arange(n, dtype=np.int64), per_src)
        dst = pairs[:, 1].reshape(n, per_src)
        dst[:] = np.arange(per_src, dtype=np.int64)
        if not include_self:
            # skip the diagonal: destinations at or above the source shift up one
            dst += dst >= np.arange(n, dtype=np.int64)[:, None]
        return self.build_table(pairs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(topo={self.topo.spec()})"
