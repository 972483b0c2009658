"""Route representations for NCA (up*/down*) routing in XGFTs.

Section V of the paper: a minimal deadlock-free path between leaves ``s``
and ``d`` ascends to one of their Nearest Common Ancestors and descends
along the (unique) path to ``d``.  A route is therefore fully described
by the sequence of local up-ports ``<r_0, ..., r_{l(s,d)-1}>``; the
descending half is reconstructed from the destination's ``M`` digits.

A handy structural fact (used throughout the package): the node of the
*down* path at level ``i`` carries the same low-order ``W`` digits
``r_0..r_{i-1}`` as the up path, so both the ascending and the descending
link of a route at level ``i`` are addressed by the same port ``r_i`` —
only the lower endpoint differs (it hangs below the source on the way up
and below the destination on the way down).

Two granularities live here:

* :class:`Route` — one pair's route, for inspection and validation;
* :class:`RouteTable` — a struct-of-arrays batch of routes with
  NumPy-vectorized link expansion (the hot path of every contention
  census and of the fluid simulator), point/batch lookup, and the
  bridge to the compressed columnar representation of
  :mod:`repro.store` (:meth:`RouteTable.to_compact`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np
import numpy.typing as npt

from ..topology import XGFT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..store.compact import CompactRouteTable

__all__ = ["Route", "RouteError", "RouteTable"]

#: the table's column type: dense int64 index/port arrays
IntArray = npt.NDArray[np.int64]


class RouteError(ValueError):
    """Raised when a route is structurally invalid for its topology."""


@dataclass(frozen=True)
class Route:
    """A single up*/down* route from ``src`` to ``dst``.

    Attributes
    ----------
    src, dst:
        Leaf ids.
    up_ports:
        ``(r_0, ..., r_{l-1})`` where ``l`` is the NCA level of the pair.
        Empty iff ``src == dst``.
    """

    src: int
    dst: int
    up_ports: tuple[int, ...]

    @property
    def nca_level(self) -> int:
        """Level of the nearest common ancestor this route climbs to."""
        return len(self.up_ports)

    def validate(self, topo: XGFT) -> None:
        """Raise :class:`RouteError` unless the route is valid in ``topo``.

        Checks: endpoints in range, NCA level matches the pair, every
        up-port within its level's parent count, and -- by construction of
        the up*/down* expansion -- deadlock freedom (no up link follows a
        down link).
        """
        if not 0 <= self.src < topo.num_leaves:
            raise RouteError(f"source {self.src} out of range")
        if not 0 <= self.dst < topo.num_leaves:
            raise RouteError(f"destination {self.dst} out of range")
        expected = topo.nca_level(self.src, self.dst)
        if len(self.up_ports) != expected:
            raise RouteError(
                f"route {self.up_ports} has {len(self.up_ports)} hops but the "
                f"NCA level of ({self.src}, {self.dst}) is {expected}"
            )
        for level, port in enumerate(self.up_ports):
            if not 0 <= port < topo.w[level]:
                raise RouteError(
                    f"up-port {port} at level {level} out of range [0, {topo.w[level]})"
                )

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def nca(self, topo: XGFT) -> tuple[int, int]:
        """The ``(level, node)`` of the chosen nearest common ancestor."""
        level = self.nca_level
        return level, topo.subtree_node(self.src, self.up_ports, level)

    def node_path(self, topo: XGFT) -> list[tuple[int, int]]:
        """Full node sequence ``[(level, node), ...]`` from src up and down to dst."""
        lvl = self.nca_level
        up = [(i, topo.subtree_node(self.src, self.up_ports, i)) for i in range(lvl + 1)]
        down = [
            (i, topo.subtree_node(self.dst, self.up_ports, i))
            for i in range(lvl - 1, -1, -1)
        ]
        return up + down

    def links(self, topo: XGFT) -> Iterator[int]:
        """Dense directed-link indices traversed, ascending links first.

        Uses the symmetry noted in the module docstring: at level ``i`` the
        route occupies up link ``(i, node_i(src), r_i)`` and down link
        ``(i, node_i(dst), r_i)``.
        """
        for i, port in enumerate(self.up_ports):
            yield topo.up_link_index(i, topo.subtree_node(self.src, self.up_ports, i), port)
        for i in range(self.nca_level - 1, -1, -1):
            yield topo.down_link_index(
                i, topo.subtree_node(self.dst, self.up_ports, i), self.up_ports[i]
            )

    def hop_count(self) -> int:
        """Number of switch-to-switch / host-to-switch hops (2 * NCA level)."""
        return 2 * self.nca_level

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        ports = ",".join(str(p) for p in self.up_ports)
        return f"{self.src}-><{ports}>->{self.dst}"


class RouteTable:
    """Routes for a batch of ``(src, dst)`` pairs, stored as arrays.

    Attributes
    ----------
    topo:
        The topology the routes live in.
    src, dst:
        ``(F,)`` int64 arrays of leaf ids.
    nca_level:
        ``(F,)`` int64 array; entry ``f`` is the NCA level of pair ``f``.
    ports:
        ``(F, h)`` int64 array; ``ports[f, i]`` is the up-port taken at
        level ``i`` for flow ``f`` (entries at ``i >= nca_level[f]`` are 0
        and unused).
    """

    def __init__(
        self,
        topo: XGFT,
        src: npt.ArrayLike,
        dst: npt.ArrayLike,
        nca_level: npt.ArrayLike,
        ports: npt.ArrayLike,
    ) -> None:
        self.topo = topo
        self.src: IntArray = np.asarray(src, dtype=np.int64)
        self.dst: IntArray = np.asarray(dst, dtype=np.int64)
        self.nca_level: IntArray = np.asarray(nca_level, dtype=np.int64)
        self.ports: IntArray = np.asarray(ports, dtype=np.int64)
        if self.ports.shape != (len(self.src), topo.h):
            raise ValueError(
                f"ports must have shape (F, h)={(len(self.src), topo.h)}, got {self.ports.shape}"
            )
        self._pair_rows: IntArray | None = None

    def __len__(self) -> int:
        return len(self.src)

    # ------------------------------------------------------------------
    # Point and batch lookup
    # ------------------------------------------------------------------
    def _rows(self) -> IntArray:
        """Lazy ``(n*n,)`` flat-pair -> row index (first occurrence wins)."""
        if self._pair_rows is None:
            n = self.topo.num_leaves
            rows = np.full(n * n, -1, dtype=np.int64)
            # reversed write order: on duplicate pairs (patterns repeat
            # pairs across phases) the *first* row is the one served
            rows[self.src[::-1] * n + self.dst[::-1]] = np.arange(
                len(self) - 1, -1, -1, dtype=np.int64
            )
            self._pair_rows = rows
        return self._pair_rows

    def lookup(self, src: int, dst: int) -> Route:
        """The stored route of one pair (first occurrence on duplicates).

        Raises ``KeyError`` if the pair has no row — including self-pairs
        in an all-pairs table, which routes no traffic to itself.
        """
        n = self.topo.num_leaves
        if not (0 <= src < n and 0 <= dst < n):
            raise KeyError(f"pair ({src}, {dst}) outside leaf range [0, {n})")
        row = int(self._rows()[src * n + dst])
        if row < 0:
            raise KeyError(f"pair ({src}, {dst}) has no route in this table")
        return self.route(row)

    def batch_lookup(self, srcs: npt.ArrayLike, dsts: npt.ArrayLike) -> "RouteTable":
        """The stored rows of many pairs, as a new table (order kept).

        Vectorized; raises ``KeyError`` naming the first missing pair.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        n = self.topo.num_leaves
        if srcs.shape != dsts.shape:
            raise ValueError("srcs and dsts must have matching shapes")
        if len(srcs) and (
            srcs.min() < 0 or srcs.max() >= n or dsts.min() < 0 or dsts.max() >= n
        ):
            raise KeyError(f"pair endpoints outside leaf range [0, {n})")
        idx = self._rows()[srcs * n + dsts]
        missing = np.nonzero(idx < 0)[0]
        if len(missing):
            f = int(missing[0])
            raise KeyError(
                f"pair ({int(srcs[f])}, {int(dsts[f])}) has no route in this table"
            )
        return RouteTable(
            self.topo, self.src[idx], self.dst[idx], self.nca_level[idx], self.ports[idx]
        )

    @property
    def nbytes(self) -> int:
        """Bytes held by the route arrays (the dict-of-arrays footprint)."""
        return self.src.nbytes + self.dst.nbytes + self.nca_level.nbytes + self.ports.nbytes

    # ------------------------------------------------------------------
    # Compact columnar bridge
    # ------------------------------------------------------------------
    def to_compact(self) -> "CompactRouteTable":
        """Encode into the compressed columnar format (:mod:`repro.store`).

        The encoding is lossless: ``from_compact(to_compact())`` is
        bit-exact for any table.
        """
        from ..store.compact import CompactRouteTable

        return CompactRouteTable.encode(self)

    @staticmethod
    def from_compact(compact: "CompactRouteTable") -> "RouteTable":
        """Decode a compact table back to the struct-of-arrays form."""
        return compact.to_table()

    def route(self, f: int) -> Route:
        """Materialize flow ``f`` as a :class:`Route`."""
        lvl = int(self.nca_level[f])
        return Route(int(self.src[f]), int(self.dst[f]), tuple(int(p) for p in self.ports[f, :lvl]))

    def routes(self) -> Iterator[Route]:
        """Iterate all routes (slow path; use the arrays for analysis)."""
        for f in range(len(self)):
            yield self.route(f)

    def validate(self) -> None:
        """Validate every route (test/diagnostic helper)."""
        for r in self.routes():
            r.validate(self.topo)

    # ------------------------------------------------------------------
    # Vectorized link expansion
    # ------------------------------------------------------------------
    def flow_links(self) -> tuple[IntArray, IntArray]:
        """COO expansion ``(flow_idx, link_idx)`` of all traversed links.

        For every flow ``f`` with NCA level ``l`` the expansion contains
        ``2*l`` entries: the up links at levels ``0..l-1`` and the down
        links at the same levels (see :class:`Route`).
        """
        topo = self.topo
        flows: list[IntArray] = []
        links: list[IntArray] = []
        # r_prefix[f] accumulates the mixed-radix value of ports[:, :i]
        # (the W_1..W_i digits shared by the up and down path nodes).
        r_prefix = np.zeros(len(self), dtype=np.int64)
        up_base = 0
        for i in range(topo.h):
            active = np.nonzero(self.nca_level > i)[0]
            if len(active) == 0:
                break
            p_i = topo.mprod(i)
            wp_i = topo.wprod(i)
            w_next = topo.w[i]
            port = self.ports[active, i]
            up_node = (self.src[active] // p_i) * wp_i + r_prefix[active]
            down_node = (self.dst[active] // p_i) * wp_i + r_prefix[active]
            up_idx = up_base + up_node * w_next + port
            down_idx = topo.num_links_per_direction + up_base + down_node * w_next + port
            flows.append(active)
            links.append(up_idx)
            flows.append(active)
            links.append(down_idx)
            r_prefix[active] += port * wp_i
            up_base += topo.num_up_links(i)
        if not flows:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(flows), np.concatenate(links)

    def nca_nodes(self) -> IntArray:
        """``(F,)`` array: the chosen NCA node id of every flow.

        Note the id is only meaningful together with ``nca_level``; flows
        with ``nca_level == 0`` (self-pairs) report their own leaf id.
        """
        topo = self.topo
        out = np.empty(len(self), dtype=np.int64)
        r_prefix = np.zeros(len(self), dtype=np.int64)
        done = self.nca_level == 0
        out[done] = self.src[done]
        for i in range(topo.h):
            active = self.nca_level > i
            if not active.any():
                break
            r_prefix[active] += self.ports[active, i] * topo.wprod(i)
            arrived = self.nca_level == i + 1
            out[arrived] = (
                self.src[arrived] // topo.mprod(i + 1)
            ) * topo.wprod(i + 1) + r_prefix[arrived]
        return out

    def concat(self, other: "RouteTable") -> "RouteTable":
        """Concatenate two tables over the same topology."""
        if other.topo != self.topo:
            raise ValueError("cannot concatenate tables over different topologies")
        return RouteTable(
            self.topo,
            np.concatenate([self.src, other.src]),
            np.concatenate([self.dst, other.dst]),
            np.concatenate([self.nca_level, other.nca_level]),
            np.vstack([self.ports, other.ports]),
        )

    def take(self, idx: npt.ArrayLike) -> "RouteTable":
        """A new table holding rows ``idx`` (gathered, copies).

        The row-subsetting primitive shared with
        :meth:`repro.graphs.table.PathTable.take` — callers slicing an
        all-pairs table (the pattern/driver subset paths) go through
        this instead of spelling out the columns, so both table kinds
        subset the same way.
        """
        idx = np.asarray(idx, dtype=np.int64)
        return RouteTable(
            self.topo, self.src[idx], self.dst[idx], self.nca_level[idx], self.ports[idx]
        )
