"""The Extended Generalized Fat Tree (XGFT) topology model.

An ``XGFT(h; m1, ..., mh; w1, ..., wh)`` (Ohring et al. [10] in the paper)
is a multi-stage tree with ``h + 1`` levels.  Level 0 holds the
``N = prod(m_i)`` leaf (processing) nodes; levels ``1..h`` hold switches.
Every non-leaf node at level ``i`` has ``m_i`` children and every non-root
node at level ``l`` has ``w_{l+1}`` parents.

Labels follow the paper's Table I (see :mod:`repro.topology.labels`): a
level-``i`` node is ``<M_h..M_{i+1}, W_i..W_1>``.  Two nodes at adjacent
levels ``l`` and ``l+1`` are connected iff their labels agree on all
shared digit positions (``W_1..W_l`` and ``M_{l+2}..M_h``); the level-l
node's up-port towards the parent is the parent's ``W_{l+1}`` digit and
the parent's down-port towards the child is the child's ``M_{l+1}``
digit.

Directed links are identified by ``(level, lower_node, port, direction)``
where ``port`` is the lower node's up-port: the parent reached through
up-port ``p`` is unique, so the pair also names the corresponding *down*
link from that parent.  :meth:`XGFT.up_link_index` /
:meth:`XGFT.down_link_index` map these coordinates to a dense ``[0,
num_links)`` integer range used by the contention counters and the
simulators.
"""

from __future__ import annotations

import math
import re
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .labels import MixedRadix

__all__ = ["XGFT", "parse_xgft"]

_SPEC_RE = re.compile(
    r"^\s*XGFT\s*\(\s*(\d+)\s*;\s*([0-9,\s]+)\s*;\s*([0-9,\s]+)\s*\)\s*$",
    re.IGNORECASE,
)


class XGFT:
    """An Extended Generalized Fat Tree ``XGFT(h; m...; w...)``.

    Parameters
    ----------
    m:
        Children-per-level vector ``(m_1, ..., m_h)``; ``m_i >= 1``.
    w:
        Parents-per-level vector ``(w_1, ..., w_h)``; ``w_i >= 1``.

    Notes
    -----
    Paper indices are 1-based (``m_1..m_h``); use :meth:`m_` / :meth:`w_`
    for 1-based access.  Node ids at level ``i`` live in
    ``[0, num_nodes(i))`` and encode the Table-I label in mixed radix,
    least-significant digit first (bases ``w_1..w_i, m_{i+1}..m_h``).
    """

    def __init__(self, m: Sequence[int], w: Sequence[int]):
        m = tuple(int(x) for x in m)
        w = tuple(int(x) for x in w)
        if len(m) != len(w):
            raise ValueError(f"m and w must have the same length; got {len(m)} and {len(w)}")
        if not m:
            raise ValueError("height must be at least 1")
        if any(x < 1 for x in m):
            raise ValueError(f"all m_i must be >= 1, got {m}")
        if any(x < 1 for x in w):
            raise ValueError(f"all w_i must be >= 1, got {w}")
        self.m = m
        self.w = w
        #: tree height; the topology has ``h + 1`` levels, 0..h.
        self.h = len(m)
        #: number of processing (leaf) nodes.
        self.num_leaves = math.prod(m)
        # mixed-radix systems per level (bases LSB first).
        self._radix = tuple(
            MixedRadix(w[:i] + m[i:]) for i in range(self.h + 1)
        )
        # prefix products P_i = m_1 * ... * m_i  (P_0 = 1)
        self._mprod = [1]
        for x in m:
            self._mprod.append(self._mprod[-1] * x)
        # prefix products of w: Wp_i = w_1 * ... * w_i (Wp_0 = 1)
        self._wprod = [1]
        for x in w:
            self._wprod.append(self._wprod[-1] * x)

    # ------------------------------------------------------------------
    # 1-based parameter accessors (paper notation)
    # ------------------------------------------------------------------
    def m_(self, i: int) -> int:
        """``m_i`` with the paper's 1-based index (``1 <= i <= h``)."""
        if not 1 <= i <= self.h:
            raise IndexError(f"m_{i} undefined for height {self.h}")
        return self.m[i - 1]

    def w_(self, i: int) -> int:
        """``w_i`` with the paper's 1-based index (``1 <= i <= h``)."""
        if not 1 <= i <= self.h:
            raise IndexError(f"w_{i} undefined for height {self.h}")
        return self.w[i - 1]

    def mprod(self, i: int) -> int:
        """``P_i = m_1 * ... * m_i`` (``P_0 == 1``)."""
        return self._mprod[i]

    def wprod(self, i: int) -> int:
        """``w_1 * ... * w_i`` (``== 1`` for ``i == 0``)."""
        return self._wprod[i]

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def num_nodes(self, level: int) -> int:
        """Number of nodes at ``level`` (Table I: ``N^i``)."""
        self._check_level(level)
        return (self.num_leaves // self._mprod[level]) * self._wprod[level]

    @cached_property
    def num_switches(self) -> int:
        """Total number of inner switches, Eq. (1) of the paper."""
        return sum(self.num_nodes(level) for level in range(1, self.h + 1))

    def num_up_links(self, level: int) -> int:
        """Number of (bidirectional) links from ``level`` up to ``level+1``."""
        self._check_level(level)
        if level == self.h:
            return 0
        return self.num_nodes(level) * self.w[level]

    @cached_property
    def num_links_per_direction(self) -> int:
        """Total number of inter-level links (one direction)."""
        return sum(self.num_up_links(level) for level in range(self.h))

    def radix(self, level: int) -> MixedRadix:
        """The mixed-radix label system of ``level``."""
        self._check_level(level)
        return self._radix[level]

    def num_up_ports(self, level: int) -> int:
        """Up-ports of a node at ``level`` (``w_{level+1}``; 0 at the roots)."""
        self._check_level(level)
        return 0 if level == self.h else self.w[level]

    def num_down_ports(self, level: int) -> int:
        """Down-ports of a node at ``level`` (``m_level``; 0 at the leaves)."""
        self._check_level(level)
        return 0 if level == 0 else self.m[level - 1]

    def label(self, level: int, node: int) -> tuple[int, ...]:
        """Table-I label of a node, most-significant digit first.

        Returned as ``(M_h, ..., M_{i+1}, W_i, ..., W_1)`` to match the
        paper's reading order.
        """
        self._check_node(level, node)
        return tuple(reversed(self._radix[level].decode(node)))

    def node_from_label(self, level: int, label: Sequence[int]) -> int:
        """Inverse of :meth:`label` (label given MSB first)."""
        return self._radix[level].encode(tuple(reversed(tuple(label))))

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def up_neighbor(self, level: int, node: int, port: int) -> int:
        """Parent of ``node`` (at ``level``) reached through up-port ``port``.

        The parent lives at ``level + 1``; its ``W_{level+1}`` digit equals
        ``port`` and all other digits are inherited.
        """
        self._check_node(level, node)
        if level >= self.h:
            raise ValueError(f"nodes at the root level {self.h} have no parents")
        if not 0 <= port < self.w[level]:
            raise ValueError(f"up-port {port} out of range [0, {self.w[level]})")
        rad = self._radix[level]
        low = node % rad.weights[level]            # W_1..W_level digits
        high = node // rad.weights[level + 1]      # M_{level+2}..M_h digits
        up_rad = self._radix[level + 1]
        return low + port * up_rad.weights[level] + high * up_rad.weights[level + 1]

    def down_neighbor(self, level: int, node: int, port: int) -> int:
        """Child of ``node`` (at ``level``) reached through down-port ``port``.

        The child lives at ``level - 1``; its ``M_level`` digit equals
        ``port`` and all other digits are inherited.
        """
        self._check_node(level, node)
        if level <= 0:
            raise ValueError("leaf nodes have no children")
        if not 0 <= port < self.m[level - 1]:
            raise ValueError(f"down-port {port} out of range [0, {self.m[level - 1]})")
        rad = self._radix[level]
        low = node % rad.weights[level - 1]
        high = node // rad.weights[level]
        down_rad = self._radix[level - 1]
        return low + port * down_rad.weights[level - 1] + high * down_rad.weights[level]

    def parents(self, level: int, node: int) -> list[int]:
        """All parents of a node, ordered by up-port."""
        if level == self.h:
            return []
        return [self.up_neighbor(level, node, p) for p in range(self.w[level])]

    def children(self, level: int, node: int) -> list[int]:
        """All children of a node, ordered by down-port."""
        if level == 0:
            return []
        return [self.down_neighbor(level, node, c) for c in range(self.m[level - 1])]

    def up_port_to(self, level: int, node: int, parent: int) -> int:
        """The up-port of ``node`` that reaches ``parent`` (its W_{level+1} digit)."""
        port = self._radix[level + 1].digit(parent, level)
        if self.up_neighbor(level, node, port) != parent:
            raise ValueError(f"node {node}@{level} is not a child of {parent}@{level + 1}")
        return port

    def down_port_to(self, level: int, node: int, child: int) -> int:
        """The down-port of ``node`` that reaches ``child`` (its M_level digit)."""
        port = self._radix[level - 1].digit(child, level - 1)
        if self.down_neighbor(level, node, port) != child:
            raise ValueError(f"node {child}@{level - 1} is not a child of {node}@{level}")
        return port

    # ------------------------------------------------------------------
    # Nearest common ancestors
    # ------------------------------------------------------------------
    def nca_level(self, src: int, dst: int) -> int:
        """The level of the nearest common ancestors of two leaves.

        It is the smallest ``l`` with ``src // P_l == dst // P_l``: the two
        leaves lie in the same height-``l`` subtree but (for ``l > 0``)
        different height-``l-1`` subtrees.  ``nca_level(s, s) == 0``.
        """
        self._check_node(0, src)
        self._check_node(0, dst)
        for level in range(self.h + 1):
            if src // self._mprod[level] == dst // self._mprod[level]:
                return level
        raise AssertionError("unreachable: leaves always share the whole tree")

    def nca_level_array(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`nca_level` over leaf-id arrays."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        out = np.full(np.broadcast(src, dst).shape, self.h, dtype=np.int64)
        # Walk levels top-down, recording the smallest level at which the
        # subtree ids match.
        for level in range(self.h - 1, -1, -1):
            match = (src // self._mprod[level]) == (dst // self._mprod[level])
            out[match] = level
        return out

    def num_ncas(self, level: int) -> int:
        """Number of common ancestors at ``level`` for a pair with that NCA level."""
        self._check_level(level)
        return self._wprod[level]

    def subtree_node(self, leaf: int, up_ports: Sequence[int], level: int) -> int:
        """The level-``level`` node above ``leaf`` reached via ``up_ports``.

        ``up_ports[i]`` is the up-port taken at level ``i``; only the first
        ``level`` entries are used.  The result has ``W_{j} = up_ports[j-1]``
        and inherits the leaf's ``M`` digits above ``level``.
        """
        self._check_node(0, leaf)
        self._check_level(level)
        if len(up_ports) < level:
            raise ValueError(f"need {level} up-ports, got {len(up_ports)}")
        value = 0
        for j in range(level - 1, -1, -1):
            if not 0 <= up_ports[j] < self.w[j]:
                raise ValueError(
                    f"up-port {up_ports[j]} at level {j} out of range [0, {self.w[j]})"
                )
            value = value * self.w[j] + up_ports[j]
        # value now encodes W_level..W_1; prepend leaf's M digits.
        return value + (leaf // self._mprod[level]) * self._wprod[level]

    # ------------------------------------------------------------------
    # Dense directed-link indexing
    # ------------------------------------------------------------------
    @cached_property
    def _link_level_offset(self) -> tuple[int, ...]:
        offsets = [0]
        for level in range(self.h):
            offsets.append(offsets[-1] + self.num_up_links(level))
        return tuple(offsets)

    def up_link_index(self, level: int, node: int, port: int) -> int:
        """Dense index of the up link ``node@level --port--> parent``."""
        self._check_node(level, node)
        if level >= self.h or not 0 <= port < self.w[level]:
            raise ValueError(f"invalid up link ({level}, {node}, {port})")
        return self._link_level_offset[level] + node * self.w[level] + port

    def down_link_index(self, level: int, node: int, port: int) -> int:
        """Dense index of the down link ``parent --> node@level``.

        The down link is named by its *lower* endpoint ``node`` and the
        up-port ``port`` of ``node`` that reaches the parent in question;
        down links occupy ``[num_links_per_direction, 2*num_links_per_direction)``.
        """
        return self.num_links_per_direction + self.up_link_index(level, node, port)

    @property
    def num_directed_links(self) -> int:
        """Total number of directed inter-level links (up + down)."""
        return 2 * self.num_links_per_direction

    def describe_link(self, index: int) -> tuple[str, int, int, int]:
        """Inverse of the link indexers: ``(direction, level, node, port)``.

        ``direction`` is ``"up"`` or ``"down"``; ``level``/``node`` name the
        lower endpoint and ``port`` its up-port towards the upper endpoint.
        """
        if not 0 <= index < self.num_directed_links:
            raise ValueError(f"link index {index} out of range")
        direction = "up"
        if index >= self.num_links_per_direction:
            direction = "down"
            index -= self.num_links_per_direction
        level = 0
        while index >= self._link_level_offset[level + 1]:
            level += 1
        index -= self._link_level_offset[level]
        return direction, level, index // self.w[level], index % self.w[level]

    def link_levels(self, links: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each link's lower-endpoint level, and a mask of the down links."""
        down = links >= self.num_links_per_direction
        lower = links - down * self.num_links_per_direction
        return np.searchsorted(self._link_level_offset, lower, side="right") - 1, down

    # ------------------------------------------------------------------
    # Iteration helpers
    # ------------------------------------------------------------------
    def leaves(self) -> range:
        """Iterate over leaf ids."""
        return range(self.num_leaves)

    def nodes(self) -> Iterator[tuple[int, int]]:
        """Iterate over all ``(level, node)`` pairs, leaves first."""
        for level in range(self.h + 1):
            for node in range(self.num_nodes(level)):
                yield level, node

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    @property
    def is_kary_ntree(self) -> bool:
        """True iff this is a k-ary n-tree: ``m_i == k``, ``w_1 == 1``, ``w_{i>1} == k``."""
        k = self.m[0]
        return (
            all(x == k for x in self.m)
            and self.w[0] == 1
            and all(x == k for x in self.w[1:])
        )

    @property
    def is_slimmed(self) -> bool:
        """True iff some upper level has fewer parents than children
        (``w_{i} < m_{i}`` for some i>=2)."""
        return any(self.w[i] < self.m[i] for i in range(1, self.h))

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def spec(self) -> str:
        """Canonical spec string, e.g. ``"XGFT(2;16,16;1,8)"``."""
        return (
            f"XGFT({self.h};"
            + ",".join(str(x) for x in self.m)
            + ";"
            + ",".join(str(x) for x in self.w)
            + ")"
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, XGFT) and self.m == other.m and self.w == other.w

    def __hash__(self) -> int:
        return hash((self.m, self.w))

    def __repr__(self) -> str:
        return self.spec()

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.h:
            raise ValueError(f"level {level} out of range [0, {self.h}]")

    def _check_node(self, level: int, node: int) -> None:
        self._check_level(level)
        if not 0 <= node < self.num_nodes(level):
            raise ValueError(
                f"node {node} out of range [0, {self.num_nodes(level)}) at level {level}"
            )


def parse_xgft(spec: str) -> XGFT:
    """Parse a spec string like ``"XGFT(2; 16,16; 1,8)"`` into an :class:`XGFT`.

    The height must match the length of both parameter vectors.
    """
    match = _SPEC_RE.match(spec)
    if not match:
        raise ValueError(f"not a valid XGFT spec: {spec!r}")
    h = int(match.group(1))
    m = tuple(int(x) for x in match.group(2).split(","))
    w = tuple(int(x) for x in match.group(3).split(","))
    if len(m) != h or len(w) != h:
        raise ValueError(
            f"height {h} does not match parameter vectors m={m}, w={w}"
        )
    return XGFT(m, w)
