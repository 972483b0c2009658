"""The compressed columnar route-table format.

The production artifact an oblivious scheme ships is its all-pairs route
table.  Stored naively (struct-of-arrays ``RouteTable``: int64 ``src``,
``dst``, ``nca_level`` plus an ``(F, h)`` int64 port matrix) a
2048-leaf table costs ~40 bytes/route.  XGFT structure makes almost all
of that redundant — the insight *Compact Oblivious Routing* (Räcke &
Schmid) and its weighted-graph sequel push to sublinear tables:

* **all-pairs order is implicit** — the canonical table enumerates
  ordered pairs source-major with the diagonal removed, so ``src``/
  ``dst`` regenerate from the row index and ``nca_level`` from the
  topology's digit arithmetic; none of the three needs storing;
* **destination-deterministic schemes collapse to per-destination
  rows** — D-mod-k and r-NCA-d choose every up-port from the
  destination alone, so a level's whole ``F``-entry column compresses
  to ``n`` entries (``columnar`` encoding; source-deterministic
  S-mod-k / r-NCA-u collapse the same way onto the source axis).
  These four schemes declare the endpoint that steers them
  (:attr:`~repro.core.base.RoutingAlgorithm.steered_by`), and
  :meth:`CompactRouteTable.steered` writes their entry straight from
  one ``n``-entry port column per level, without routing a pair;
* **randomized NCA tables dedupe shared up-path prefixes** — Random
  NCA draws, per pair, one of at most ``w_1 * ... * w_h`` distinct
  up-path prefixes, so the port matrix compresses to a tiny prefix
  dictionary plus one small code per route (``prefix-dict`` encoding);
* anything else falls back to ``dense``: per-level columns at the
  minimal unsigned dtype the level's ``w_i`` needs (still 8-16x under
  the int64 matrix).

:meth:`CompactRouteTable.encode` picks the cheapest applicable encoding
and the decode (:meth:`CompactRouteTable.to_table`) is bit-exact for
every table; a steered entry is byte-identical to the encoded
all-pairs table of its scheme.  All payloads are flat NumPy arrays, so
a stored entry memory-maps (:mod:`repro.store.artifact`) and batch
lookups gather straight from the mapped columns without materializing
the table.  :meth:`CompactRouteTable.check` checks payloads against
their descriptor before a stored entry is served.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

import numpy as np

from ..topology import XGFT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.base import RoutingAlgorithm
    from ..core.route import Route, RouteTable

__all__ = ["CompactRouteTable", "FORMAT_VERSION"]

#: on-disk format version; readers refuse entries from another major
FORMAT_VERSION = 1

ENCODINGS = ("columnar", "prefix-dict", "dense")


def _uint_dtype(max_value: int) -> np.dtype:
    """The smallest unsigned dtype that holds ``max_value`` (>= 0)."""
    for dt in (np.uint8, np.uint16, np.uint32):
        if max_value <= np.iinfo(dt).max:
            return np.dtype(dt)
    return np.dtype(np.uint64)


def _check_ports(ports: np.ndarray, w: int, what: str) -> None:
    """Raise ``ValueError`` if one of a level's ports leaves ``[0, w)``."""
    values = ports.astype(np.int64)  # a uint64 past int64 wraps negative
    bad = np.flatnonzero((values < 0) | (values >= w))
    if len(bad):
        f = int(bad[0])
        raise ValueError(f"{what} holds port {int(values[f])} at entry {f}, outside [0, {w})")


def _all_pairs_endpoints(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The canonical all-pairs enumeration (source-major, no diagonal)."""
    src, dst = np.divmod(np.arange(n * n, dtype=np.int64), n)
    keep = src != dst
    return src[keep], dst[keep]


def _all_pairs_rows(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Row index of ``(src, dst)`` in the canonical all-pairs order."""
    return src * (n - 1) + dst - (dst > src)


class CompactRouteTable:
    """A route table in the compressed columnar format.

    Build one with :meth:`encode` (or
    :meth:`repro.core.route.RouteTable.to_compact`); reopen stored ones
    through :class:`repro.store.ArtifactStore`, whose arrays arrive
    memory-mapped.  The query surface (:meth:`lookup`,
    :meth:`batch_lookup`) answers straight from the compact columns —
    opening and querying a multi-million-route table never materializes
    the struct-of-arrays form.

    Parameters (use the constructors above rather than ``__init__``)
    ----------
    topo: the topology.
    kind: ``"all-pairs"`` (canonical enumeration, endpoints implicit)
        or ``"pairs"`` (explicit ``src``/``dst`` payload arrays).
    encoding: one of :data:`ENCODINGS` (module docstring).
    num_routes: ``F``.
    meta: the encoding descriptor (JSON-safe; persisted verbatim).
    arrays: the payload arrays, named per the descriptor.
    """

    def __init__(
        self,
        topo: XGFT,
        kind: str,
        encoding: str,
        num_routes: int,
        meta: dict,
        arrays: Mapping[str, np.ndarray],
    ):
        if encoding not in ENCODINGS:
            raise ValueError(f"unknown encoding {encoding!r}; known: {', '.join(ENCODINGS)}")
        if kind not in ("all-pairs", "pairs"):
            raise ValueError(f"unknown table kind {kind!r}")
        self.topo = topo
        self.kind = kind
        self.encoding = encoding
        self.num_routes = int(num_routes)
        self.meta = dict(meta)
        self.arrays = dict(arrays)
        self._endpoints: tuple[np.ndarray, np.ndarray] | None = None
        self._nca: np.ndarray | None = None
        self._pair_rows: np.ndarray | None = None

    def __len__(self) -> int:
        return self.num_routes

    @property
    def nbytes(self) -> int:
        """Bytes held by the compact payload arrays."""
        return int(sum(a.nbytes for a in self.arrays.values()))

    @property
    def bytes_per_route(self) -> float:
        return self.nbytes / self.num_routes if self.num_routes else 0.0

    def describe(self) -> dict:
        """The JSON-safe format descriptor (persisted as ``meta.json``)."""
        return {
            "format_version": FORMAT_VERSION,
            "topology": self.topo.spec(),
            "kind": self.kind,
            "encoding": self.encoding,
            "num_routes": self.num_routes,
            "num_leaves": self.topo.num_leaves,
            "nbytes": self.nbytes,
            **self.meta,
        }

    def check(self) -> None:
        """Raise ``ValueError`` unless the payload arrays fit the descriptor.

        Checked: the array names the encoding needs, no more and no
        fewer; every per-route array (endpoints, explicit levels,
        ``codes``, ``levelN``) is a flat integer array of ``num_routes``
        entries; an all-pairs table has ``n * (n - 1)`` routes.  Values
        are checked only where they are few: each of a columnar table's
        ``h`` columns holds ``n`` ports, each ``< w_{i+1}``, on a
        ``src`` or ``dst`` axis, and a prefix dictionary is an
        ``(num_prefixes, h)`` table of in-range ports.  Per-route values
        are not scanned, so checking a multi-million-route entry stays
        cheap.
        """
        topo = self.topo
        n, h, num_routes = topo.num_leaves, topo.h, self.num_routes
        if self.kind == "all-pairs" and num_routes != n * (n - 1):
            raise ValueError(
                f"an all-pairs table on {n} leaves has {n * (n - 1)} routes, "
                f"not {num_routes}"
            )
        lengths = {}  # payload name -> entries it must hold
        if self.kind == "pairs":
            lengths.update(src=num_routes, dst=num_routes)
        if self.meta.get("explicit_nca"):
            lengths["nca"] = num_routes
        if self.encoding == "columnar":
            lengths.update({f"col{i}": n for i in range(h)})
        elif self.encoding == "prefix-dict":
            lengths.update(codes=num_routes, prefixes=self.meta.get("num_prefixes"))
        else:
            lengths.update({f"level{i}": num_routes for i in range(h)})
        if set(self.arrays) != set(lengths):
            raise ValueError(
                f"a {self.encoding} {self.kind} table holds the arrays "
                f"{sorted(lengths)}, not {sorted(self.arrays)}"
            )
        for name, length in lengths.items():
            array = self.arrays[name]
            ndim = 2 if name == "prefixes" else 1
            if array.dtype.kind not in "iu" or array.ndim != ndim:
                raise ValueError(
                    f"array {name!r} is not a {ndim}-D integer array "
                    f"(dtype {array.dtype}, shape {array.shape})"
                )
            if len(array) != length:
                raise ValueError(f"array {name!r} has {len(array)} entries, not {length}")
        if self.encoding == "columnar":
            axes = self.meta.get("column_axes")
            if not isinstance(axes, list) or len(axes) != h:
                raise ValueError(f"column_axes {axes!r} does not name one axis per level")
            for i, axis in enumerate(axes):
                if axis not in ("src", "dst"):
                    raise ValueError(f"column {i} has unknown axis {axis!r}")
                _check_ports(self.arrays[f"col{i}"], topo.w[i], f"column {i}")
        elif self.encoding == "prefix-dict":
            prefixes = self.arrays["prefixes"]
            if prefixes.shape[1] != h:
                raise ValueError(f"prefixes have {prefixes.shape[1]} levels, not {h}")
            for i in range(h):
                _check_ports(prefixes[:, i], topo.w[i], f"prefix table level {i}")

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    @classmethod
    def encode(cls, table: "RouteTable") -> "CompactRouteTable":
        """Compress a :class:`~repro.core.route.RouteTable` losslessly.

        Encoding choice: ``columnar`` whenever every level's active
        ports are a pure function of one endpoint (and the inactive
        entries are the canonical 0), else the cheaper of
        ``prefix-dict`` and ``dense``.
        """
        topo = table.topo
        n = topo.num_leaves
        F = len(table)
        meta: dict = {}
        arrays: dict[str, np.ndarray] = {}

        kind = "pairs"
        if F == n * (n - 1):
            c_src, c_dst = _all_pairs_endpoints(n)
            if np.array_equal(table.src, c_src) and np.array_equal(table.dst, c_dst):
                kind = "all-pairs"
        if kind == "pairs":
            ep_dtype = _uint_dtype(max(n - 1, 0))
            arrays["src"] = table.src.astype(ep_dtype)
            arrays["dst"] = table.dst.astype(ep_dtype)

        # nca_level is recomputed from the endpoints at decode; tables
        # whose stored levels disagree (hand-built) keep an explicit copy
        recomputed = topo.nca_level_array(table.src, table.dst)
        if not np.array_equal(recomputed, table.nca_level):
            arrays["nca"] = table.nca_level.astype(_uint_dtype(topo.h))
            meta["explicit_nca"] = True

        columnar = cls._try_columnar(table)
        if columnar is not None:
            return cls._columnar(topo, kind, F, meta, arrays, *columnar)

        # prefix-dict vs dense: pick by cost
        prefixes, codes = np.unique(table.ports, axis=0, return_inverse=True)
        port_dtype = _uint_dtype(max(topo.w) - 1 if topo.w else 0)
        code_dtype = _uint_dtype(max(len(prefixes) - 1, 0))
        dict_cost = F * code_dtype.itemsize + prefixes.size * port_dtype.itemsize
        dense_cost = sum(
            F * _uint_dtype(topo.w[i] - 1).itemsize for i in range(topo.h)
        )
        if dict_cost <= dense_cost:
            arrays["codes"] = codes.astype(code_dtype)
            arrays["prefixes"] = prefixes.astype(port_dtype)
            meta["num_prefixes"] = int(len(prefixes))
            return cls(topo, kind, "prefix-dict", F, meta, arrays)
        for i in range(topo.h):
            arrays[f"level{i}"] = table.ports[:, i].astype(_uint_dtype(topo.w[i] - 1))
        return cls(topo, kind, "dense", F, meta, arrays)

    @staticmethod
    def _try_columnar(table: "RouteTable") -> tuple[list[str], list[np.ndarray]] | None:
        """Per-endpoint column collapse, or ``None`` if any level resists.

        A level collapses onto an axis iff (a) all rows active at that
        level agree on one port per endpoint id and (b) the inactive
        entries are 0 (the canonical padding the decoder regenerates).
        """
        topo = table.topo
        axes: list[str] = []
        cols: list[np.ndarray] = []
        n = topo.num_leaves
        for i in range(topo.h):
            active = table.nca_level > i
            if table.ports[~active, i].any():
                return None  # non-canonical padding: only dict/dense are exact
            vals = table.ports[active, i]
            chosen = None
            for axis, ids_full in (("dst", table.dst), ("src", table.src)):
                ids = ids_full[active]
                col = np.zeros(n, dtype=np.int64)
                col[ids] = vals
                if np.array_equal(col[ids], vals):
                    chosen = (axis, col)
                    break
            if chosen is None:
                return None
            axes.append(chosen[0])
            cols.append(chosen[1])
        return axes, cols

    @classmethod
    def _columnar(
        cls,
        topo: XGFT,
        kind: str,
        num_routes: int,
        meta: dict,
        arrays: dict[str, np.ndarray],
        axes: list[str],
        cols: list[np.ndarray],
    ) -> "CompactRouteTable":
        """The one constructor of a ``columnar`` table (:meth:`encode`, :meth:`steered`)."""
        meta["column_axes"] = list(axes)
        for i, col in enumerate(cols):
            arrays[f"col{i}"] = col.astype(_uint_dtype(topo.w[i] - 1))
        return cls(topo, kind, "columnar", num_routes, meta, arrays)

    @classmethod
    def steered(cls, algorithm: "RoutingAlgorithm") -> "CompactRouteTable":
        """The all-pairs table of an endpoint-steered scheme, from its port columns.

        ``algorithm.steered_by`` names the endpoint whose id alone fixes
        each level's up-port, so level ``i`` is the ``n``-entry column
        ``port_array(i, leaves, leaves)``, kept as 0 where no pair climbs
        that high.  No pair is routed, and the result is byte-identical
        to ``encode(algorithm.all_pairs_table())``, down to encode's
        destination-first axis choice: a source-steered level lands on
        the destination axis too when every destination sees one port
        from all the sources outside its level-``i`` subtree.
        """
        axis = algorithm.steered_by
        if axis not in ("src", "dst"):
            raise ValueError(
                f"{type(algorithm).__name__} is not steered by one endpoint "
                f"(steered_by={axis!r})"
            )
        topo = algorithm.topo
        n = topo.num_leaves
        leaves = np.arange(n, dtype=np.int64)
        axes: list[str] = []
        cols: list[np.ndarray] = []
        for i in range(topo.h):
            size = topo.mprod(i)  # leaves per level-i subtree
            if size >= n:  # one subtree: no pair climbs above level i
                level_axis, col = "dst", np.zeros(n, dtype=np.int64)
            else:
                level_axis = axis
                col = algorithm.port_array(i, leaves, leaves)
                groups = col.reshape(-1, size)
                if (
                    axis == "src"
                    and (groups == groups[:, :1]).all()
                    and (len(groups) == 2 or (col == col[0]).all())
                ):
                    # every destination's sources are the other
                    # subtree(s), which all send on one port
                    level_axis, col = "dst", np.repeat(groups[::-1, 0], size)
            axes.append(level_axis)
            cols.append(col)
        return cls._columnar(topo, "all-pairs", n * (n - 1), {}, {}, axes, cols)

    # ------------------------------------------------------------------
    # Decoding / materialization
    # ------------------------------------------------------------------
    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` int64 arrays (regenerated for all-pairs kind)."""
        if self._endpoints is None:
            if self.kind == "all-pairs":
                self._endpoints = _all_pairs_endpoints(self.topo.num_leaves)
            else:
                self._endpoints = (
                    np.asarray(self.arrays["src"], dtype=np.int64),
                    np.asarray(self.arrays["dst"], dtype=np.int64),
                )
        return self._endpoints

    def nca_levels(self) -> np.ndarray:
        """``(F,)`` int64 NCA levels (recomputed unless stored explicit)."""
        if self._nca is None:
            if self.meta.get("explicit_nca"):
                self._nca = np.asarray(self.arrays["nca"], dtype=np.int64)
            else:
                src, dst = self.endpoints()
                self._nca = self.topo.nca_level_array(src, dst)
        return self._nca

    def _decode_ports(
        self, src: np.ndarray, dst: np.ndarray, nca: np.ndarray, rows: np.ndarray | None
    ) -> np.ndarray:
        """The ``(B, h)`` int64 port matrix for the given rows.

        ``rows`` indexes the stored route order; the columnar encoding
        ignores it (ports come from the endpoints alone).
        """
        topo = self.topo
        out = np.zeros((len(src), topo.h), dtype=np.int64)
        if self.encoding == "columnar":
            for i, axis in enumerate(self.meta["column_axes"]):
                ids = dst if axis == "dst" else src
                out[:, i] = np.where(nca > i, np.asarray(self.arrays[f"col{i}"])[ids], 0)
            return out
        assert rows is not None
        if self.encoding == "prefix-dict":
            prefixes = np.asarray(self.arrays["prefixes"], dtype=np.int64)
            codes = np.asarray(self.arrays["codes"])[rows]
            return prefixes[codes]
        for i in range(topo.h):
            out[:, i] = np.asarray(self.arrays[f"level{i}"])[rows]
        return out

    def to_table(self) -> "RouteTable":
        """Decode the full struct-of-arrays :class:`~repro.core.route.RouteTable`.

        Bit-exact inverse of :meth:`encode`.
        """
        from ..core.route import RouteTable

        src, dst = self.endpoints()
        nca = self.nca_levels()
        rows = np.arange(self.num_routes, dtype=np.int64)
        ports = self._decode_ports(src, dst, nca, rows)
        return RouteTable(self.topo, src.copy(), dst.copy(), nca.copy(), ports)

    # ------------------------------------------------------------------
    # Query surface
    # ------------------------------------------------------------------
    def _rows_for(self, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
        """Stored-row indices for pairs; ``KeyError`` on a missing pair."""
        n = self.topo.num_leaves
        if self.kind == "all-pairs":
            if (srcs == dsts).any():
                f = int(np.nonzero(srcs == dsts)[0][0])
                raise KeyError(
                    f"pair ({int(srcs[f])}, {int(dsts[f])}) has no route "
                    "in an all-pairs table (self-pair)"
                )
            return _all_pairs_rows(n, srcs, dsts)
        if self._pair_rows is None:
            src, dst = self.endpoints()
            rows = np.full(n * n, -1, dtype=np.int64)
            rows[src[::-1] * n + dst[::-1]] = np.arange(
                self.num_routes - 1, -1, -1, dtype=np.int64
            )
            self._pair_rows = rows
        idx = self._pair_rows[srcs * n + dsts]
        missing = np.nonzero(idx < 0)[0]
        if len(missing):
            f = int(missing[0])
            raise KeyError(
                f"pair ({int(srcs[f])}, {int(dsts[f])}) has no route in this table"
            )
        return idx

    def batch_lookup(
        self, srcs: np.ndarray, dsts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized lookup: ``(nca_levels (B,), ports (B, h))`` int64.

        Gathers straight from the compact columns — the serving hot
        path; no full-table materialization, mmap-friendly.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        if srcs.shape != dsts.shape:
            raise ValueError("srcs and dsts must have matching shapes")
        n = self.topo.num_leaves
        if len(srcs) and (
            srcs.min() < 0 or srcs.max() >= n or dsts.min() < 0 or dsts.max() >= n
        ):
            raise KeyError(f"pair endpoints outside leaf range [0, {n})")
        # membership is always validated (self-pairs and absent pairs
        # raise exactly as RouteTable.lookup does); the columnar decode
        # itself never touches the row indices
        rows = self._rows_for(srcs, dsts)
        if self.meta.get("explicit_nca"):
            nca = np.asarray(self.arrays["nca"], dtype=np.int64)[rows]
        else:
            nca = self.topo.nca_level_array(srcs, dsts)
        return nca, self._decode_ports(srcs, dsts, nca, rows)

    def lookup(self, src: int, dst: int) -> "Route":
        """One pair's stored route, materialized as a :class:`Route`."""
        from ..core.route import Route

        nca, ports = self.batch_lookup(
            np.asarray([src], dtype=np.int64), np.asarray([dst], dtype=np.int64)
        )
        lvl = int(nca[0])
        return Route(int(src), int(dst), tuple(int(p) for p in ports[0, :lvl]))
