"""The persistent, versioned route-table artifact store.

A store is a directory of immutable entries, one per canonical
``(topology, algorithm, seed, faults)`` key (:class:`StoreKey`).  Each
entry is a subdirectory named by the key's content digest::

    <root>/
      ab12cd34ef567890/
        meta.json        # format descriptor + key (written last)
        col0.npy         # compact payload arrays, one .npy each
        col1.npy
      ...

Properties the serving layer leans on:

* **zero-copy open** — payload arrays load with
  ``np.load(..., mmap_mode="r")``, so opening a 2048-leaf entry maps
  pages lazily in milliseconds instead of materializing megabytes;
* **atomic publication** — writers build the entry in a hidden temp
  directory (``meta.json`` written last) and ``os.rename`` it into
  place, so a concurrent reader only ever sees complete entries; on a
  racing double-write the first rename wins and the loser discards its
  temp copy (entries are pure functions of their key, so either copy is
  correct);
* **read-only entries** — :meth:`ArtifactStore.open` returns mmap'd
  arrays opened read-only; what-if queries (fault repair) copy before
  writing, the stored artifact is never mutated;
* **versioning** — ``meta.json`` carries
  :data:`repro.store.compact.FORMAT_VERSION`; readers refuse entries
  written by an incompatible format instead of mis-decoding them.

The root directory resolves, in order: an explicit ``root`` argument,
the ``REPRO_STORE`` environment variable, then the per-user default
``~/.cache/repro-xgft/store`` (documented in ``docs/serving.md``).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time as _time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..obs import active as _obs_active
from ..obs import metrics as _metrics
from ..obs.logs import get_logger
from ..registry import canonical_spec
from ..topology.registry import resolve_topology
from .compact import FORMAT_VERSION, CompactRouteTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.route import RouteTable

__all__ = [
    "ArtifactStore",
    "EntryInfo",
    "GCReport",
    "StoreKey",
    "StoreFormatError",
    "default_store_root",
    "open_table",
    "store_table",
]

#: environment variable overriding the default store root
STORE_ENV = "REPRO_STORE"

_log = get_logger(__name__)


class StoreFormatError(RuntimeError):
    """An entry was written by an incompatible store/format version."""


def default_store_root() -> Path:
    """The store root convention: ``$REPRO_STORE`` or ``~/.cache/repro-xgft/store``."""
    env = os.environ.get(STORE_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-xgft" / "store"


@dataclass(frozen=True)
class StoreKey:
    """The canonical identity of a stored route table.

    All four components are *canonical* spec strings — differently
    spelled but equivalent inputs (``"xgft:2;16,16;1,8"`` vs
    ``"XGFT(2;16,16;1,8)"``, parameter order in algorithm specs) map to
    one key, hence one entry.  Build via :meth:`make`, which
    canonicalizes; the raw constructor trusts its inputs.
    """

    topology: str
    algorithm: str
    seed: int
    faults: str = "none"

    @classmethod
    def make(
        cls,
        topology,
        algorithm: str,
        seed: int = 0,
        faults: str = "none",
    ) -> "StoreKey":
        """Canonicalize raw axis specs into a key.

        ``topology`` accepts any resolvable spelling or a live
        :class:`~repro.topology.XGFT`; ``algorithm`` must be a registry
        spec string — live instances have no canonical cross-process
        identity and are rejected (a :class:`repro.api.Scenario` over a
        live instance routes its own traffic instead).
        """
        if not isinstance(algorithm, str):
            raise TypeError(
                "a store key needs an algorithm *spec string*; a live "
                f"{type(algorithm).__name__} instance has no canonical "
                "identity outside this process"
            )
        from ..faults import parse_fault_spec

        return cls(
            topology=resolve_topology(topology).spec(),
            algorithm=canonical_spec(algorithm),
            seed=int(seed),
            faults=parse_fault_spec(str(faults)).canonical(),
        )

    def canonical(self) -> str:
        """The one-line canonical form (what the digest is taken over)."""
        return f"{self.topology}|{self.algorithm}@{self.seed}+{self.faults}"

    @property
    def digest(self) -> str:
        """Content-addressed entry directory name."""
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "topology": self.topology,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "faults": self.faults,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StoreKey":
        return cls(d["topology"], d["algorithm"], int(d["seed"]), d.get("faults", "none"))


#: meta.json keys that belong to the store envelope, not the format
_ENVELOPE_KEYS = ("key", "repro_version")


class ArtifactStore:
    """A directory of immutable compact route-table entries.

    Safe for concurrent readers and concurrent writers across processes
    (module docstring); one instance is also safe to share across
    threads for reads.
    """

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root).expanduser() if root is not None else default_store_root()

    @classmethod
    def ensure(cls, store: "ArtifactStore | str | Path | None") -> "ArtifactStore":
        """Coerce an ``ArtifactStore | path | None`` into a live store."""
        if isinstance(store, ArtifactStore):
            return store
        return cls(store)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def entry_dir(self, key: StoreKey) -> Path:
        return self.root / key.digest

    def contains(self, key: StoreKey) -> bool:
        """True iff a *complete* entry exists for the key."""
        return (self.entry_dir(key) / "meta.json").is_file()

    # ------------------------------------------------------------------
    # Write
    # ------------------------------------------------------------------
    def put(
        self,
        key: StoreKey,
        table: "RouteTable | CompactRouteTable",
        overwrite: bool = False,
    ) -> Path:
        """Persist a table under ``key`` (encoding it if still full-form).

        Returns the entry directory.  Existing entries are kept
        (``overwrite=False``) — an entry is a pure function of its key,
        so rewriting it is wasted work, not a conflict.
        """
        compact = table if isinstance(table, CompactRouteTable) else table.to_compact()
        final = self.entry_dir(key)
        if self.contains(key) and not overwrite:
            if _obs_active():
                _metrics.counter("store.put_skipped").inc()
            return final
        t0 = _time.perf_counter()
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.root / f".tmp-{key.digest}-{os.getpid()}-{id(compact):x}"
        tmp.mkdir()
        try:
            for name, array in compact.arrays.items():
                np.save(tmp / f"{name}.npy", np.ascontiguousarray(array))
            meta = compact.describe()
            meta["key"] = key.to_dict()
            from .. import __version__

            meta["repro_version"] = __version__
            # meta.json last: its presence marks the entry complete
            (tmp / "meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True))
            if overwrite and final.exists():
                # replace via rename-aside so readers never see a partial
                aside = self.root / f".old-{key.digest}-{os.getpid()}"
                os.rename(final, aside)
                os.rename(tmp, final)
                shutil.rmtree(aside, ignore_errors=True)
            else:
                try:
                    os.rename(tmp, final)
                except OSError:
                    if not self.contains(key):  # pragma: no cover - real rename error
                        raise
                    # a concurrent writer won the publish race; either
                    # copy is correct, keep theirs
                    shutil.rmtree(tmp, ignore_errors=True)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if _obs_active():
            _metrics.counter("store.puts").inc()
            _metrics.histogram("store.put_s").observe(_time.perf_counter() - t0)
            _log.debug("store put %s -> %s", key.canonical(), final)
        return final

    # ------------------------------------------------------------------
    # Read
    # ------------------------------------------------------------------
    def open(self, key: StoreKey) -> CompactRouteTable:
        """Open an entry zero-copy: payload arrays are read-only mmaps.

        Raises ``KeyError`` on a missing entry and
        :class:`StoreFormatError` on a format-version mismatch.
        """
        t0 = _time.perf_counter()
        entry = self.entry_dir(key)
        meta_path = entry / "meta.json"
        if not meta_path.is_file():
            raise KeyError(f"no store entry for {key.canonical()!r} under {self.root}")
        meta = json.loads(meta_path.read_text())
        version = meta.get("format_version")
        if version != FORMAT_VERSION:
            raise StoreFormatError(
                f"entry {key.digest} was written with format version "
                f"{version!r}; this build reads version {FORMAT_VERSION} "
                "(rebuild the entry or upgrade)"
            )
        topo = resolve_topology(meta["topology"])
        arrays = {
            p.stem: np.load(p, mmap_mode="r") for p in sorted(entry.glob("*.npy"))
        }
        fmt = {
            k: v
            for k, v in meta.items()
            if k
            not in (
                "format_version",
                "topology",
                "kind",
                "encoding",
                "num_routes",
                "num_leaves",
                "nbytes",
                *_ENVELOPE_KEYS,
            )
        }
        table = CompactRouteTable(
            topo, meta["kind"], meta["encoding"], meta["num_routes"], fmt, arrays
        )
        if _obs_active():
            _metrics.counter("store.opens").inc()
            _metrics.histogram("store.open_s").observe(_time.perf_counter() - t0)
            _log.debug("store open %s (%d routes)", key.canonical(), table.num_routes)
        return table

    def load(self, key: StoreKey) -> "RouteTable":
        """Open and fully decode an entry to a struct-of-arrays table."""
        return self.open(key).to_table()

    def meta(self, key: StoreKey) -> dict:
        """The raw ``meta.json`` document of an entry."""
        path = self.entry_dir(key) / "meta.json"
        if not path.is_file():
            raise KeyError(f"no store entry for {key.canonical()!r} under {self.root}")
        return json.loads(path.read_text())

    def keys(self) -> Iterator[StoreKey]:
        """Iterate the keys of all complete entries."""
        if not self.root.is_dir():
            return
        for meta_path in sorted(self.root.glob("*/meta.json")):
            try:
                yield StoreKey.from_dict(json.loads(meta_path.read_text())["key"])
            except (KeyError, ValueError, json.JSONDecodeError):  # pragma: no cover
                continue  # foreign or corrupt directory: not an entry

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def entry_sizes(self) -> list[EntryInfo]:
        """Size and last-access stats of every complete entry.

        The access stamp is the newest ``st_atime`` across the entry's
        files — ``open`` mmaps the payload ``.npy`` files, so serving an
        entry refreshes it even on ``relatime`` mounts once a day.
        """
        out = []
        if not self.root.is_dir():
            return out
        for meta_path in sorted(self.root.glob("*/meta.json")):
            entry = meta_path.parent
            nbytes = 0
            atime = 0.0
            for f in sorted(entry.iterdir()):
                try:
                    st = f.stat()
                except OSError:  # pragma: no cover - racing writer/GC
                    continue
                nbytes += st.st_size
                atime = max(atime, st.st_atime)
            out.append(EntryInfo(entry.name, nbytes, atime))
        return out

    def gc(self, max_bytes: int, dry_run: bool = False) -> "GCReport":
        """Evict least-recently-used entries until the store fits.

        Entries are removed oldest-access-first until the summed entry
        size is at most ``max_bytes``.  With ``dry_run=True`` nothing is
        deleted; the report lists what *would* go.  Hidden temp/aside
        directories of in-flight writers are never touched, and eviction
        is rename-aside-then-delete so concurrent readers either see a
        complete entry or a clean miss.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        entries = self.entry_sizes()
        total = sum(e.nbytes for e in entries)
        evicted: list[EntryInfo] = []
        excess = total - max_bytes
        for info in sorted(entries, key=lambda e: (e.atime, e.digest)):
            if excess <= 0:
                break
            evicted.append(info)
            excess -= info.nbytes
            if dry_run:
                continue
            entry = self.root / info.digest
            aside = self.root / f".gc-{info.digest}-{os.getpid()}"
            try:
                os.rename(entry, aside)
            except OSError:  # pragma: no cover - concurrent GC won
                continue
            shutil.rmtree(aside, ignore_errors=True)
        reclaimed = sum(e.nbytes for e in evicted)
        if _obs_active() and not dry_run and evicted:
            _metrics.counter("store.gc_evictions").inc(len(evicted))
            _log.info(
                "store gc evicted %d entries (%d bytes) from %s",
                len(evicted),
                reclaimed,
                self.root,
            )
        return GCReport(
            scanned=len(entries),
            total_bytes=total,
            evicted=tuple(evicted),
            reclaimed_bytes=reclaimed,
            dry_run=dry_run,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore({str(self.root)!r})"


@dataclass(frozen=True)
class EntryInfo:
    """One complete entry as the garbage collector sees it."""

    digest: str
    nbytes: int
    atime: float


@dataclass(frozen=True)
class GCReport:
    """What :meth:`ArtifactStore.gc` scanned, kept and evicted."""

    scanned: int
    total_bytes: int
    evicted: tuple[EntryInfo, ...]
    reclaimed_bytes: int
    dry_run: bool

    @property
    def kept_bytes(self) -> int:
        return self.total_bytes - self.reclaimed_bytes


# ----------------------------------------------------------------------
# Facade helpers (re-exported through repro.api)
# ----------------------------------------------------------------------
def store_table(
    table: "RouteTable | CompactRouteTable",
    algorithm: str,
    seed: int = 0,
    faults: str = "none",
    store: ArtifactStore | str | Path | None = None,
) -> StoreKey:
    """Persist an existing table under its canonical key; returns the key."""
    live = ArtifactStore.ensure(store)
    key = StoreKey.make(table.topo, algorithm, seed, faults)
    live.put(key, table)
    return key


def open_table(
    topology,
    algorithm: str,
    seed: int = 0,
    faults: str = "none",
    store: ArtifactStore | str | Path | None = None,
    build: bool = True,
) -> CompactRouteTable:
    """Open the all-pairs table for a spec from the store, building on miss.

    The one-call serving entry point::

        from repro.api import open_table

        table = open_table("XGFT(2;32,64;1,16)", "d-mod-k", store="./store")
        nca, ports = table.batch_lookup(srcs, dsts)

    On a miss (and ``build=True``) the table is computed, persisted and
    reopened *from the store* (mmap-backed).  A non-``none`` ``faults``
    key stores the locally *repaired* table over the realized degraded
    fabric — disconnected pairs are absent from the entry.  Only
    oblivious registry schemes with port tables can be built:
    pattern-aware schemes have no pattern-independent all-pairs
    artifact, and path tables have no compact encoding.
    """
    live = ArtifactStore.ensure(store)
    key = StoreKey.make(topology, algorithm, seed, faults)
    if live.contains(key):
        return live.open(key)
    if not build:
        raise KeyError(f"no store entry for {key.canonical()!r} under {live.root}")
    from ..core.factory import is_oblivious, make_algorithm

    topo = resolve_topology(key.topology)
    alg = make_algorithm(key.algorithm, topo, seed=key.seed)
    if not is_oblivious(alg):
        raise ValueError(
            f"{key.algorithm!r} is pattern-aware: it has no pattern-"
            "independent all-pairs table to store"
        )
    if hasattr(alg, "pair_arcs"):
        raise ValueError(
            f"{key.algorithm!r} emits arc paths: path tables have no "
            "compact on-disk encoding"
        )
    table = alg.all_pairs_table()
    if key.faults != "none":
        from ..faults import DegradedTopology, parse_fault_spec, repair_table

        spec = parse_fault_spec(key.faults)
        degraded = DegradedTopology(topo, spec.realize(topo, table=table))
        table = repair_table(table, degraded, seed=key.seed).table
    live.put(key, table)
    return live.open(key)
