"""Experiment definitions: one function per figure/table of the paper.

Every function returns plain data structures (dicts / dataclasses) that
the report module renders and the benchmarks assert on; nothing here
depends on plotting.

===========  ==========================================================
``fig2``     slowdown vs w2 for {random, s-mod-k, d-mod-k, colored}
             on XGFT(2;16,16;1,w2) for WRF-256 / CG.D-128 (Fig. 2)
``fig3``     the CG.D-128 traffic structure (Fig. 3) and the Eq.-(2)
             D-mod-k uplink degeneracy analysis
``fig4``     routes-per-NCA distributions for five algorithms on
             XGFT(2;16,16;1,16) and (1,10) (Fig. 4)
``fig5``     fig2 plus the proposed r-NCA-u / r-NCA-d with multi-seed
             boxplots (Fig. 5)
``table1``   the per-level label/link structure (Table I)
``equivalence``  the Sec. VII-B/C S-mod-k == D-mod-k spectra
===========  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..api import Scenario, compare
from ..contention import max_network_contention, routes_per_nca
from ..contention.nca import contention_spectrum
from ..core.factory import make_algorithm
from ..patterns.applications import cg_pattern, cg_transpose_exchange
from ..patterns.base import Pattern
from ..patterns.permutations import Permutation
from ..patterns.registry import resolve_pattern
from ..sim.config import NetworkConfig, PAPER_CONFIG
from ..sim.engines import DEFAULT_ENGINE
from ..topology import XGFT, level_summary, slimmed_two_level
from .stats import BoxStats, box_stats

__all__ = [
    "FigureSweep",
    "SweepSeries",
    "application_pattern",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "table1",
    "equivalence",
    "DETERMINISTIC",
    "RANDOMIZED",
]

DETERMINISTIC = ("s-mod-k", "d-mod-k", "colored")
RANDOMIZED = ("random", "r-nca-u", "r-nca-d")


def _application_spec(app: str) -> str:
    """Canonical registry spec for the paper's application spellings."""
    key = app.lower()
    if key in ("wrf", "wrf-256"):
        return "wrf-256"
    if key in ("cg", "cg.d", "cg.d-128", "cg-128"):
        return "cg-128"
    raise ValueError(f"unknown application {app!r}; expected 'wrf' or 'cg'")


def application_pattern(app: str) -> Pattern:
    """The paper's two applications by name (``"wrf"`` / ``"cg"``).

    A thin alias layer over the pattern registry
    (:func:`repro.patterns.registry.resolve_pattern`) accepting the
    paper's spellings (``"cg.d"`` etc.) on a 256-leaf machine.
    """
    return resolve_pattern(_application_spec(app), 256)


@dataclass(frozen=True)
class SweepSeries:
    """One line/box-series of a slimming sweep figure."""

    algorithm: str
    #: per-w2 values; deterministic algorithms carry a single float,
    #: randomized ones a BoxStats over the seeds
    values: dict[int, float | BoxStats]


@dataclass(frozen=True)
class FigureSweep:
    """A full progressive-slimming figure (Fig. 2 or Fig. 5)."""

    application: str
    w2_values: tuple[int, ...]
    series: tuple[SweepSeries, ...]

    def series_by_name(self, name: str) -> SweepSeries:
        for s in self.series:
            if s.algorithm == name:
                return s
        raise KeyError(name)


def _sweep(
    app: str,
    algorithms: Sequence[str],
    w2_values: Sequence[int],
    seeds: int,
    config: NetworkConfig,
    engine: str,
) -> FigureSweep:
    """The progressive-slimming figure grid, driven through the facade.

    One :class:`repro.api.Scenario` per (algorithm, w2, seed) cell,
    evaluated with shared caches: the crossbar reference is computed
    once per application (every slimmed topology has 256 leaves), and
    each cell routes only its own phases' pairs.
    """
    app_spec = _application_spec(app)  # accept the paper's 'cg.d' spellings
    cells: list[tuple[str, int, Scenario]] = []
    for name in algorithms:
        for w2 in w2_values:
            topo_spec = slimmed_two_level(16, 16, w2).spec()
            cell_seeds = (0,) if name in DETERMINISTIC else tuple(range(seeds))
            for s in cell_seeds:
                cells.append((name, w2, Scenario(topo_spec, app_spec, name, seed=s)))
    table = compare(
        [c[2] for c in cells], metrics=("slowdown",), engine=engine, config=config
    )
    samples: dict[str, dict[int, list[float]]] = {}
    for (name, w2, _), result in zip(cells, table.results):
        samples.setdefault(name, {}).setdefault(w2, []).append(
            result.metrics["slowdown"]
        )
    series = [
        SweepSeries(
            name,
            {
                w2: (vals[0] if name in DETERMINISTIC else box_stats(vals))
                for w2, vals in samples[name].items()
            },
        )
        for name in algorithms
    ]
    return FigureSweep(app, tuple(w2_values), tuple(series))


def fig2(
    app: str,
    w2_values: Sequence[int] | None = None,
    seeds: int = 5,
    config: NetworkConfig = PAPER_CONFIG,
    engine: str = DEFAULT_ENGINE,
) -> FigureSweep:
    """Fig. 2: slowdown of Random / S-mod-k / D-mod-k / Colored vs w2.

    ``seeds`` controls the Random boxes (the paper plots Random as a
    line from one routing sample; we report a box over seeds, whose
    median plays that role).
    """
    if w2_values is None:
        w2_values = tuple(range(16, 0, -1))
    return _sweep(
        app, ("random", "s-mod-k", "d-mod-k", "colored"), w2_values, seeds, config, engine
    )


def fig5(
    app: str,
    w2_values: Sequence[int] | None = None,
    seeds: int = 40,
    config: NetworkConfig = PAPER_CONFIG,
    engine: str = DEFAULT_ENGINE,
) -> FigureSweep:
    """Fig. 5: Fig. 2's algorithms plus r-NCA-u and r-NCA-d (boxplots).

    The paper uses 40-60 seeds per box; the benchmarks default lower for
    runtime and the CLI exposes ``--seeds``.
    """
    if w2_values is None:
        w2_values = tuple(range(16, 0, -1))
    return _sweep(
        app,
        ("s-mod-k", "d-mod-k", "colored", "r-nca-u", "r-nca-d", "random"),
        w2_values,
        seeds,
        config,
        engine,
    )


# ----------------------------------------------------------------------
# Fig. 3 / Eq. (2)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig3Result:
    """The CG.D-128 traffic structure and its D-mod-k degeneracy."""

    phase_names: tuple[str, ...]
    phase_sizes: tuple[int, ...]
    #: number of flows per phase
    phase_flows: tuple[int, ...]
    #: fraction of flows that stay inside their 16-leaf switch, per phase
    phase_locality: tuple[float, ...]
    #: connectivity matrix of the whole pattern (num_ranks^2)
    connectivity: np.ndarray
    #: distinct first-hop uplink ports (r1 = d mod 16) used per source
    #: switch in the transpose phase under D-mod-k
    dmodk_uplinks_per_switch: tuple[int, ...]
    #: network contention level of the transpose phase under D-mod-k
    dmodk_contention: int
    #: ... and under Colored (the achievable optimum)
    colored_contention: int


def fig3(num_ranks: int = 128, m1: int = 16) -> Fig3Result:
    """Fig. 3 + the Sec. VII-A analysis of the CG pattern."""
    pattern = cg_pattern(num_ranks)
    topo = slimmed_two_level(m1, 16, 16)
    names, sizes, flows, locality = [], [], [], []
    for ph in pattern.phases:
        names.append(ph.name)
        sizes.append(int(ph.sizes[0]) if len(ph) else 0)
        flows.append(len(ph))
        local = np.count_nonzero(ph.src // m1 == ph.dst // m1)
        locality.append(local / len(ph) if len(ph) else 1.0)
    transpose = [(s, d) for s, d in cg_transpose_exchange(num_ranks)]
    dmodk = make_algorithm("d-mod-k", topo)
    table = dmodk.build_table([p for p in transpose if p[0] // m1 != p[1] // m1])
    ports = {}
    for f in range(len(table)):
        sw = int(table.src[f]) // m1
        ports.setdefault(sw, set()).add(int(table.ports[f, 1]))
    uplinks = tuple(len(ports[sw]) for sw in sorted(ports))
    colored = make_algorithm("colored", topo)
    ctable = colored.build_table([p for p in transpose if p[0] // m1 != p[1] // m1])
    return Fig3Result(
        phase_names=tuple(names),
        phase_sizes=tuple(sizes),
        phase_flows=tuple(flows),
        phase_locality=tuple(locality),
        connectivity=pattern.connectivity_matrix(),
        dmodk_uplinks_per_switch=uplinks,
        dmodk_contention=max_network_contention(table),
        colored_contention=max_network_contention(ctable),
    )


# ----------------------------------------------------------------------
# Fig. 4
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig4Result:
    """Routes-per-NCA census for one topology (one Fig.-4 panel)."""

    topology: str
    num_ncas: int
    #: deterministic algorithms: exact per-NCA counts
    exact: dict[str, tuple[int, ...]]
    #: randomized algorithms: per-NCA BoxStats over the seeds
    boxed: dict[str, tuple[BoxStats, ...]]


def fig4(
    w2: int,
    seeds: int = 10,
    randomized: Sequence[str] = RANDOMIZED,
) -> Fig4Result:
    """Fig. 4: all-pairs routes assigned per root NCA, five algorithms."""
    topo = slimmed_two_level(16, 16, w2)
    exact: dict[str, tuple[int, ...]] = {}
    for name in ("s-mod-k", "d-mod-k"):
        table = make_algorithm(name, topo).all_pairs_table()
        exact[name] = tuple(int(x) for x in routes_per_nca(table))
    boxed: dict[str, tuple[BoxStats, ...]] = {}
    for name in randomized:
        per_seed = []
        for s in range(seeds):
            table = make_algorithm(name, topo, seed=s).all_pairs_table()
            per_seed.append(routes_per_nca(table))
        counts = np.stack(per_seed)  # (seeds, ncas)
        boxed[name] = tuple(box_stats(counts[:, j]) for j in range(counts.shape[1]))
    return Fig4Result(
        topology=topo.spec(),
        num_ncas=topo.num_nodes(topo.h),
        exact=exact,
        boxed=boxed,
    )


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------
def table1(topo: XGFT) -> list[dict[str, object]]:
    """Table I rows for a concrete topology: nodes, labels, links."""
    rows = []
    for info in level_summary(topo):
        sample = min(2, topo.num_nodes(info.level) - 1)
        rows.append(
            {
                "level": info.level,
                "num_nodes": info.num_nodes,
                "example_label": topo.label(info.level, sample),
                "links_down": info.links_down,
                "links_up": info.links_up,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Sec. VII-B equivalence
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EquivalenceResult:
    """Contention spectra of S-mod-k vs D-mod-k over a permutation set."""

    num_permutations: int
    smodk_spectrum: dict[int, int]
    dmodk_spectrum: dict[int, int]
    #: spectrum of D-mod-k over the element-wise *inverse* permutations —
    #: equals smodk_spectrum exactly (the paper's bijection)
    dmodk_inverse_spectrum: dict[int, int]

    @property
    def spectra_match(self) -> bool:
        return self.smodk_spectrum == self.dmodk_inverse_spectrum


def equivalence(
    topo: XGFT | None = None, num_permutations: int = 200, seed: int = 0
) -> EquivalenceResult:
    """Sec. VII-B: #permutations per contention level, S-mod-k vs D-mod-k."""
    if topo is None:
        topo = slimmed_two_level(16, 16, 8)
    rng = np.random.default_rng(seed)
    perms = [Permutation.random(topo.num_leaves, rng) for _ in range(num_permutations)]
    inverses = [p.inverse() for p in perms]
    smodk = make_algorithm("s-mod-k", topo)
    dmodk = make_algorithm("d-mod-k", topo)
    return EquivalenceResult(
        num_permutations=num_permutations,
        smodk_spectrum=dict(contention_spectrum(smodk, perms)),
        dmodk_spectrum=dict(contention_spectrum(dmodk, perms)),
        dmodk_inverse_spectrum=dict(contention_spectrum(dmodk, inverses)),
    )
