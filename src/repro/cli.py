"""Command-line interface: regenerate any paper artifact from a shell.

::

    repro fig2 --app wrf
    repro fig2 --app cg --w2 16 8 4 1
    repro fig3
    repro fig4 --w2 10 --seeds 10
    repro fig5 --app cg --seeds 40
    repro table1 --topology "XGFT(2;16,16;1,10)"
    repro equivalence --permutations 500
    repro info --topology "XGFT(3;4,4,4;1,4,2)"
    repro eval --topology "xgft:2;16,16;1,8" --pattern bit-reversal \\
               --algorithms d-mod-k "r-nca-d" --faults "links:rate=0.05"
    repro sweep --jobs 4 -o sweep_results.json
    repro sweep --spec benchmarks/smoke_spec.json -o sweep_results.json
    repro sweep --faults none "links:rate=0.05" --patterns shift-1
    repro serve --topology "XGFT(2;16,16;1,8)" --algorithm d-mod-k --store ./store
    repro serve --batch queries.jsonl --store ./store
    repro serve --listen 127.0.0.1:9000 --store ./store
    repro compare baseline.json current.json --tolerance 0.1
    repro faults --topology "XGFT(3;4,4,4;1,4,2)" --rates 0 0.01 0.05
    repro dynamic --workload "poisson(load=0.8)"
    repro dynamic --loads 0.2 0.5 0.8 --algorithms d-mod-k s-mod-k random
    repro profile --workload "poisson(load=0.5)" -o profile
    repro profile --overhead-check --spec benchmarks/smoke_spec.json
    repro store gc --max-bytes 256M --dry-run
    repro dynamic --workload "poisson(load=0.5)" --trace   # any of the three
                                                           # hot commands

``dynamic`` drives open-loop arrival streams (Poisson, bursty ON/OFF,
trace replay — :mod:`repro.workloads`) through a fluid engine and
prints load-vs-FCT curves per routing algorithm; dynamic cells also
sweep alongside phase cells via ``repro sweep --workloads``.

``eval`` evaluates single :class:`repro.api.Scenario` s and prints a
cross-algorithm comparison table; every axis is a registry spec string
(:mod:`repro.registry`).  The ``sweep`` subcommand runs a declarative
{topology x pattern x algorithm x seed x faults} grid through
:mod:`repro.experiments.sweep` — by default the paper's full Fig. 2-5
evaluation grid — and writes the schema-versioned JSON artifact;
``compare`` diffs two such artifacts and is the one regression gate
(nonzero exit on regression).  ``faults`` sweeps failure rates over a degraded
topology with local route repair (:mod:`repro.faults`) and reports
slowdown and flow-loss curves.

``serve`` is the production query side (:mod:`repro.serve`): it opens a
compact all-pairs table from the persistent artifact store
(:mod:`repro.store`, building on a miss), then answers JSON-lines route
queries in batch mode (``--batch``) or over an asyncio TCP endpoint
(``--listen``).  The benchmark of the paper grid, the dynamic
engines and the server is ``bench/run.py``, not a subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from . import experiments
from .api import Scenario, compare
from .metrics import available_metrics
from .obs.logs import configure_logging
from .obs.trace import TRACER, trace_prefix_from_env, write_trace_files
from .sim.engines import DEFAULT_ENGINE, available_engines, fluid_engine_names
from .topology import ascii_art, cost_summary, parse_xgft, slimmed_two_level

__all__ = ["main", "build_parser", "package_version"]


def package_version() -> str:
    """The installed distribution version, or the in-tree fallback."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro-xgft")
    except PackageNotFoundError:
        from . import __version__

        return __version__

#: the paper's full evaluation grid (Figs. 2 and 5): both applications,
#: every algorithm, the whole progressive-slimming topology family
PAPER_GRID = {
    "topologies": [slimmed_two_level(16, 16, w2).spec() for w2 in range(16, 0, -1)],
    "patterns": ["wrf-256", "cg-128"],
    "algorithms": ["s-mod-k", "d-mod-k", "colored", "random", "r-nca-u", "r-nca-d"],
    "seeds": 5,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the figures/tables of 'Oblivious Routing "
        "Schemes in Extended Generalized Fat Tree Networks' (CLUSTER 2009).",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {package_version()}"
    )
    parser.add_argument(
        "--log-level",
        default=None,
        choices=("debug", "info", "warning", "error", "critical"),
        help="stdlib logging level for the repro.* loggers "
        "(default: $REPRO_LOG or warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_arg(p: argparse.ArgumentParser, default_prefix: str) -> None:
        p.add_argument(
            "--trace",
            nargs="?",
            const=default_prefix,
            default=None,
            metavar="PREFIX",
            help="record a span trace and write PREFIX.trace.jsonl + "
            f"PREFIX.perfetto.json on exit (default prefix: {default_prefix}; "
            "$REPRO_TRACE=<prefix> does the same for any command)",
        )

    def add_sweep_args(p: argparse.ArgumentParser, default_seeds: int) -> None:
        p.add_argument("--app", choices=("wrf", "cg"), required=True)
        p.add_argument(
            "--w2", type=int, nargs="+", default=None, help="w2 values to sweep (default 16..1)"
        )
        p.add_argument(
            "--seeds", type=int, default=default_seeds, help="seeds per randomized algorithm"
        )
        p.add_argument("--engine", choices=available_engines(), default=DEFAULT_ENGINE)

    add_sweep_args(sub.add_parser("fig2", help="Fig. 2: classic oblivious schemes"), 5)
    add_sweep_args(sub.add_parser("fig5", help="Fig. 5: + r-NCA-u / r-NCA-d"), 40)

    sub.add_parser("fig3", help="Fig. 3: the CG.D traffic pattern + Eq. (2)")

    p4 = sub.add_parser("fig4", help="Fig. 4: routes per NCA")
    p4.add_argument("--w2", type=int, default=16, help="16 for Fig. 4(a), 10 for 4(b)")
    p4.add_argument("--seeds", type=int, default=10)

    pt = sub.add_parser("table1", help="Table I for a topology")
    pt.add_argument("--topology", default="XGFT(2;16,16;1,16)")

    pe = sub.add_parser("equivalence", help="Sec. VII-B spectra")
    pe.add_argument("--permutations", type=int, default=200)
    pe.add_argument("--seed", type=int, default=0)

    pi = sub.add_parser("info", help="structural summary of a topology")
    pi.add_argument("--topology", default="XGFT(2;16,16;1,16)")

    pv = sub.add_parser(
        "eval",
        help="evaluate scenarios through the repro.api facade and "
        "print a cross-algorithm comparison table",
    )
    pv.add_argument(
        "--topology",
        default="XGFT(2;16,16;1,8)",
        help="topology spec: raw XGFT, xgft:..., or a registered family "
        "('slimmed-two-level(w2=10)')",
    )
    pv.add_argument(
        "--pattern", default="bit-reversal", help="pattern spec ('shift(d=3)', 'wrf-256', ...)"
    )
    pv.add_argument(
        "--algorithms",
        nargs="+",
        default=["s-mod-k", "d-mod-k", "random", "r-nca-u", "r-nca-d"],
        help="algorithm specs to compare ('d-mod-k', 'r-nca-u(r=2)', ...)",
    )
    pv.add_argument("--faults", default="none", help="fault spec ('links:rate=0.05', ...)")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument(
        "--metrics", nargs="+", default=None, help="registered metric names"
    )
    pv.add_argument("--engine", choices=available_engines(), default=DEFAULT_ENGINE)

    ps = sub.add_parser(
        "sweep",
        help="run a {topology x pattern x algorithm x seed} grid "
        "(default: the paper's Fig. 2-5 grid)",
    )
    ps.add_argument(
        "--spec",
        type=Path,
        default=None,
        help="JSON sweep spec file; mutually exclusive with the "
        "grid flags (--seeds/--engine may still override it)",
    )
    ps.add_argument(
        "--topologies", nargs="+", default=None, metavar="XGFT", help="XGFT spec strings"
    )
    ps.add_argument(
        "--patterns",
        nargs="+",
        default=None,
        help="pattern names (wrf-256, cg-128, shift-1, all-pairs, ...)",
    )
    ps.add_argument(
        "--algorithms",
        nargs="+",
        default=None,
        help="algorithm names, optionally parameterized: 'r-nca-d(map_kind=mod)'",
    )
    ps.add_argument("--seeds", type=int, default=None, help="seeds per randomized algorithm")
    ps.add_argument("--metrics", nargs="+", default=None, choices=list(available_metrics()))
    ps.add_argument(
        "--faults",
        nargs="+",
        default=None,
        metavar="SPEC",
        help="fault scenarios per run ('none', 'links:rate=0.05', "
        "'switches:count=1', 'worst-links:count=4')",
    )
    ps.add_argument(
        "--workloads",
        nargs="+",
        default=None,
        metavar="SPEC",
        help="dynamic open-loop workloads per run ('none', "
        "'poisson(load=0.8)', 'onoff(load=0.6,duty=0.25)', "
        "'trace(path=arrivals.csv)')",
    )
    ps.add_argument("--engine", choices=available_engines(), default=None)
    ps.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes (grouped by shared route table)",
    )
    ps.add_argument(
        "--filter",
        dest="run_filter",
        default=None,
        help="fnmatch/substring filter on run ids ('topology/pattern/algorithm@seed')",
    )
    ps.add_argument("--output", "-o", type=Path, default=Path("sweep_results.json"))
    ps.add_argument(
        "--max-rows", type=int, default=40, help="run rows to print (artifact always holds all)"
    )
    add_trace_arg(ps, "repro_sweep")

    pc = sub.add_parser(
        "compare", help="diff two sweep artifacts; nonzero exit on regression"
    )
    pc.add_argument("baseline", type=Path)
    pc.add_argument("current", type=Path)
    pc.add_argument("--tolerance", type=float, default=0.05)
    pc.add_argument(
        "--metrics", nargs="+", default=None, help="restrict the diff to these metrics"
    )

    pff = sub.add_parser(
        "faults",
        help="resilience sweep: slowdown and flow loss vs failure rate "
        "on a degraded topology with local route repair",
    )
    pff.add_argument("--topology", default="XGFT(3;4,4,4;1,4,2)", help="XGFT spec string")
    pff.add_argument(
        "--pattern", default="shift-1", help="traffic pattern (wrf-256, cg-128, shift-1, ...)"
    )
    pff.add_argument("--algorithms", nargs="+", default=["d-mod-k", "s-mod-k", "r-nca-d", "random"])
    pff.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=[0.0, 0.01, 0.05],
        help="failure rates (0 = pristine)",
    )
    pff.add_argument(
        "--kind",
        choices=("links", "switches"),
        default="links",
        help="what fails: cables or inner switches",
    )
    pff.add_argument(
        "--seeds",
        type=int,
        default=3,
        help="routing/repair seeds per algorithm (the fault draw is fixed per rate)",
    )
    pff.add_argument("--engine", choices=available_engines(), default=DEFAULT_ENGINE)
    pff.add_argument("--jobs", "-j", type=int, default=1)
    pff.add_argument(
        "--output", "-o", type=Path, default=None, help="also write the sweep artifact JSON"
    )

    pd = sub.add_parser(
        "dynamic",
        help="open-loop dynamic traffic: drive Poisson/bursty/trace "
        "arrival streams through a fluid engine and print load-vs-FCT "
        "curves per routing algorithm",
    )
    pd.add_argument(
        "--topology", default="XGFT(3;8,8,8;1,4,4)", help="XGFT spec string"
    )
    pd.add_argument(
        "--workload",
        nargs="+",
        default=None,
        metavar="SPEC",
        help="explicit workload specs ('poisson(load=0.8)', "
        "'onoff(load=0.6,duty=0.25)', 'trace(path=arrivals.csv)'); "
        "default: a poisson ladder over --loads",
    )
    pd.add_argument(
        "--loads",
        type=float,
        nargs="+",
        default=None,
        help="offered-load ladder for the default poisson workloads "
        "(default 0.2 0.5 0.8; mutually exclusive with --workload)",
    )
    pd.add_argument(
        "--flows",
        type=int,
        default=None,
        help="arrival-stream length of the --loads ladder (default 20000; "
        "for --workload, set flows= in the spec)",
    )
    pd.add_argument(
        "--sizes",
        default=None,
        help="size distribution of the --loads ladder (fixed, uniform, "
        "pareto; for --workload, set sizes= in the spec)",
    )
    pd.add_argument("--algorithms", nargs="+", default=["d-mod-k"])
    pd.add_argument(
        "--seeds", type=int, default=1, help="arrival-stream seeds per workload"
    )
    pd.add_argument(
        "--faults", nargs="+", default=["none"], metavar="SPEC",
        help="fault scenarios the arrivals run into ('links:rate=0.05', ...)",
    )
    pd.add_argument(
        "--engine",
        choices=fluid_engine_names(),
        default=DEFAULT_ENGINE,
        help="fluid-kind backend (open-loop arrivals need the incremental "
        "fluid surface; the replay engine cannot drive them)",
    )
    pd.add_argument("--jobs", "-j", type=int, default=1)
    pd.add_argument(
        "--output", "-o", type=Path, default=None, help="also write the sweep artifact JSON"
    )
    add_trace_arg(pd, "repro_dynamic")

    pv2 = sub.add_parser(
        "serve",
        help="query stored route tables: JSON-lines batch mode or an "
        "asyncio TCP endpoint",
    )
    pv2.add_argument("--topology", default="XGFT(2;16,16;1,8)", help="XGFT spec string")
    pv2.add_argument("--algorithm", default="d-mod-k", help="registry algorithm spec")
    pv2.add_argument("--seed", type=int, default=0)
    pv2.add_argument(
        "--faults",
        default="none",
        help="serve the repaired table for this fault spec ('links:count=4,seed=1', ...)",
    )
    pv2.add_argument(
        "--store",
        type=Path,
        default=None,
        help="artifact-store root (default: $REPRO_STORE or ~/.cache/repro-xgft/store)",
    )
    pv2.add_argument(
        "--no-build",
        action="store_true",
        help="fail on a store miss instead of building the entry",
    )
    mode = pv2.add_mutually_exclusive_group()
    mode.add_argument(
        "--batch",
        default=None,
        metavar="FILE",
        help="answer JSON-lines requests from FILE ('-' = stdin) on stdout",
    )
    mode.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="run the asyncio JSON-lines TCP endpoint (port 0 = ephemeral)",
    )
    add_trace_arg(pv2, "repro_serve")

    pp = sub.add_parser(
        "profile",
        help="run a dynamic workload or sweep spec under tracing; write "
        "the trace pair and print a top-spans table",
    )
    pp.add_argument(
        "--workload",
        nargs="+",
        default=None,
        metavar="SPEC",
        help="dynamic workload specs to drive ('poisson(load=0.5)', ...); "
        "the default mode when --spec is absent",
    )
    pp.add_argument(
        "--topology", default="XGFT(2;8,8;1,4)", help="XGFT spec for --workload mode"
    )
    pp.add_argument("--algorithms", nargs="+", default=["d-mod-k"])
    pp.add_argument("--seeds", type=int, default=1, help="arrival-stream seeds per workload")
    pp.add_argument("--engine", choices=fluid_engine_names(), default=DEFAULT_ENGINE)
    pp.add_argument(
        "--spec",
        type=Path,
        default=None,
        help="profile this JSON sweep spec instead of a dynamic workload",
    )
    pp.add_argument(
        "--limit", type=int, default=15, help="top-span rows to print"
    )
    pp.add_argument(
        "--output",
        "-o",
        default="profile",
        metavar="PREFIX",
        help="trace file prefix (writes PREFIX.trace.jsonl + PREFIX.perfetto.json)",
    )
    pp.add_argument(
        "--overhead-check",
        action="store_true",
        help="instead of tracing: A/B the disabled-instrumentation cost "
        "on the same workload or spec and fail above --tolerance",
    )
    pp.add_argument(
        "--repeats", type=int, default=3, help="(--overhead-check) best-of-N timing"
    )
    pp.add_argument(
        "--tolerance",
        type=float,
        default=0.02,
        help="(--overhead-check) maximum tolerated relative overhead",
    )

    pl = sub.add_parser(
        "lint",
        help="domain-aware static analysis: determinism, registry, "
        "instrumentation, concurrency, and numpy invariants",
    )
    pl.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests); "
        "directories are walked for *.py and *.md, skipping fixtures",
    )
    pl.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule selection: ids (REP001), id prefixes "
        "(REP00) or families (determinism); default: all",
    )
    pl.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json is the schema-versioned artifact CI uploads)",
    )
    pl.add_argument(
        "--statistics",
        action="store_true",
        help="append per-rule counts and scan totals (text format)",
    )
    pl.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )

    pst = sub.add_parser("store", help="artifact-store maintenance")
    store_sub = pst.add_subparsers(dest="store_command", required=True)
    pgc = store_sub.add_parser(
        "gc",
        help="evict least-recently-used entries until the store fits a byte budget",
    )
    pgc.add_argument(
        "--max-bytes",
        required=True,
        metavar="SIZE",
        help="size budget; plain bytes or a K/M/G-suffixed value ('256M')",
    )
    pgc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be evicted without deleting anything",
    )
    pgc.add_argument(
        "--store",
        type=Path,
        default=None,
        help="store root (default: $REPRO_STORE or ~/.cache/repro-xgft/store)",
    )
    return parser


def _sweep_spec_from_args(args: argparse.Namespace) -> experiments.SweepSpec:
    if args.spec is not None:
        conflicting = [
            flag
            for flag, value in (
                ("--topologies", args.topologies),
                ("--patterns", args.patterns),
                ("--algorithms", args.algorithms),
                ("--metrics", args.metrics),
                ("--faults", args.faults),
                ("--workloads", args.workloads),
            )
            if value is not None
        ]
        if conflicting:
            raise SystemExit(
                f"error: {', '.join(conflicting)} cannot be combined with --spec; "
                "edit the spec file (only --seeds/--engine override it)"
            )
        spec = experiments.SweepSpec.from_dict(json.loads(args.spec.read_text()))
        overrides = {}
        if args.seeds is not None:
            overrides["seeds"] = args.seeds
        if args.engine is not None:
            overrides["engine"] = args.engine
        if overrides:
            d = spec.to_dict()
            d.update(overrides)
            spec = experiments.SweepSpec.from_dict(d)
        return spec
    grid = dict(PAPER_GRID)
    if args.topologies is not None:
        grid["topologies"] = args.topologies
    if args.patterns is not None:
        grid["patterns"] = args.patterns
    if args.algorithms is not None:
        grid["algorithms"] = args.algorithms
    if args.seeds is not None:
        grid["seeds"] = args.seeds
    if args.metrics is not None:
        grid["metrics"] = args.metrics
    if args.faults is not None:
        grid["faults"] = args.faults
    if args.workloads is not None:
        grid["workloads"] = args.workloads
    if args.engine is not None:
        grid["engine"] = args.engine
    return experiments.SweepSpec.from_dict(grid)


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _sweep_spec_from_args(args)
    result = experiments.run_sweep(spec, jobs=args.jobs, run_filter=args.run_filter)
    path = experiments.write_artifact(result, args.output)
    print(experiments.format_sweep_results(result, max_rows=args.max_rows))
    print(f"\n{len(result.runs)} runs in {result.total_wall_time_s:.1f}s (jobs={args.jobs})")
    print(f"artifact written to {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import RouteServer, answer_line

    try:
        server = RouteServer.from_store(
            args.topology,
            args.algorithm,
            seed=args.seed,
            faults=args.faults,
            store=args.store,
            build=not args.no_build,
        )
    except KeyError as exc:
        raise SystemExit(
            f"error: {exc.args[0]} (drop --no-build to build it now)"
        ) from exc
    if args.batch is not None:
        # bytes in: a line that is not UTF-8 gets its own error answer
        lines = sys.stdin.buffer if args.batch == "-" else Path(args.batch).open("rb")
        errors = 0
        with lines:
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                response = answer_line(server, line)
                if not response.get("ok"):
                    errors += 1
                print(json.dumps(response))
        return 1 if errors else 0
    if args.listen is not None:
        import asyncio

        from .serve import serve_forever

        host, _, port_text = args.listen.rpartition(":")

        async def _run() -> None:
            loop = asyncio.get_running_loop()
            ready: asyncio.Future = loop.create_future()
            task = asyncio.ensure_future(
                serve_forever(
                    server, host or "127.0.0.1", int(port_text or 0), ready=ready
                )
            )
            bound_host, bound_port = await ready
            info = server.info()
            print(
                f"serving {args.algorithm} on {info['topology']} "
                f"at {bound_host}:{bound_port}",
                flush=True,
            )
            await task

        try:
            asyncio.run(_run())
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            pass
        return 0
    print(json.dumps(server.info(), indent=1, sort_keys=True))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    scenarios = [
        Scenario(args.topology, args.pattern, algorithm, faults=args.faults, seed=args.seed)
        for algorithm in args.algorithms
    ]
    comparison = compare(scenarios, metrics=args.metrics, engine=args.engine)
    print(comparison.format())
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    spec = experiments.fault_grid_spec(
        topology=args.topology,
        pattern=args.pattern,
        algorithms=args.algorithms,
        rates=args.rates,
        kind=args.kind,
        seeds=args.seeds,
        engine=args.engine,
    )
    result = experiments.run_sweep(spec, jobs=args.jobs)
    print(experiments.format_fault_sweep(result))
    if args.output is not None:
        path = experiments.write_artifact(result, args.output)
        print(f"\nartifact written to {path}")
    return 0


def _cmd_dynamic(args: argparse.Namespace) -> int:
    if args.workload:
        conflicting = [
            flag
            for flag, value in (
                ("--loads", args.loads),
                ("--flows", args.flows),
                ("--sizes", args.sizes),
            )
            if value is not None
        ]
        if conflicting:
            raise SystemExit(
                f"error: {', '.join(conflicting)} cannot be combined with "
                "--workload; set load=/flows=/sizes= inside the workload spec"
            )
        workloads = list(args.workload)
    else:
        flows = args.flows if args.flows is not None else 20000
        sizes = args.sizes if args.sizes is not None else "fixed"
        loads = args.loads if args.loads is not None else [0.2, 0.5, 0.8]
        workloads = [
            f"poisson(load={load:g},sizes={sizes},flows={flows})" for load in loads
        ]
    spec = experiments.dynamic_grid_spec(
        topology=args.topology,
        workloads=workloads,
        algorithms=args.algorithms,
        seeds=args.seeds,
        engine=args.engine,
        faults=args.faults,
    )
    result = experiments.run_sweep(spec, jobs=args.jobs)
    print(experiments.format_dynamic_sweep(result))
    completed = sum(
        r.get("dynamic", {}).get("flows", {}).get("completed", 0) for r in result.runs
    )
    print(
        f"\n{len(result.runs)} dynamic runs, {completed} flows completed "
        f"in {result.total_wall_time_s:.1f}s (engine={spec.engine})"
    )
    if args.output is not None:
        path = experiments.write_artifact(result, args.output)
        print(f"artifact written to {path}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import time

    from .obs.profile import (
        counter_values,
        coverage,
        format_counters,
        format_overhead,
        format_top_spans,
        run_overhead_check,
        top_spans,
    )

    # tracing and the overhead gate run the same sweep spec
    if args.spec is not None:
        what = f"sweep --spec {args.spec}"
        root = {"mode": "sweep", "spec": str(args.spec)}
        spec = experiments.SweepSpec.from_dict(json.loads(args.spec.read_text()))
    else:
        workloads = list(args.workload or ["poisson(load=0.5)"])
        what = f"dynamic {' '.join(workloads)}"
        root = {"mode": "dynamic", "topology": args.topology}
        spec = experiments.dynamic_grid_spec(
            topology=args.topology,
            workloads=workloads,
            algorithms=args.algorithms,
            seeds=args.seeds,
            engine=args.engine,
        )

    if args.overhead_check:
        result = run_overhead_check(spec, repeats=args.repeats, tolerance=args.tolerance)
        print(format_overhead(result))
        return 0 if result["ok"] else 1

    TRACER.enable()
    TRACER.clear()
    counters_before = counter_values()
    t0 = time.perf_counter()
    with TRACER.span("profile.run", **root):
        result = experiments.run_sweep(spec)
    wall_s = time.perf_counter() - t0
    TRACER.disable()

    spans = TRACER.spans()
    jsonl_path, perfetto_path = write_trace_files(args.output)
    print(
        f"profiled {what}: {len(result.runs)} {root['mode']} runs, "
        f"{len(spans)} spans in {wall_s:.2f}s\n"
    )
    print(format_top_spans(top_spans(spans, limit=args.limit), wall_s=wall_s))
    print(f"\nspan coverage: {coverage(spans):.1%} of traced wall time")
    counters = format_counters(counters_before, counter_values())
    if counters:
        print(f"\n{counters}")
    print(f"trace written to {jsonl_path} and {perfetto_path}")
    return 0


def _parse_bytes(text: str) -> int:
    """``'256M'`` → bytes; accepts plain integers and K/M/G suffixes."""
    scales = {"K": 1024, "M": 1024**2, "G": 1024**3}
    raw = text.strip().upper().removesuffix("B")
    scale = scales.get(raw[-1:], 1)
    digits = raw[:-1] if scale != 1 else raw
    try:
        return int(float(digits) * scale)
    except ValueError:
        raise SystemExit(
            f"error: cannot parse size {text!r} (try 1048576, 1M, 2.5G)"
        ) from None


def _cmd_store(args: argparse.Namespace) -> int:
    from .store import ArtifactStore

    store = ArtifactStore(args.store)
    report = store.gc(_parse_bytes(args.max_bytes), dry_run=args.dry_run)
    verb = "would evict" if report.dry_run else "evicted"
    for info in report.evicted:
        print(f"{verb} {info.digest}  {info.nbytes} bytes")
    print(
        f"{report.scanned} entries, {report.total_bytes} bytes scanned; "
        f"{verb} {len(report.evicted)} entries ({report.reclaimed_bytes} bytes), "
        f"{report.kept_bytes} bytes kept under {store.root}"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    comparison = experiments.sweep_compare(
        experiments.load_artifact(args.baseline),
        experiments.load_artifact(args.current),
        rel_tol=args.tolerance,
        metrics=args.metrics,
    )
    print(experiments.format_sweep_compare(comparison))
    return 0 if comparison.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from . import lint as lint_mod

    if args.list_rules:
        for rid in lint_mod.rule_ids():
            rule = lint_mod.LINT_RULES.get(rid)
            print(f"{rule.id}  {rule.family:<15} {rule.name:<28} {rule.summary}")
        return 0
    selection = None
    if args.rules is not None:
        selection = [item for item in args.rules.split(",") if item.strip()]
    try:
        result = lint_mod.run_lint(args.paths, rules=selection)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(lint_mod.result_to_json(result))
    else:
        text = result.format_text(statistics=args.statistics)
        if text:
            print(text)
    return 0 if result.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(args.log_level)
    # --trace PREFIX (sweep/dynamic/serve) or $REPRO_TRACE=<prefix>
    # wraps any command; `profile` drives the tracer itself.
    trace_prefix = getattr(args, "trace", None)
    if trace_prefix is None:
        trace_prefix = trace_prefix_from_env()
    if args.command == "profile":
        trace_prefix = None
    if trace_prefix is None:
        return _run(args)
    TRACER.enable()
    try:
        return _run(args)
    finally:
        TRACER.disable()
        jsonl_path, perfetto_path = write_trace_files(trace_prefix)
        print(f"trace written to {jsonl_path} and {perfetto_path}", file=sys.stderr)


def _run(args: argparse.Namespace) -> int:
    if args.command in ("fig2", "fig5"):
        fn = experiments.fig2 if args.command == "fig2" else experiments.fig5
        sweep = fn(args.app, w2_values=args.w2, seeds=args.seeds, engine=args.engine)
        print(experiments.format_sweep(sweep, title=f"{args.command} — {args.app}"))
    elif args.command == "fig3":
        print(experiments.format_fig3(experiments.fig3()))
    elif args.command == "fig4":
        result = experiments.fig4(args.w2, seeds=args.seeds)
        print(experiments.format_fig4(result))
    elif args.command == "table1":
        topo = parse_xgft(args.topology)
        print(experiments.format_table1(experiments.table1(topo), topo.spec()))
    elif args.command == "equivalence":
        result = experiments.equivalence(
            num_permutations=args.permutations, seed=args.seed
        )
        print(experiments.format_equivalence(result))
    elif args.command == "info":
        topo = parse_xgft(args.topology)
        print(ascii_art(topo))
        for key, value in cost_summary(topo).items():
            print(f"  {key:>22}: {value}")
    elif args.command == "eval":
        return _cmd_eval(args)
    elif args.command == "sweep":
        return _cmd_sweep(args)
    elif args.command == "faults":
        return _cmd_faults(args)
    elif args.command == "dynamic":
        return _cmd_dynamic(args)
    elif args.command == "serve":
        return _cmd_serve(args)
    elif args.command == "compare":
        return _cmd_compare(args)
    elif args.command == "lint":
        return _cmd_lint(args)
    elif args.command == "store":
        return _cmd_store(args)
    elif args.command == "profile":
        return _cmd_profile(args)
    else:  # pragma: no cover - argparse enforces choices
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
