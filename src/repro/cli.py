"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``list {benchmarks,mixes,configs}`` — show what is available.
* ``run --config 3d-fast --mix H1``   — simulate one workload and print
  per-core results (``--benchmarks a,b,c,d`` for a custom mix).
* ``analyze --config 2d --mix VH2``   — run once and print a bottleneck
  report.
* ``profile run --config 2d --mix H1`` — run one workload (or
  ``figure4``) in-process under cProfile and print the top hotspots
  plus, for ``run``, one line per memory controller (issues, row-hit
  rate, queue wait, MRQ occupancy), each core's parked-dispatch tally
  and one line per event callback (events per kinstr, µs per event).
* ``figure {4,6a,6b,7,9}``            — regenerate a figure.
* ``table {2a,2b}``                   — regenerate a table.
* ``ablation {scheduler,interleave,prefetch,mshr_org}`` — run a
  design-choice ablation.
* ``report --output results/``        — regenerate everything.
* ``validate {timing,resume,sampling}`` — run one differential of
  :mod:`repro.validate.diff` (or the sampling accuracy gate) on a
  config/mix/scale of your choosing; ``validate fidelity`` measures
  every paper claim of the catalog into ``FIDELITY.json``.  See
  ``docs/validation.md``.

The experiment commands (``figure``, ``table``, ``ablation``) are
parser entries only: each resolves to one name of
:data:`repro.experiments.catalog.CATALOG` (``figure 7 --panel dual-mc``
-> ``figure7_dual``) and runs through the one ``_cmd_experiment``; that
name is also what ``report --only`` takes and the stem of the default
``--resume`` journal.  ``--check`` / ``--sample`` are passed down as
arguments — the CLI never writes ``os.environ``.

All experiment commands accept ``--scale`` (smoke/default/large),
``--mixes`` (comma-separated) and ``--seed``, plus resilience knobs:
``--cell-timeout SECONDS`` (kill and retry hung cells),
``--retries N`` (re-attempt failed cells with exponential backoff),
``--journal PATH`` (checkpoint each completed cell), ``--resume``
(skip cells already in the journal; refuses a journal written by a
different run) and ``--snapshot-every CYCLES``
(periodic whole-machine checkpoints so interrupted cells resume
mid-run — see ``docs/snapshot.md``).  See ``docs/resilience.md``.

``run``, ``analyze`` and every experiment command also accept
``--check [names]`` to attach the runtime invariant checkers from
:mod:`repro.validate` (zero overhead when omitted).  See
``docs/validation.md``.

``run`` and every experiment command accept ``--sample [spec]`` to
replace full-detail simulation with SMARTS-style sampled simulation
(alternating functional warmup and detailed measurement intervals).
``--sample`` alone uses the tuned default plan; a spec such as
``detailed:1200,warmup:4650`` overrides individual knobs.  Results are
estimates with confidence intervals (``sample_*`` keys in saved
tables).  See the "Sampled simulation" section of
``docs/performance.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional, Sequence

from .common.errors import CheckViolation
from .experiments import RunPolicy, run_experiment, run_full_suite
from .experiments.catalog import CATALOG, Experiment, render
from .system.config import (
    SystemConfig,
    config_2d,
    config_3d,
    config_3d_fast,
    config_3d_wide,
    config_dual_mc,
    config_l4_cache,
    config_quad_mc,
)
from .system.machine import run_workload
from .system.scale import get_scale
from .workloads.benchmarks import BENCHMARKS
from .workloads.mixes import MIX_ORDER, MIXES

CONFIGS: Dict[str, Callable[[], SystemConfig]] = {
    "2d": config_2d,
    "3d": config_3d,
    "3d-wide": config_3d_wide,
    "3d-fast": config_3d_fast,
    "dual-mc": config_dual_mc,
    "quad-mc": config_quad_mc,
    "l4-cache": config_l4_cache,
}


def _mixes_arg(value: Optional[str]):
    if not value:
        return None
    return [MIXES[name.strip()] for name in value.split(",")]


def _add_check_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--check", nargs="?", const="all", default=None, metavar="CHECKERS",
        help="attach runtime invariant checkers (default when given: all; "
        "or a comma-separated subset of dram-timing,mshr,queue)",
    )


def _add_cell_args(parser, config_default, mix_override=None) -> None:
    """``--config/--mix/--scale/--seed``: the one cell a command runs
    (no ``--config`` when ``config_default`` is None: it sweeps its own).
    ``mix_override`` is the command's own ``(flag, help)`` beside
    ``--mix``, kept where ``--help`` has always listed it."""
    if config_default is not None:
        parser.add_argument(
            "--config", default=config_default, choices=sorted(CONFIGS)
        )
    parser.add_argument("--mix", default="H1", choices=list(MIX_ORDER))
    if mix_override is not None:
        flag, text = mix_override
        parser.add_argument(flag, default=None, help=text)
    parser.add_argument("--scale", default="smoke",
                        choices=["smoke", "default", "large"])
    parser.add_argument("--seed", type=int, default=42)


def _add_sample_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sample", nargs="?", const="on", default=None, metavar="SPEC",
        help="use sampled simulation (default plan when given bare; or a "
        "spec like detailed:1200,warmup:4650,detail_warmup:400,"
        "min_intervals:8)",
    )


def _policy_from_args(args, journal: Optional[str]) -> Optional[RunPolicy]:
    """Build a RunPolicy from the resilience flags (None when unused)."""
    if (
        args.cell_timeout is None
        and args.retries == 0
        and journal is None
        and not args.resume
        and args.snapshot_every is None
    ):
        return None
    return RunPolicy(
        cell_timeout=args.cell_timeout,
        retries=args.retries,
        journal_path=journal,
        resume=args.resume,
        snapshot_every=args.snapshot_every,
        snapshot_dir=args.snapshot_dir,
    )


def _cmd_list(args) -> int:
    if args.what == "benchmarks":
        print(f"{'name':12s} {'suite':14s} {'paper MPKI':>10s}")
        for spec in sorted(
            BENCHMARKS.values(), key=lambda s: -s.paper_mpki
        ):
            print(f"{spec.name:12s} {spec.suite:14s} {spec.paper_mpki:>10.1f}")
    elif args.what == "mixes":
        print(f"{'mix':5s} {'group':6s} {'paper HMIPC':>11s}  benchmarks")
        for name in MIX_ORDER:
            mix = MIXES[name]
            print(
                f"{mix.name:5s} {mix.group:6s} {mix.paper_hmipc:>11.3f}  "
                + ", ".join(mix.benchmarks)
            )
    else:
        for name, factory in CONFIGS.items():
            config = factory()
            print(
                f"{name:10s} timing={config.dram_timing:12s} "
                f"bus={config.memory_bus:5s} MCs={config.num_mcs} "
                f"ranks={config.total_ranks} RB={config.row_buffer_entries} "
                f"MSHR/bank={config.l2_mshr_per_bank}"
            )
    return 0


def _cmd_run(args) -> int:
    from .sampling.plan import parse_sample_spec

    plan = parse_sample_spec(args.sample)
    config = CONFIGS[args.config]()
    if args.benchmarks:
        benchmarks = [b.strip() for b in args.benchmarks.split(",")]
        if len(benchmarks) != config.num_cores:
            raise SystemExit(
                f"--benchmarks needs {config.num_cores} names, "
                f"got {len(benchmarks)}"
            )
        workload_name = "custom"
    else:
        mix = MIXES[args.mix]
        benchmarks = list(mix.benchmarks)
        workload_name = mix.name
    scale = get_scale(args.scale)
    result = run_workload(
        config,
        benchmarks,
        warmup_instructions=scale.warmup_instructions,
        measure_instructions=scale.measure_instructions,
        seed=args.seed,
        workload_name=workload_name,
        checkers=args.check,
        sampling=plan,
    )
    print(f"config {config.name}, workload {workload_name} ({scale.name} scale)")
    if args.check:
        print(f"runtime checkers passed: {args.check}")
    if plan is not None:
        print(
            f"sampled: {int(result.extra['sample_intervals'])} intervals "
            f"x {plan.detailed} detailed instr; "
            f"IPC rel 95% CI max {result.extra['sample_rel_ci95_max']:.1%}"
        )
    for core in result.cores:
        print(
            f"  core {core.benchmark:12s} IPC {core.ipc:6.3f}  "
            f"L2 MPKI {core.l2_mpki:7.1f}"
        )
    print(f"HMIPC               {result.hmipc:.3f}")
    print(f"DRAM row-hit rate   {result.dram_row_hit_rate:.2f}")
    print(f"MSHR probes/access  {result.mshr_avg_probes:.2f}")
    print(
        "DRAM dynamic energy "
        f"{result.extra['dram_dynamic_nj_per_access']:.2f} nJ/access"
    )
    return 0


def _print_callback_table(profiler, machine, kinstr: float) -> None:
    """One line per callback the engine fired, from the profile's caller
    table: events, events per ``kinstr`` and inclusive us per event.

    An event is a call whose caller is ``Engine.run``.  Builtins (the
    heap operations), the engine module's own code (a comprehension, the
    ``step`` predicate) and the watchdog's ``pending_work`` probe are not
    events.
    """
    import os
    import pstats

    from .engine.simulator import Engine

    def key(function):
        code = function.__code__
        return (code.co_filename, code.co_firstlineno, code.co_name)

    run, probe = key(Engine.run), key(type(machine).outstanding_requests)
    rows = []
    for func, (_, _, _, _, callers) in pstats.Stats(profiler).stats.items():
        edge = callers.get(run)
        if edge is not None and func[0] not in ("~", run[0]) and func != probe:
            rows.append((func, edge[1], edge[3]))
    total = sum(inclusive for _, _, inclusive in rows) or 1.0
    print(
        f"\nevent callbacks ({machine.engine.events_fired} events fired, "
        f"{kinstr:g} kinstr requested; us are inclusive, under the "
        "profiler):"
    )
    print(f"  {'share':>6} {'events':>9} {'per kinstr':>10} {'us/event':>8}  callback")
    for (filename, line, name), events, inclusive in sorted(
        rows, key=lambda row: -row[2]
    ):
        print(
            f"  {inclusive / total:6.1%} {events:9d} {events / kinstr:10.1f} "
            f"{inclusive * 1e6 / events:8.2f}  "
            f"{os.path.basename(filename)}:{line}({name})"
        )


def _cmd_profile(args) -> int:
    import cProfile
    import pstats

    from .system.machine import Machine

    scale = get_scale(args.scale)
    profiler = cProfile.Profile()
    if args.experiment == "run":
        config = CONFIGS[args.config]()
        mix = MIXES[args.mix]
        machine = Machine(
            config, list(mix.benchmarks), seed=args.seed,
            workload_name=mix.name,
        )
        profiler.enable()
        result = machine.run(
            warmup_instructions=scale.warmup_instructions,
            measure_instructions=scale.measure_instructions,
        )
        profiler.disable()
        print(
            f"profiled run: config {config.name}, workload {mix.name} "
            f"({scale.name} scale), HMIPC {result.hmipc:.3f}"
        )
        print("\nmemory controllers:")
        for mc in machine.memory.controllers:
            get = mc.stats.get
            issued = get("issued")
            accepts = get("mrq_accepts")
            print(
                f"  {mc.stats.name}: issued {issued:.0f}, "
                f"row-hit rate {get('row_hits') / max(issued, 1.0):.3f}, "
                f"mean queue wait "
                f"{get('queue_wait_cycles') / max(issued, 1.0):.1f} cyc, "
                f"mean MRQ occupancy "
                f"{get('mrq_occupancy_sum') / max(accepts, 1.0):.2f}, "
                f"MRQ rejections {get('mrq_rejections'):.0f}"
            )
        # A plain per-core tally (not a registry counter): how many
        # follow-up dispatch events the ROB parking rule saved.
        print("\ncore dispatch parking (ROB-stall events saved):")
        for core in machine.cores:
            print(
                f"  core{core.core_id}: parked {core.parked_dispatches} of "
                f"{core.stats.get('rob_stalls'):.0f} ROB stalls, "
                f"{core.stats.get('dispatched_refs'):.0f} refs dispatched"
            )
        # The ledger's per-kinstr base: the requested budget of all cores.
        _print_callback_table(
            profiler,
            machine,
            len(machine.cores)
            * (scale.warmup_instructions + scale.measure_instructions)
            / 1000,
        )
    else:
        profiler.enable()
        run_experiment(
            "figure4", scale, _mixes_arg(args.mixes), seed=args.seed,
            workers=1,
        )
        profiler.disable()
        print(f"profiled figure4 ({scale.name} scale, in-process cells)")

    print(f"\ntop {args.top} functions by {args.sort}:")
    stats = pstats.Stats(profiler)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return 0


def _figure_experiment(args) -> Experiment:
    if args.which in ("7", "9"):
        return CATALOG[f"figure{args.which}_{args.panel[:-len('-mc')]}"]
    return CATALOG[f"figure{args.which}"]


def _cmd_experiment(args) -> int:
    """Every experiment subcommand: resolve the catalog entry, run, render.

    ``args.experiment`` maps the parsed arguments to a catalog entry.
    A degraded run still renders what it can and exits 0.
    """
    experiment = args.experiment(args)
    journal = args.journal
    if journal is None and args.resume:
        # Re-running the same command with --resume added picks up
        # where it left off.
        journal = f"results/{experiment.name}.journal.jsonl"
    result = run_experiment(
        experiment,
        scale=get_scale(args.scale),
        mixes=_mixes_arg(args.mixes),
        seed=args.seed,
        workers=args.workers,
        policy=_policy_from_args(args, journal),
        checkers=args.check,
        sampling=args.sample,
    )
    print(render(experiment, result), flush=True)
    return 0


def _cmd_analyze(args) -> int:
    from .experiments.analysis import analyze
    from .system.machine import Machine

    config = CONFIGS[args.config]()
    mix = MIXES[args.mix]
    scale = get_scale(args.scale)
    machine = Machine(
        config, list(mix.benchmarks), seed=args.seed, workload_name=mix.name,
        checkers=args.check,
    )
    result = machine.run(
        warmup_instructions=scale.warmup_instructions,
        measure_instructions=scale.measure_instructions,
    )
    print(f"config {config.name}, workload {mix.name}: HMIPC {result.hmipc:.3f}\n")
    print(analyze(machine).format())
    return 0


def _cmd_report(args) -> int:
    journal_dir = None
    if args.resume or args.journal is not None:
        # --journal names a *directory* for report runs (one journal
        # per experiment inside it).
        journal_dir = args.journal or args.output or "results"
    reports = run_full_suite(
        scale=get_scale(args.scale),
        mixes=_mixes_arg(args.mixes),
        seed=args.seed,
        workers=args.workers,
        output_dir=args.output,
        only=args.only.split(",") if args.only else None,
        policy=_policy_from_args(args, None),
        journal_dir=journal_dir,
        checkers=args.check,
        sampling=args.sample,
    )
    for name, text in reports.items():
        print(f"\n===== {name} =====")
        print(text)
    return 0


def _resume_shape(name: str) -> str:
    """``--shape`` choices, read (and ``repro.validate`` imported) only
    when the flag is given, not by every command's parser build."""
    from .validate.diff import resume_shapes

    if name not in resume_shapes():
        raise argparse.ArgumentTypeError(
            f"unknown shape {name!r} (choose from {', '.join(resume_shapes())})"
        )
    return name


def _cmd_validate(args) -> int:
    """A tool's flags are its handler's parameters, names resolved."""
    from .validate import tools

    options = dict(vars(args), scale=get_scale(args.scale))
    for parser_key in ("command", "tool", "func"):
        del options[parser_key]
    if "mix" in options:
        options["mix"] = MIXES[args.mix]
    if "config" in options:
        options["config"] = CONFIGS[args.config]()
    return getattr(tools, args.tool)(**options)


def _cmd_serve(args) -> int:
    from .service.http import ServiceServer
    from .service.service import SweepService
    from .service.supervisor import ServicePolicy

    policy = ServicePolicy(
        workers=args.workers or 2,
        heartbeat_timeout=args.heartbeat_timeout,
        cell_timeout=args.cell_timeout,
        retries=args.retries,
        max_pending_cells=args.max_pending_cells,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        snapshot_every=args.snapshot_every,
    )
    service = SweepService(args.root, policy)
    server = ServiceServer(
        service, host=args.host, port=args.port, quiet=not args.verbose
    )
    print(f"sweep service listening on {server.url} (root: {args.root})")
    print("endpoints: POST /sweeps, GET /sweeps/<id>, "
          "GET /sweeps/<id>/result, GET /healthz, GET /stats")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", default="smoke",
                        choices=["smoke", "default", "large"])
    parser.add_argument("--mixes", default=None,
                        help="comma-separated mix names (default: per-figure)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per cell attempt; hung cells are killed "
        "and retried",
    )
    parser.add_argument(
        "--retries", type=int, default=0,
        help="extra attempts per failed cell (exponential backoff)",
    )
    parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="checkpoint completed cells to this journal "
        "(default with --resume: results/<experiment>.journal.jsonl)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip cells already recorded in the journal; failed cells "
        "are re-simulated",
    )
    parser.add_argument(
        "--snapshot-every", type=int, default=None, metavar="CYCLES",
        help="checkpoint every cell's machine state every CYCLES cycles; "
        "interrupted cells resume from their latest snapshot "
        "(see docs/snapshot.md)",
    )
    parser.add_argument(
        "--snapshot-dir", default=None, metavar="DIR",
        help="directory for per-cell snapshot files (default: next to "
        "the journal, or results/snapshots)",
    )
    _add_check_flag(parser)
    _add_sample_flag(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Loh, '3D-Stacked Memory Architectures "
        "for Multi-Core Processors' (ISCA 2008)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list benchmarks/mixes/configs")
    p_list.add_argument("what", choices=["benchmarks", "mixes", "configs"])
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="simulate one workload")
    _add_cell_args(p_run, "3d-fast", (
        "--benchmarks",
        "comma-separated benchmark names (overrides --mix; one per core)",
    ))
    _add_check_flag(p_run)
    _add_sample_flag(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_prof = sub.add_parser(
        "profile",
        help="run one experiment in-process under cProfile: top hotspots "
        "plus per-controller, per-core and per-callback tallies",
    )
    p_prof.add_argument("experiment", choices=["run", "figure4"])
    _add_cell_args(
        p_prof, "3d-fast", ("--mixes", "(figure4) comma-separated mix names")
    )
    p_prof.add_argument("--top", type=int, default=25,
                        help="functions to print")
    p_prof.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime"])
    p_prof.set_defaults(func=_cmd_profile)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("which", choices=["4", "6a", "6b", "7", "9"])
    p_fig.add_argument("--panel", default="quad-mc",
                       choices=["dual-mc", "quad-mc"])
    _add_common(p_fig)
    p_fig.set_defaults(func=_cmd_experiment, experiment=_figure_experiment)

    p_tab = sub.add_parser("table", help="regenerate a paper table")
    p_tab.add_argument("which", choices=["2a", "2b"])
    _add_common(p_tab)
    p_tab.set_defaults(
        func=_cmd_experiment,
        experiment=lambda args: CATALOG[f"table{args.which}"],
    )

    p_ana = sub.add_parser(
        "analyze", help="run one workload and print a bottleneck report"
    )
    _add_cell_args(p_ana, "3d-fast")
    _add_check_flag(p_ana)
    p_ana.set_defaults(func=_cmd_analyze)

    p_val = sub.add_parser(
        "validate",
        help="run one differential (or the sampling accuracy gate) on a "
        "chosen config/mix/scale; exit 1 on an unexpected verdict",
    )
    tools = p_val.add_subparsers(dest="tool", required=True)
    p_tim = tools.add_parser(
        "timing", help="two DRAM timing presets: where the faster one "
        "first changes behaviour",
    )
    _add_cell_args(p_tim, "2d")
    presets = ["2d", "3d-commodity", "true-3d"]
    p_tim.add_argument("--preset-a", default="2d", choices=presets)
    p_tim.add_argument("--preset-b", default="true-3d", choices=presets)
    p_res = tools.add_parser(
        "resume", help="preempt at a --seed-drawn snapshot boundary and "
        "resume in a fresh machine: must match the uninterrupted run",
    )
    _add_cell_args(p_res, None)
    p_res.add_argument("--shape", default=None, type=_resume_shape,
                       help="one machine shape (default: all)")
    p_smp = tools.add_parser(
        "sampling", help="sampled vs full-detail Figure 4: speedup error "
        "<= 2%%, sampled sweep >= 3x faster",
    )
    _add_cell_args(p_smp, None)
    p_smp.set_defaults(scale="large")  # the plan is tuned for long runs
    p_smp.add_argument("--spec", default=None, metavar="SPEC",
                       help="sampling spec (default: the tuned default plan)")
    p_fid = tools.add_parser(
        "fidelity", help="measure every paper claim of the catalog into "
        "that scale's column of FIDELITY.json and regenerate "
        "EXPERIMENTS.md's tables: a row outside its band fails",
    )
    p_fid.add_argument("--scale", default="smoke", choices=["smoke", "default"])
    p_val.set_defaults(func=_cmd_validate)

    p_rep = sub.add_parser(
        "report", help="regenerate every table/figure/ablation"
    )
    _add_common(p_rep)
    p_rep.add_argument("--output", default=None,
                       help="directory to write <name>.txt reports into")
    p_rep.add_argument("--only", default=None,
                       help="comma-separated experiment names")
    p_rep.set_defaults(func=_cmd_report)

    p_srv = sub.add_parser(
        "serve",
        help="run the resilient sweep service (durable queue + result cache)",
    )
    p_srv.add_argument(
        "--root", default="results/service",
        help="state directory: job journals + result cache",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8642)
    p_srv.add_argument("--workers", type=int, default=None,
                       help="persistent supervised worker processes")
    p_srv.add_argument("--heartbeat-timeout", type=float, default=15.0,
                       help="seconds of worker silence before it is "
                       "declared hung and recycled")
    p_srv.add_argument("--cell-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock budget per cell attempt")
    p_srv.add_argument("--retries", type=int, default=1,
                       help="extra attempts per failed cell")
    p_srv.add_argument("--max-pending-cells", type=int, default=4096,
                       help="admission bound: submissions past this many "
                       "pending cells get 503")
    p_srv.add_argument("--breaker-threshold", type=int, default=3,
                       help="consecutive failures that trip a scenario's "
                       "circuit breaker")
    p_srv.add_argument("--breaker-cooldown", type=float, default=30.0,
                       help="seconds an open breaker sheds load")
    p_srv.add_argument("--snapshot-every", type=int, default=None,
                       metavar="CYCLES",
                       help="checkpoint each cell every CYCLES cycles; "
                       "preempted/killed workers are rescheduled from "
                       "their latest snapshot")
    p_srv.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")
    p_srv.set_defaults(func=_cmd_serve)

    p_abl = sub.add_parser("ablation", help="run a design-choice ablation")
    p_abl.add_argument(
        "which",
        choices=[
            name[len("ablation_"):]
            for name in CATALOG
            if name.startswith("ablation_")
        ],
    )
    _add_common(p_abl)
    p_abl.set_defaults(
        func=_cmd_experiment,
        experiment=lambda args: CATALOG[f"ablation_{args.which}"],
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CheckViolation as exc:
        print(f"CHECK FAILED\n{exc.describe()}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
