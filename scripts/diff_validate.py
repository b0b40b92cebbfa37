#!/usr/bin/env python3
"""Differential validation harness (CLI for :mod:`repro.validate.diff`).

Modes:

* ``--smoke`` (CI): three assertions, exit 0 only if all hold —
  1. the calendar-queue and heap engines produce **bit-identical**
     command transcripts and stat tables on the figure-4 baseline;
  2. the same holds with every runtime checker attached (checking does
     not perturb the simulation);
  3. a deliberately injected DRAM timing violation (``timing`` fault,
     arrays overclocked to 0.5x) **is caught** by the timing checker,
     which names the violated constraint.

* ``--modes`` (CI): stack-mode seam assertions —
  1. ``memory`` mode is **bit-identical** to the all-direct MemCache
     degenerate configuration (the facade pass-through path): same
     stack transcript, same pre-existing stat tables, zero off-chip
     commands;
  2. a cache-mode (L4) run completes under every runtime checker with
     all invariants holding on both the stack and off-chip channels.

* ``--engines``: diff the two engines on a chosen config/mix/scale and
  print the report (first divergence with cycle, command and bank
  state when they differ).

* ``--timing``: diff two DRAM timing presets on the same workload —
  expected to diverge; the report shows the first command the
  aggressive timing changes.

Examples::

    PYTHONPATH=src python scripts/diff_validate.py --smoke
    PYTHONPATH=src python scripts/diff_validate.py --engines --config 3d-fast --mix H2
    PYTHONPATH=src python scripts/diff_validate.py --timing --preset-a 2d --preset-b true-3d
"""

import argparse
import sys

from repro.cli import CONFIGS
from repro.common.errors import CheckViolation
from repro.experiments import faults
from repro.system.machine import Machine
from repro.system.scale import get_scale
from repro.validate import diff_engines, diff_timing_presets
from repro.workloads.mixes import MIX_ORDER, MIXES


def _workload(args):
    mix = MIXES[args.mix]
    return CONFIGS[args.config](), list(mix.benchmarks), mix.name


def cmd_engines(args) -> int:
    config, benchmarks, mix_name = _workload(args)
    scale = get_scale(args.scale)
    report, lhs, _ = diff_engines(
        config, benchmarks,
        warmup=scale.warmup_instructions,
        measure=scale.measure_instructions,
        seed=args.seed, workload_name=mix_name,
        checkers="all" if args.check else None,
    )
    print(report.format())
    print(f"({lhs.commands} DRAM commands, workload {mix_name}, {scale.name} scale)")
    return 0 if report.identical else 1


def cmd_timing(args) -> int:
    config, benchmarks, mix_name = _workload(args)
    scale = get_scale(args.scale)
    report, lhs, rhs = diff_timing_presets(
        config, benchmarks,
        preset_a=args.preset_a, preset_b=args.preset_b,
        warmup=scale.warmup_instructions,
        measure=scale.measure_instructions,
        seed=args.seed, workload_name=mix_name,
    )
    print(report.format())
    print(
        f"(hmipc {lhs.result.hmipc:.3f} vs {rhs.result.hmipc:.3f}, "
        f"workload {mix_name}, {scale.name} scale)"
    )
    # Divergence is the *expected* outcome here; exit 0 either way.
    return 0


def cmd_smoke(args) -> int:
    scale = get_scale(args.scale)
    config = CONFIGS["2d"]()
    mix = MIXES["H1"]
    failures = []

    # 1. Engines must be bit-identical on the figure-4 baseline.
    report, lhs, _ = diff_engines(
        config, list(mix.benchmarks),
        warmup=scale.warmup_instructions,
        measure=scale.measure_instructions,
        seed=args.seed, workload_name=mix.name,
    )
    print(report.format())
    if not report.identical:
        failures.append("engine differential: transcripts/stats diverged")

    # 2. Checking must not perturb the simulation: a checker-enabled run
    #    produces the same transcript as the unchecked one.
    checked, lhs_checked, _ = diff_engines(
        config, list(mix.benchmarks),
        warmup=scale.warmup_instructions,
        measure=scale.measure_instructions,
        seed=args.seed, workload_name=mix.name,
        checkers="all",
    )
    print(checked.format())
    if not checked.identical:
        failures.append("checker-enabled differential: diverged")
    if lhs_checked.transcript != lhs.transcript:
        failures.append("attaching checkers changed the command transcript")
    else:
        print("checkers attached: transcript unchanged, all invariants held")

    # 3. A seeded timing bug must be caught and named.
    faults.install(faults.parse_fault("timing:*:*:-1:0.5"))
    try:
        machine = Machine(
            config, list(mix.benchmarks), seed=args.seed,
            workload_name=mix.name, checkers="all",
        )
        machine.run(scale.warmup_instructions, scale.measure_instructions)
        failures.append("injected timing violation was NOT caught")
    except CheckViolation as exc:
        print("injected timing violation caught, first divergence:")
        print(exc.describe())
    finally:
        faults.clear()

    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    if not failures:
        print("diff-validate smoke: OK")
    return 1 if failures else 0


def cmd_modes(args) -> int:
    from repro.system.config import config_l4_cache
    from repro.validate.diff import diff_modes

    scale = get_scale(args.scale)
    config = CONFIGS["3d-fast"]()
    mix = MIXES["H1"]
    failures = []

    # 1. Memory mode must be bit-identical to the facade's pass-through
    #    (memcache with a zero-size cache region).
    report, _, rhs = diff_modes(
        config, list(mix.benchmarks),
        warmup=scale.warmup_instructions,
        measure=scale.measure_instructions,
        seed=args.seed, workload_name=mix.name,
    )
    print(report.format())
    if not report.identical:
        failures.append("mode differential: memory vs memcache-direct diverged")
    l4_stats = rhs.stats.get("l4", {})
    if not l4_stats.get("direct_accesses"):
        failures.append("memcache-direct run never took the direct path")

    # 2. A real cache-mode run must complete with every checker attached
    #    (invariants hold on the stack and the off-chip channel alike).
    cache_config = config_l4_cache(base=config)
    machine = Machine(
        cache_config, list(mix.benchmarks), seed=args.seed,
        workload_name=mix.name, checkers="all",
    )
    result = machine.run(scale.warmup_instructions, scale.measure_instructions)
    offchip_reads = result.extra.get("l4_offchip_reads", 0.0)
    print(
        f"cache mode under checkers: hmipc {result.hmipc:.3f}, "
        f"l4 hit rate {result.extra.get('l4_hit_rate', 0.0):.3f}, "
        f"{offchip_reads:.0f} off-chip reads, all invariants held"
    )
    if not offchip_reads:
        failures.append("cache-mode run produced no off-chip traffic")

    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    if not failures:
        print("diff-validate modes: OK")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--smoke", action="store_true",
                      help="CI smoke: engine diff + seeded-bug drill")
    mode.add_argument("--modes", action="store_true",
                      help="CI: memory-mode bit-identity + checked L4 run")
    mode.add_argument("--engines", action="store_true",
                      help="diff calendar vs heap engine")
    mode.add_argument("--timing", action="store_true",
                      help="diff two DRAM timing presets")
    parser.add_argument("--config", default="2d", choices=sorted(CONFIGS))
    parser.add_argument("--mix", default="H1", choices=list(MIX_ORDER))
    parser.add_argument("--scale", default="smoke",
                        choices=["smoke", "default", "large"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--check", action="store_true",
                        help="also attach runtime checkers (--engines)")
    parser.add_argument("--preset-a", default="2d",
                        choices=["2d", "3d-commodity", "true-3d"])
    parser.add_argument("--preset-b", default="true-3d",
                        choices=["2d", "3d-commodity", "true-3d"])
    args = parser.parse_args(argv)
    if args.smoke:
        return cmd_smoke(args)
    if args.modes:
        return cmd_modes(args)
    if args.engines:
        return cmd_engines(args)
    return cmd_timing(args)


if __name__ == "__main__":
    sys.exit(main())
