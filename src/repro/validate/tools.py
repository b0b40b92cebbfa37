"""The ``python -m repro validate <tool>`` handlers.

The exactness *gates* are tier-1 tests (docs/validation.md has the
table); these point the same differentials at a config, mix and scale
of the user's choosing, plus the one comparison too long for tier-1
(:func:`sampling`) and the paper-claim measurement (:func:`fidelity`).
Each prints its report and returns the exit code: 1, with a ``FAIL:``
line per violated expectation on stderr, when the differential does not
come out the way the tool exists to show.
"""

from __future__ import annotations

import os
import random
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

from ..experiments import fidelity as claims
from ..experiments.catalog import CATALOG, run_experiment
from ..sampling.plan import SamplingPlan, parse_sample_spec
from ..workloads.mixes import MIXES
from .diff import diff_engines, diff_resume, diff_timing_presets, resume_shapes

#: Per-config bound on ``|speedup_sampled / speedup_full - 1|``
#: (deterministic for a fixed seed, so stable across hosts).
SAMPLING_MAX_ERR = 0.02
#: Wall-clock floor of the sampled sweep over the full-detail one (the
#: default plan was tuned with >10% margin over it).
SAMPLING_MIN_SPEEDUP = 3.0


def _verdict(tool: str, failures: List[str]) -> int:
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    if not failures:
        print(f"validate {tool}: OK")
    return 1 if failures else 0


def _budget(mix, scale, seed) -> dict:
    return dict(
        warmup=scale.warmup_instructions, measure=scale.measure_instructions,
        seed=seed, workload_name=mix.name,
    )


def engines(config, mix, scale, seed, check=None) -> int:
    """Calendar-queue vs heap engine: must be bit-identical."""
    report, lhs, _ = diff_engines(
        config, list(mix.benchmarks), checkers=check, **_budget(mix, scale, seed)
    )
    print(report.format())
    print(f"({lhs.commands} DRAM commands, workload {mix.name}, {scale.name} scale)")
    failures = [] if report.identical else [f"{config.name}: the engines diverged"]
    return _verdict("engines", failures)


def timing(config, mix, scale, seed, preset_a, preset_b) -> int:
    """Two DRAM timing presets: where the faster one first changes
    behaviour.  Presets that behave the same left nothing to audit: fail."""
    report, lhs, rhs = diff_timing_presets(
        config, list(mix.benchmarks), preset_a=preset_a, preset_b=preset_b,
        **_budget(mix, scale, seed),
    )
    print(report.format())
    print(
        f"(hmipc {lhs.result.hmipc:.3f} vs {rhs.result.hmipc:.3f}, "
        f"workload {mix.name}, {scale.name} scale)"
    )
    same = [f"presets {preset_a} and {preset_b} produced the same run"]
    return _verdict("timing", same if report.identical else [])


def resume(mix, scale, seed, shape: Optional[str] = None) -> int:
    """Preempt + resume vs uninterrupted, per :func:`resume_shapes`
    entry, at a snapshot cadence drawn from ``seed``."""
    rng = random.Random(seed)
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (config, checkers, plan) in resume_shapes().items():
            # Drawn for every shape, so --shape replays the cadence the
            # all-shapes run gave that shape under the same seed.
            every = rng.randrange(2_000, 9_000)
            if shape is not None and name != shape:
                continue
            report, _, _ = diff_resume(
                config, list(mix.benchmarks), every=every,
                snapshot_path=os.path.join(tmp, f"{name}.snap"),
                checkers=checkers, sampling=plan, label=name,
                **_budget(mix, scale, seed),
            )
            print(f"[{name}] snapshot cadence every={every}")
            print(report.format())
            if not report.identical:
                failures.append(f"{name}: resumed run diverged from oracle")
    return _verdict("resume", failures)


def sampling(mix, scale, seed, spec: Optional[str] = None) -> int:
    """The ``figure4`` catalog entry full-detail, then sampled: speedups
    over the baseline within the error bound, wall-clock past the floor."""
    plan = parse_sample_spec(spec) or SamplingPlan()
    print(f"figure4, mix {mix.name}, seed {seed}, {scale.name} scale", flush=True)
    tables, secs = [], []
    for sample_spec in (None, plan.spec()):
        started = time.perf_counter()
        tables.append(run_experiment(
            "figure4", scale, [mix], seed=seed, workers=1, sampling=sample_spec
        ).table)
        secs.append(time.perf_counter() - started)
    full, sampled = tables
    failures = [f.describe() for table in tables for f in table.failures.values()]
    if failures:  # no speedup to compare over a failed cell
        return _verdict("sampling", failures)
    baseline, *others = full.configs
    print(f"speedup over {baseline}:")
    print(f"  {'config':8s} {'full':>7s} {'sampled':>8s} {'err':>7s}")
    worst = 0.0
    for name in others:
        full_speedup = full.speedup(name, mix.name, baseline)
        sampled_speedup = sampled.speedup(name, mix.name, baseline)
        err = abs(sampled_speedup / full_speedup - 1.0)
        worst = max(worst, err)
        print(f"  {name:8s} {full_speedup:7.3f} {sampled_speedup:8.3f} {err:7.2%}")
        if err > SAMPLING_MAX_ERR:
            failures.append(f"{name}: speedup error {err:.2%} > {SAMPLING_MAX_ERR:.0%}")
    ratio = secs[0] / secs[1]
    print(
        f"plan {plan.spec()}: full {secs[0]:.2f}s, sampled {secs[1]:.2f}s "
        f"-> {ratio:.2f}x faster (floor {SAMPLING_MIN_SPEEDUP:.1f}x); "
        f"worst speedup error {worst:.2%} (bound {SAMPLING_MAX_ERR:.0%})"
    )
    if ratio < SAMPLING_MIN_SPEEDUP:
        failures.append(f"sampled sweep only {ratio:.2f}x faster than full detail")
    return _verdict("sampling", failures)


def fidelity(scale) -> int:
    """Every catalog claim (``Experiment.expect``) measured at ``scale``
    (smoke: the gate mixes; default: each entry's own) into that column
    of ``FIDELITY.json`` and EXPERIMENTS.md's tables, in the working
    directory.  Fails on a failed cell (writing nothing) or on a row
    outside its band in either column."""
    measured, failures = {}, []
    for experiment in CATALOG.values():
        if not experiment.expect:
            continue
        mixes = None
        if scale.name == "smoke":
            mixes = [
                MIXES[m] for m in claims.GATE_MIXES
                if not experiment.groups or MIXES[m].group in experiment.groups
            ]
        print(f"{experiment.name} ({scale.name} scale)", flush=True)
        result = run_experiment(experiment, scale, mixes)
        failures += [f.describe() for f in result.table.failures.values()]
        measured.update(claims.measure(experiment, result.table))
    if failures:
        return _verdict("fidelity", failures)
    path, doc = Path("FIDELITY.json"), Path("EXPERIMENTS.md")
    columns = claims.loads(path.read_text("utf-8"))[1] if path.exists() else {}
    rows = claims.rows(CATALOG.values(), dict(columns, **{scale.name: measured}))
    path.write_text(claims.dumps(rows), "utf-8")
    if doc.exists():
        doc.write_text(claims.rewrite_tables(doc.read_text("utf-8"), rows), "utf-8")
    return _verdict("fidelity", claims.violations(rows))
