#!/usr/bin/env python3
"""Record the simulator's performance trajectory across PRs.

Runs the hot-path micro-benchmarks (mirroring ``benchmarks/test_microbench.py``)
plus one fixed smoke-scale figure-4 cell (full-detail and sampled), and writes
the measured throughput numbers to ``BENCH_<n>.json`` at the repository root.
When an earlier ``BENCH_<m>.json`` exists the report embeds per-metric
speedups against it, so every PR inherits a perf baseline from the previous
one.  The report also compares against the *best* value each metric ever
reached across all committed baselines, flagging any metric that sits more
than 10% below its historical best — a slow leak across several PRs shows up
here even when each single step stayed under the hard gate.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/bench_trajectory.py            # next label
    PYTHONPATH=src python scripts/bench_trajectory.py --label 2  # force BENCH_2
    PYTHONPATH=src python scripts/bench_trajectory.py --check    # CI: fail on
                                                                 # >30% regression

``--check`` compares against the newest committed baseline without writing a
new file unless ``--out`` is given, and exits non-zero when any metric slowed
down by more than ``--max-regression`` (default 0.30).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import re
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.dram.bank import Bank  # noqa: E402
from repro.dram.refresh import RefreshSchedule  # noqa: E402
from repro.dram.timing import true_3d  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.mshr.conventional import ConventionalMshr  # noqa: E402
from repro.mshr.vbf_mshr import VbfMshr  # noqa: E402
from repro.system.config import config_2d  # noqa: E402
from repro.system.machine import Machine  # noqa: E402
from repro.system.scale import get_scale  # noqa: E402
from repro.workloads.mixes import MIXES  # noqa: E402

#: The fixed figure-4 cell: the 2D baseline on the first high-memory mix.
SMOKE_MIX = "H1"
SMOKE_SEED = 42

BENCH_FILE_RE = re.compile(r"^BENCH_(\d+)\.json$")


# ----------------------------------------------------------------------
# Timing helpers


def best_of(fn, repeats):
    """Run ``fn`` ``repeats`` times; return (best_seconds, last_result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best, result


# ----------------------------------------------------------------------
# Benchmarks


def bench_engine_parallel(events, repeats, chains=32):
    """The tracked engine micro-benchmark: many interleaved delay chains.

    32 self-rescheduling chains with coprime-ish delays (``i % 13 + 1``)
    keep a realistically deep queue — the shape of a multi-core machine
    with many in-flight events per cycle — where the calendar queue's
    O(1) insert beats the heap's O(log n).  A single depth-1 chain (see
    :func:`bench_engine_chain`) degenerates to a one-event queue and
    cannot show that gap.
    """

    def run():
        engine = Engine()
        counter = [0]

        def tick(delay):
            counter[0] += 1
            if counter[0] < events:
                engine.schedule(delay, tick, delay)

        for i in range(chains):
            engine.schedule(i % 13 + 1, tick, i % 13 + 1)
        engine.run()
        return counter[0]

    seconds, fired = best_of(run, repeats)
    assert fired >= events
    return {
        "value": fired / seconds,
        "unit": "events/sec",
        "higher_is_better": True,
        "wall_seconds": seconds,
    }


def bench_engine_chain(events, repeats):
    """Secondary metric: a single self-rescheduling delay-1 chain.

    Queue depth is ~1 throughout, so this isolates fixed per-event
    dispatch overhead rather than queue-discipline costs."""

    def run():
        engine = Engine()
        counter = [0]

        def tick():
            counter[0] += 1
            if counter[0] < events:
                engine.schedule(1, tick)

        engine.schedule(0, tick)
        engine.run()
        return counter[0]

    seconds, fired = best_of(run, repeats)
    assert fired == events
    return {
        "value": events / seconds,
        "unit": "events/sec",
        "higher_is_better": True,
        "wall_seconds": seconds,
    }


def bench_engine_mixed(events, repeats):
    """Interleaved schedule: short delays, cancellations, far-future events.

    Exercises same-cycle FIFO, lazy cancellation, and the far-future
    (refresh-like) path together, so scheduler regressions that the plain
    chain cannot see still show up in the trajectory.
    """

    def run():
        engine = Engine()
        rng = random.Random(1234)
        fired = [0]
        pending = []

        def tick():
            fired[0] += 1
            if fired[0] >= events:
                return
            roll = rng.random()
            if roll < 0.70:
                engine.schedule(rng.randrange(1, 40), tick)
            elif roll < 0.85:
                pending.append(engine.schedule(rng.randrange(1, 200), tick))
                engine.schedule(1, tick)
            elif roll < 0.95 and pending:
                pending.pop(rng.randrange(len(pending))).cancel()
                engine.schedule(1, tick)
            else:
                engine.schedule(rng.randrange(5_000, 50_000), tick)

        engine.schedule(0, tick)
        engine.run()
        return fired[0]

    seconds, fired = best_of(run, repeats)
    return {
        "value": fired / seconds,
        "unit": "events/sec",
        "higher_is_better": True,
        "wall_seconds": seconds,
    }


def _mshr_workload(mshr, operations):
    live = []
    rng = random.Random(7)
    for _ in range(operations):
        if live and (len(live) >= mshr.capacity or rng.random() < 0.5):
            line = live.pop(rng.randrange(len(live)))
            mshr.search(line)
            mshr.deallocate(line)
        else:
            line = rng.randrange(1 << 20) * 64
            found, _ = mshr.search(line)
            if found is None and not mshr.is_full:
                mshr.allocate(line)
                live.append(line)
    return mshr.total_probes


def bench_mshr(factory, operations, repeats):
    def run():
        return _mshr_workload(factory(), operations)

    seconds, probes = best_of(run, repeats)
    assert probes > 0
    return {
        "value": operations / seconds,
        "unit": "ops/sec",
        "higher_is_better": True,
        "wall_seconds": seconds,
    }


def bench_dram_bank(accesses, repeats):
    def run():
        timing = true_3d()
        bank = Bank(timing, RefreshSchedule(timing, phase=10**9), 4)
        now = 0
        rng = random.Random(3)
        for _ in range(accesses):
            data_time, _ = bank.access(now, rng.randrange(64), False)
            now = data_time
        return now

    seconds, _ = best_of(run, repeats)
    return {
        "value": accesses / seconds,
        "unit": "accesses/sec",
        "higher_is_better": True,
        "wall_seconds": seconds,
    }


def bench_host_calibration(repeats):
    """A fixed pure-Python reference loop: measures the *host*, not us.

    BENCH files are recorded on whatever machine happens to run them, so
    raw wall-clock comparisons across baselines conflate simulator
    changes with host/interpreter drift.  This loop touches no simulator
    code — integer arithmetic, dict stores, list churn — so its wall
    time tracks host speed alone.  It is recorded in every BENCH json
    (top-level ``host_calibration``, *outside* the gated metrics) and
    used to print drift-corrected speedups against the baseline.
    """

    def run():
        acc = 0
        table = {}
        scratch = []
        append = scratch.append
        for i in range(200_000):
            acc = (acc * 1103515245 + 12345 + i) % (1 << 31)
            if not i & 7:
                table[acc & 1023] = i
            append(acc & 255)
            if len(scratch) > 512:
                scratch.clear()
        return acc

    seconds, acc = best_of(run, repeats)
    return {
        "seconds": seconds,
        "ops_per_sec": 200_000 / seconds,
        "checksum": acc,
    }


def bench_figure4_smoke(repeats):
    """One full-machine figure-4 cell (2D config, H1 mix) at smoke scale."""
    scale = get_scale("smoke")
    mix = MIXES[SMOKE_MIX]

    def run():
        machine = Machine(
            config_2d(), list(mix.benchmarks), seed=SMOKE_SEED,
            workload_name=mix.name,
        )
        result = machine.run(
            warmup_instructions=scale.warmup_instructions,
            measure_instructions=scale.measure_instructions,
        )
        return result.total_cycles, machine.engine.events_fired

    seconds, (cycles, events) = best_of(run, repeats)
    return {
        "value": seconds,
        "unit": "seconds",
        "higher_is_better": False,
        "wall_seconds": seconds,
        "total_cycles": cycles,
        "events_fired": events,
        "cycles_per_sec": cycles / seconds,
        "events_per_sec": events / seconds,
    }


def bench_trace_gen(items, repeats):
    """Columnar trace production vs the per-item generator (items/sec).

    Consumes the same S.copy-shaped stream both ways: the native
    ``TraceBatch`` producer fills columns in bulk; the per-item path
    yields one ``TraceItem`` per reference.  ``value`` is the columnar
    producer's throughput; ``speedup_vs_scalar`` the ratio.
    """
    from repro.workloads import synthetic as syn

    def run_batched():
        produced = 0
        gen = syn.stream_kernel_batches(
            0, array_bytes=8 * (1 << 20), reads_per_element=1,
            writes_per_element=1, gap=0,
        )
        while produced < items:
            produced += next(gen).length
        return produced

    def run_scalar():
        gen = syn.stream_kernel(
            0, array_bytes=8 * (1 << 20), reads_per_element=1,
            writes_per_element=1, gap=0,
        )
        produced = 0
        for _ in gen:
            produced += 1
            if produced >= items:
                break
        return produced

    batched_seconds, produced = best_of(run_batched, repeats)
    scalar_seconds, _ = best_of(run_scalar, repeats)
    return {
        "value": produced / batched_seconds,
        "unit": "items/sec",
        "higher_is_better": True,
        "wall_seconds": batched_seconds + scalar_seconds,
        "scalar_items_per_sec": items / scalar_seconds,
        "speedup_vs_scalar": scalar_seconds / batched_seconds * (produced / items),
    }


def bench_figure4_rasoff(repeats):
    """Guard metric: RAS seams must stay ~free on the fault-free path.

    Runs the figure-4 smoke cell twice in-process: with ``ras=None``
    (every RAS seam is a never-true attribute branch) and with a
    zero-rate RAS config attached (hooks live, ECC clean).  ``--check``
    fails when the RAS-off run is more than 2% slower than the best
    prior ``figure4_rasoff`` baseline *or* the in-process hook ratio
    exceeds ``RAS_HOOK_BUDGET`` — the dedicated gate that keeps the RAS
    subsystem honest about its "byte-for-byte unchanged when off"
    promise (see docs/ras.md).
    """
    from repro.ras.config import RasConfig

    scale = get_scale("smoke")
    mix = MIXES[SMOKE_MIX]

    def run(config):
        def go():
            machine = Machine(
                config, list(mix.benchmarks), seed=SMOKE_SEED,
                workload_name=mix.name,
            )
            machine.run(
                warmup_instructions=scale.warmup_instructions,
                measure_instructions=scale.measure_instructions,
            )
        return go

    # ecc="none" at zero rates: no capacity tax, no fault draws — the
    # RAS-on run is cycle-identical to RAS-off, so the wall-clock ratio
    # isolates pure hook/bookkeeping cost.
    rasoff = config_2d()
    rason = rasoff.derive(name="2D+ras0", ras=RasConfig(ecc="none"))
    rasoff_seconds, _ = best_of(run(rasoff), repeats)
    rason_seconds, _ = best_of(run(rason), repeats)
    return {
        "value": rasoff_seconds,
        "unit": "seconds",
        "higher_is_better": False,
        "wall_seconds": rasoff_seconds + rason_seconds,
        "rason_seconds": rason_seconds,
        "ras_hook_ratio": rason_seconds / rasoff_seconds,
    }


def bench_figure4_sampled(repeats):
    """The figure-4 cell under the default sampling plan, default scale.

    Sampling only pays off once the run is long enough to amortise its
    per-interval transients (the ``min_intervals`` floor makes a
    smoke-scale sampled run *larger* than the full run), so this metric
    uses the default scale and pairs the sampled run with a full-detail
    run of the same cell: ``speedup_vs_detailed`` is the wall-clock win
    the sampled path delivers.  Accuracy is asserted separately by
    ``scripts/sample_validate.py``.
    """
    from repro.sampling.plan import SamplingPlan

    scale = get_scale("default")
    mix = MIXES[SMOKE_MIX]
    plan = SamplingPlan()

    def run(sampling):
        def go():
            machine = Machine(
                config_2d(), list(mix.benchmarks), seed=SMOKE_SEED,
                workload_name=mix.name,
            )
            if sampling:
                machine.run_sampled(
                    plan,
                    warmup_instructions=scale.warmup_instructions,
                    measure_instructions=scale.measure_instructions,
                )
            else:
                machine.run(
                    warmup_instructions=scale.warmup_instructions,
                    measure_instructions=scale.measure_instructions,
                )
        return go

    detailed_seconds, _ = best_of(run(False), repeats)
    seconds, _ = best_of(run(True), repeats)
    return {
        "value": seconds,
        "unit": "seconds",
        "higher_is_better": False,
        "wall_seconds": seconds,
        "detailed_seconds": detailed_seconds,
        "speedup_vs_detailed": detailed_seconds / seconds,
    }


def bench_snapshot_overhead(repeats):
    """Guard metric: whole-machine checkpointing must stay ~free.

    Preempts a figure-4 cell at its midpoint (the real checkpoint
    shape — nobody resumes a finished cell), then times one capture
    (``Machine.snapshot``: state walk + atomic fsync'd write) and one
    restore (``Machine.resume`` + state application into a fresh
    machine) of that mid-run state.  ``value`` is their combined
    wall-clock as a fraction of the cell's own runtime — the marginal
    cost of one checkpoint/resume cycle.  ``--check`` fails when it
    exceeds ``SNAPSHOT_OVERHEAD_BUDGET`` — the gate that keeps the
    snapshot subsystem honest about "periodic checkpoints are cheap
    enough to leave on" (see docs/snapshot.md).

    The cell is sized to run at least one *default* checkpoint interval
    (``SnapshotPlan().every`` cycles): snapshot cost is dominated by
    fixed work (state walk + fsync), so the meaningful ratio is against
    the shortest cell in which a periodic snapshot ever fires.  The
    plain smoke cell is ~85k cycles — below the default cadence — and
    gating against it would charge the fixed cost to a cadence the
    system never uses.
    """
    import tempfile

    from repro.common.errors import SnapshotPreempted
    from repro.snapshot import SnapshotPlan, preemption
    from repro.snapshot.format import read_snapshot_file

    scale = get_scale("smoke")
    mix = MIXES[SMOKE_MIX]
    measure_instructions = scale.measure_instructions * 3

    def build():
        return Machine(
            config_2d(), list(mix.benchmarks), seed=SMOKE_SEED,
            workload_name=mix.name,
        )

    def run_cell():
        machine = build()
        return machine.run(
            warmup_instructions=scale.warmup_instructions,
            measure_instructions=measure_instructions,
        )

    result = run_cell()
    assert result.total_cycles >= SnapshotPlan(write=False).every, (
        "bench cell is shorter than the default snapshot interval; "
        "grow the measure window"
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.snap")
        # Park a machine mid-run: preempt at the boundary nearest the
        # cell's midpoint, leaving live mid-flight state to checkpoint.
        paused = build()
        preemption.clear()
        preemption.request_preemption()
        try:
            paused.run(
                warmup_instructions=scale.warmup_instructions,
                measure_instructions=measure_instructions,
                snapshot=SnapshotPlan(
                    path=path, every=result.total_cycles // 2,
                    preemptible=True,
                ),
            )
        except SnapshotPreempted:
            pass
        else:
            raise AssertionError("cell finished before its midpoint boundary")
        finally:
            preemption.clear()

        # A trace cursor only restores into a fresh machine, so the
        # timed restore must rebuild one — but construction is paid by
        # any run, resumed or not, so its separately-measured cost is
        # subtracted back out.
        def run_restore():
            fresh = build()
            fresh.resume(path)
            fresh._apply_restore()
            return fresh.engine.now

        # Interleave the arms: the gated value is a ratio, so cell and
        # checkpoint timings must see the same host conditions or a load
        # spike on one side skews it.
        best = {"cell": float("inf"), "capture": float("inf"),
                "build": float("inf"), "restore_total": float("inf")}
        resumed_cycle = None
        for _ in range(repeats):
            for key, fn in (
                ("cell", run_cell),
                ("capture", lambda: paused.snapshot(path)),
                ("build", build),
                ("restore_total", run_restore),
            ):
                # The machines earlier arms dropped are cyclic garbage;
                # reclaim them here, or a ~20 ms full collection lands in
                # whichever arm the allocation count happens to pick.
                gc.collect()
                start = time.perf_counter()
                out = fn()
                elapsed = time.perf_counter() - start
                if elapsed < best[key]:
                    best[key] = elapsed
                if key == "restore_total":
                    resumed_cycle = out
        cell_seconds = best["cell"]
        capture_seconds = best["capture"]
        restore_seconds = max(best["restore_total"] - best["build"], 0.0)
        snapshot_bytes = os.path.getsize(path)
        header, _tree = read_snapshot_file(path)
        capture_cycle = header["meta"]["cycle"]
        assert 0 < capture_cycle < result.total_cycles
    assert resumed_cycle == capture_cycle, "restore did not land on capture"
    return {
        "value": (capture_seconds + restore_seconds) / cell_seconds,
        "unit": "fraction_of_cell",
        "higher_is_better": False,
        "wall_seconds": cell_seconds + capture_seconds + restore_seconds,
        "cell_seconds": cell_seconds,
        "capture_seconds": capture_seconds,
        "restore_seconds": restore_seconds,
        "capture_cycle": capture_cycle,
        "total_cycles": result.total_cycles,
        "snapshot_bytes": snapshot_bytes,
    }


def run_suite(quick):
    chain_events = 20_000 if quick else 100_000
    ops = 2_000 if quick else 5_000
    repeats = 2 if quick else 3
    return {
        "engine_microbench": bench_engine_parallel(chain_events, repeats + 1),
        "engine_chain": bench_engine_chain(chain_events, repeats + 1),
        "engine_mixed": bench_engine_mixed(chain_events, repeats),
        "mshr_vbf": bench_mshr(lambda: VbfMshr(32), ops, repeats),
        "mshr_conventional": bench_mshr(lambda: ConventionalMshr(32), ops, repeats),
        "dram_bank": bench_dram_bank(ops, repeats),
        "trace_gen": bench_trace_gen(200_000 if quick else 1_000_000, repeats),
        "figure4_smoke": bench_figure4_smoke(1 if quick else 2),
        "figure4_rasoff": bench_figure4_rasoff(2 if quick else 3),
        "figure4_sampled": bench_figure4_sampled(1 if quick else 2),
        "snapshot_overhead": bench_snapshot_overhead(2 if quick else 3),
    }


#: Tolerated zero-rate-RAS-on vs RAS-off wall-clock ratio (the hook cost
#: itself is branch-predictable attribute checks; 2% covers timer noise).
RAS_HOOK_BUDGET = 1.02

#: Ceiling on one checkpoint + one restore as a fraction of the smoke
#: cell's runtime (an in-process ratio, immune to host drift).
SNAPSHOT_OVERHEAD_BUDGET = 0.05


# ----------------------------------------------------------------------
# Baselines and comparison


def existing_baselines():
    found = {}
    for path in REPO_ROOT.iterdir():
        match = BENCH_FILE_RE.match(path.name)
        if match:
            found[int(match.group(1))] = path
    return found


def compare(metrics, baseline_metrics):
    """Per-metric speedups of ``metrics`` over ``baseline_metrics``.

    Speedup > 1.0 always means "got faster", regardless of metric polarity.
    """
    speedups = {}
    for name, metric in metrics.items():
        old = baseline_metrics.get(name)
        if old is None or not old.get("value"):
            continue
        if metric.get("higher_is_better", True):
            speedups[name] = metric["value"] / old["value"]
        else:
            speedups[name] = old["value"] / metric["value"]
    return speedups


def best_prior_metrics(baselines, label):
    """Per-metric best value across every ``BENCH_<m>.json`` with m < label.

    Returns ``{name: {"value", "higher_is_better", "source"}}`` where
    ``source`` names the baseline file that holds the record.
    """
    best = {}
    for n in sorted(n for n in baselines if n < label):
        data = json.loads(baselines[n].read_text())
        for name, metric in data.get("metrics", {}).items():
            value = metric.get("value")
            if not value:
                continue
            hib = metric.get("higher_is_better", True)
            cur = best.get(name)
            better = cur is None or (
                value > cur["value"] if hib else value < cur["value"]
            )
            if better:
                best[name] = {
                    "value": value,
                    "higher_is_better": hib,
                    "source": baselines[n].name,
                }
    return best


def git_revision():
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", type=int, default=None,
                        help="n for BENCH_<n>.json (default: next free)")
    parser.add_argument("--out", type=Path, default=None,
                        help="explicit output path (overrides --label)")
    parser.add_argument("--compare-to", type=Path, default=None,
                        help="baseline file (default: newest BENCH_<m>.json "
                             "with m < label)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced iteration counts (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on regression beyond "
                             "--max-regression; does not write unless --out")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="tolerated slowdown fraction in --check mode")
    args = parser.parse_args(argv)

    baselines = existing_baselines()
    label = args.label
    if label is None:
        label = (max(baselines) + 1) if baselines else 1

    baseline_path = args.compare_to
    if baseline_path is None:
        earlier = [n for n in baselines if n < label]
        if earlier:
            baseline_path = baselines[max(earlier)]

    print(f"benchmarking ({'quick' if args.quick else 'full'}) ...",
          flush=True)
    metrics = run_suite(args.quick)
    for name, metric in sorted(metrics.items()):
        print(f"  {name:24s} {metric['value']:>14.1f} {metric['unit']}")
    host = bench_host_calibration(2 if args.quick else 3)
    print(f"  {'host_calibration':24s} {host['seconds']:>14.4f} seconds "
          "(reference loop, not gated)")

    report = {
        "schema": 1,
        "label": label,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git": git_revision(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": args.quick,
        "host_calibration": host,
        "metrics": metrics,
    }

    failed = []
    if baseline_path is not None and baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
        speedups = compare(metrics, baseline.get("metrics", {}))
        report["baseline"] = {
            "file": baseline_path.name,
            "label": baseline.get("label"),
            "speedups": speedups,
        }
        print(f"vs {baseline_path.name}:")
        floor = 1.0 - args.max_regression
        for name, speedup in sorted(speedups.items()):
            flag = ""
            if speedup < floor:
                failed.append((name, speedup))
                flag = "  <-- REGRESSION"
            print(f"  {name:24s} {speedup:6.2f}x{flag}")
        base_host = baseline.get("host_calibration", {}).get("seconds")
        if base_host:
            # drift > 1: this host is faster than the baseline's host
            # was, and raw speedups are inflated by exactly that factor.
            drift = base_host / host["seconds"]
            corrected = {n: s / drift for n, s in speedups.items()}
            report["baseline"]["host_drift"] = drift
            report["baseline"]["corrected_speedups"] = corrected
            print(
                f"host drift vs {baseline_path.name}: this host is "
                f"{drift:.2f}x the baseline host "
                f"({base_host:.4f}s -> {host['seconds']:.4f}s reference loop)"
            )
            print("drift-corrected speedups (informational, not gated):")
            for name, speedup in sorted(corrected.items()):
                print(f"  {name:24s} {speedup:6.2f}x")
    elif args.check:
        print("no baseline found; nothing to check against")

    best = best_prior_metrics(baselines, label)
    if best:
        best_speedups = compare(metrics, best)
        flagged = sorted(n for n, s in best_speedups.items() if s < 0.90)
        report["best_prior"] = {
            "speedups": best_speedups,
            "sources": {n: best[n]["source"] for n in best_speedups},
            "flagged": flagged,
        }
        print("vs best prior (across all committed baselines):")
        for name, speedup in sorted(best_speedups.items()):
            flag = ""
            if speedup < 0.90:
                flag = f"  <-- >10% below best ({best[name]['source']})"
            print(f"  {name:24s} {speedup:6.2f}x{flag}")

    out = args.out
    if out is None and not args.check:
        out = REPO_ROOT / f"BENCH_{label}.json"
    if out is not None:
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")

    rasoff = metrics.get("figure4_rasoff", {})
    hook_ratio = rasoff.get("ras_hook_ratio")
    if hook_ratio is not None:
        over = hook_ratio > RAS_HOOK_BUDGET
        print(
            f"RAS hook cost: {hook_ratio:.3f}x "
            f"(budget {RAS_HOOK_BUDGET:.2f}x)"
            + ("  <-- OVER BUDGET" if over else "")
        )
        if args.check and over:
            print(
                f"FAIL: zero-rate RAS-on run is {hook_ratio:.3f}x the "
                "RAS-off run; hook budget is "
                f"{RAS_HOOK_BUDGET:.2f}x"
            )
            return 1

    snap_ratio = metrics.get("snapshot_overhead", {}).get("value")
    if snap_ratio is not None:
        over = snap_ratio > SNAPSHOT_OVERHEAD_BUDGET
        print(
            f"snapshot overhead: {snap_ratio:.3f} of cell runtime "
            f"(budget {SNAPSHOT_OVERHEAD_BUDGET:.2f})"
            + ("  <-- OVER BUDGET" if over else "")
        )
        if args.check and over:
            print(
                f"FAIL: one checkpoint + restore costs {snap_ratio:.3f} of "
                "the smoke cell's runtime; budget is "
                f"{SNAPSHOT_OVERHEAD_BUDGET:.2f}"
            )
            return 1

    if args.check and failed:
        names = ", ".join(f"{n} ({s:.2f}x)" for n, s in failed)
        print(f"FAIL: regression beyond {args.max_regression:.0%}: {names}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
