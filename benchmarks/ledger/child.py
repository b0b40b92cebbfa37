"""One unit of the ledger: set one workload up, run it once, print a record.

``run.py`` starts this file as a fresh process per (workload, repeat), so
set-up time and peak memory belong to that workload alone.  The last
line of standard output is one JSON object; exit status is non-zero only
when the simulator cannot be set up at all (a failed cell-run is a
counted failure, not a crash).

Everything is measured from outside the simulator, through its public
entry points.  Host time is what the simulator costs; simulated time is
what the modelled machine would take; every number says which.
"""

import time

_CHILD_START = time.perf_counter()  # before any simulator import

import argparse
import dataclasses
import hashlib
import json
import os
import re
import resource
import statistics
import sys
import tempfile
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".ledger_tmp")  # git-ignored

#: Per-core (warm-up, measure) instruction quotas, frozen.  They are the
#: issue's prototype budgets times one common factor of 0.5, chosen so a
#: unit takes 5-8 s on the 2-core reference host and a contract run
#: (three or more units) fits its time cap.  The warm-up quota of the
#: long runs stays at the repo's DEFAULT 10 k; ``fig_sweep`` keeps the
#: SMOKE quotas and halves its cell count instead (the two Figure 4
#: mixes x six configs), so its cells are the cells a user sweeps.
QUOTAS = {
    "stream_2d": (10_000, 55_000),
    "hits_3dfast": (10_000, 495_000),
    "mha_quadmc": (10_000, 95_000),
    "fig_sweep": (2_000, 8_000),
}
WORKLOADS = tuple(QUOTAS)
SWEEP_MIXES = ("H2", "VH3")
SWEEP_CONFIGS = 6
SNAPSHOT_EVERY = 50_000  # cycles: 1-3 checkpoints per sweep cell
CORES = 4
#: The paper's Figure 4 headline: 3D-fast over 2D, GM over H and VH mixes.
PAPER_FIG4_SPEEDUP = 2.17


def cells_of(workload: str) -> int:
    return SWEEP_CONFIGS * len(SWEEP_MIXES) if workload == "fig_sweep" else 1


def scaled_quotas(workload: str, scale: float):
    warm, measure = QUOTAS[workload]
    return max(1, round(warm * scale)), max(1, round(measure * scale))


def kinstr_of(workload: str, scale: float) -> float:
    """Requested budget: cells x cores x (warm-up + measure) / 1000."""
    warm, measure = scaled_quotas(workload, scale)
    return cells_of(workload) * CORES * (warm + measure) / 1000.0


def clocked(fn, traced: bool):
    """(result, host wall seconds, profile stats or None) of ``fn()``."""
    if traced:
        import trace  # benchmarks/ledger/trace.py, beside this file

        return trace.profiled(fn)
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start, None


def cell_breaches(result, measure: int):
    """Output checks on one finished cell; returns the reasons it fails."""
    reasons = []
    short = [c.benchmark for c in result.cores if c.instructions < measure]
    if short:
        reasons.append(f"cores short of quota: {short}")
    if not result.hmipc > 0:
        reasons.append(f"hmipc {result.hmipc!r} not positive")
    demand = sum(
        value
        for key, value in result.l2_stats.items()
        if key.endswith("_demand_misses")
    )
    if demand > result.l2_stats.get("misses", 0.0):
        reasons.append("per-core L2 demand misses exceed L2 misses")
    return reasons


def result_tree(result) -> dict:
    tree = dataclasses.asdict(result)
    tree["hmipc"] = result.hmipc
    return tree


def digest_of(tree) -> str:
    """sha256 over canonical JSON (floats round-trip exactly via repr)."""
    text = json.dumps(tree, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def result_counts(results, kinstr: float) -> dict:
    """Simulated-time counts every ``MachineResult`` carries.

    Counters are summed over cells and divided by the requested kinstr
    (whole run, warm-up included); rates are averaged over cells.
    """
    l2 = Counter()
    for result in results:
        l2.update(result.l2_stats)
    cores = [core for result in results for core in result.cores]
    demand_misses = sum(
        value for key, value in l2.items() if key.endswith("_demand_misses")
    )
    fused = sum(r.extra.get("fused_mc_issues", 0.0) for r in results)
    pumps = sum(r.extra.get("fused_mc_scalar_pumps", 0.0) for r in results)
    mean = statistics.fmean
    return {
        "system.hmipc": statistics.geometric_mean(r.hmipc for r in results),
        "system.sim_cycles": sum(r.total_cycles for r in results),
        "cpu.avg_load_latency_cyc": mean(c.avg_load_latency for c in cores),
        "cache.l2_accesses_per_kinstr": l2["accesses"] / kinstr,
        "cache.l2_mpki": demand_misses / kinstr,
        # Useful / filled, not / issued: L1-initiated prefetches fill the
        # L2 without counting as L2-issued, so that ratio can exceed 1.
        "cache.l2_prefetch_useful_frac": ratio(
            l2["prefetch_useful"], l2["prefetch_fills"]
        ),
        "cache.l2_mrq_full_retries_per_kinstr": l2["mrq_full_retries"] / kinstr,
        "mshr.probes_per_access": mean(r.mshr_avg_probes for r in results),
        "mshr.merges_per_kinstr": l2["mshr_merges"] / kinstr,
        "mshr.stall_cyc_per_kinstr": l2["mshr_stall_cycles"] / kinstr,
        "memctrl.fused_issue_frac": ratio(fused, fused + pumps),
        "dram.row_hit_rate": mean(r.dram_row_hit_rate for r in results),
        "dram.nj_per_access": mean(
            r.extra["dram_dynamic_nj_per_access"] for r in results
        ),
    }


def machine_counts(machine, kinstr: float) -> dict:
    """Counts only a live ``Machine`` exposes (registry, engine, cores)."""
    dump = machine.registry.dump()

    def total(pattern: str, key: str) -> float:
        return sum(
            group.get(key, 0.0)
            for name, group in dump.items()
            if re.fullmatch(pattern, name)
        )

    core, l1, mc = r"core\d+", r"l1\.core\d+", r"mc\d+"
    bus, bank = r"mc\d+\.bus", r"dram\.rank\d+\.bank\d+"
    buses = sum(1 for name in dump if re.fullmatch(bus, name))
    accepts = total(mc, "mrq_accepts")
    rejections = total(mc, "mrq_rejections")
    return {
        "engine.events_per_kinstr": machine.engine.events_fired / kinstr,
        "system.committed_kinstr": sum(c.committed for c in machine.cores) / 1000.0,
        "cpu.dispatched_refs_per_kinstr": total(core, "dispatched_refs") / kinstr,
        "cpu.rob_stalls_per_kinstr": total(core, "rob_stalls") / kinstr,
        "cpu.l1_mshr_stalls_per_kinstr": total(core, "l1_mshr_stalls") / kinstr,
        "cpu.tlb_walk_cyc_per_kinstr": total(core, "tlb_walk_cycles") / kinstr,
        "cache.l1_hit_rate": ratio(total(l1, "hits"), total(l1, "accesses")),
        "cache.l1_writebacks_per_kinstr": total(l1, "writebacks") / kinstr,
        "memctrl.issued_per_kinstr": total(mc, "issued") / kinstr,
        "memctrl.queue_wait_cyc_per_req": ratio(
            total(mc, "queue_wait_cycles"), total(mc, "issued")
        ),
        "memctrl.mrq_reject_frac": ratio(rejections, accepts + rejections),
        "memctrl.mrq_avg_occupancy": ratio(total(mc, "mrq_occupancy_sum"), accepts),
        "dram.refresh_row_closures_per_kinstr": total(
            bank, "refresh_row_closures"
        ) / kinstr,
        "interconnect.bus_util": ratio(
            total(bus, "busy_cycles"), buses * machine.engine.now
        ),
        "interconnect.bus_queue_cyc_per_transfer": ratio(
            total(bus, "queue_cycles"), total(bus, "transfers")
        ),
        "interconnect.bytes_per_kinstr": total(bus, "bytes") / kinstr,
    }


def setup_record(imported: float, ready: float) -> dict:
    """Host set-up cost: child start -> imports done -> ready to simulate."""
    return {
        "setup_s": ready - _CHILD_START,
        "host": {
            "system.import_s": imported - _CHILD_START,
            "system.build_s": ready - imported,
        },
    }


def run_single(workload: str, seed: int, quotas, kinstr: float, traced: bool):
    """One long single-cell run through ``Machine`` / ``Machine.run``."""
    import repro

    imported = time.perf_counter()
    if workload == "stream_2d":
        config, mix = repro.config_2d(), "VH1"
    elif workload == "hits_3dfast":
        config, mix = repro.config_3d_fast(), "M1"
    else:
        config = repro.with_mshr(
            repro.config_quad_mc(), "vbf", scale=8, dynamic=True
        )
        mix = "H1"
    machine = repro.Machine(
        config, repro.MIXES[mix].benchmarks, seed=seed, workload_name=mix
    )
    record = setup_record(imported, time.perf_counter())
    try:
        result, wall, stats = clocked(lambda: machine.run(*quotas), traced)
    except Exception as exc:  # a failed cell-run is counted, not a crash
        record["failures"] = [f"{mix}: {type(exc).__name__}: {exc}"]
        return record, None
    record["wall_s"] = wall
    reasons = cell_breaches(result, quotas[1])
    record["failures"] = [f"{mix}: " + "; ".join(reasons)] if reasons else []
    if not record["failures"]:
        events = machine.engine.events_fired
        record["host"]["engine.wall_us_per_event"] = wall * 1e6 / events
        record["counts"] = {
            **result_counts([result], kinstr),
            **machine_counts(machine, kinstr),
        }
        record["stats_digest"] = digest_of(
            {
                "result": result_tree(result),
                "registry": machine.registry.dump(),
                "events_fired": events,
            }
        )
    return record, stats


def run_sweep(seed: int, quotas, kinstr: float, traced: bool, tmp: str):
    """Many short cold cells through ``run_matrix`` with journal + snapshots."""
    from repro.experiments import RunPolicy, run_matrix
    from repro.system import (
        ExperimentScale, config_2d, config_3d, config_3d_fast, config_3d_wide,
        config_dual_mc,
    )
    from repro.system.config import config_l4_cache
    from repro.workloads import MIXES

    imported = time.perf_counter()
    configs = [
        config_2d(), config_3d(), config_3d_wide(), config_3d_fast(),
        config_dual_mc(), config_l4_cache(),
    ]
    mixes = [MIXES[name] for name in SWEEP_MIXES]
    scale = ExperimentScale("ledger", *quotas)  # SMOKE's quotas at full scale
    journal = os.path.join(tmp, "journal.jsonl")
    policy = RunPolicy(journal_path=journal, snapshot_every=SNAPSHOT_EVERY)
    record = setup_record(imported, time.perf_counter())

    def sweep():
        return run_matrix(configs, mixes, scale, seed, workers=1, policy=policy)

    try:
        table, wall, stats = clocked(sweep, traced)
    except Exception as exc:
        record["failures"] = [f"run_matrix: {type(exc).__name__}: {exc}"]
        return record, None
    record["wall_s"] = wall
    failures = [f.describe() for f in table.failures.values()]
    good = {}
    for config in configs:
        for mix in mixes:
            key = (config.name, mix.name)
            result = table.result_or_none(*key)
            if result is None:
                if key not in table.failures:
                    failures.append(f"cell {key} missing from the table")
                continue
            reasons = cell_breaches(result, quotas[1])
            if reasons:
                failures.append(f"cell {key}: " + "; ".join(reasons))
            else:
                good[key] = result
    journal_bytes = os.path.getsize(journal)
    with open(journal) as handle:
        kinds = Counter(json.loads(line)["kind"] for line in handle)
    if kinds["header"] != 1 or kinds["result"] != len(table.cells):
        failures.append(f"journal records {dict(kinds)} do not match the table")
    record["failures"] = failures
    record["host"]["experiments.cells_per_s"] = len(table.cells) / wall
    if good:
        l4 = [r.extra["l4_hit_rate"] for r in good.values() if "l4_hit_rate" in r.extra]
        record["counts"] = {
            **result_counts(list(good.values()), kinstr),
            "experiments.journal_bytes": journal_bytes,
            "stack3d.l4_hit_rate": statistics.fmean(l4) if l4 else 0.0,
        }
        record["stats_digest"] = digest_of(
            {f"{c}|{m}": result_tree(r) for (c, m), r in good.items()}
        )
    if not failures:
        speedup = table.gm_speedup("3D-fast", "2D")
        record["fig4_speedup"] = speedup
        record["counts"]["fig4_rel_err"] = (
            abs(speedup - PAPER_FIG4_SPEEDUP) / PAPER_FIG4_SPEEDUP
        )
    return record, stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every instruction quota")
    parser.add_argument("--trace", action="store_true",
                        help="run under cProfile and fold self time by layer")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"ledger: no simulator at {SRC}/repro; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    quotas = scaled_quotas(args.workload, args.scale)
    kinstr = kinstr_of(args.workload, args.scale)
    if args.workload == "fig_sweep":
        # Journal and snapshots live and die under a temporary directory
        # inside the checkout (the benchmark writes nowhere else).
        os.makedirs(SCRATCH, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="sweep-", dir=SCRATCH) as tmp:
            record, stats = run_sweep(args.seed, quotas, kinstr, args.trace, tmp)
    else:
        record, stats = run_single(
            args.workload, args.seed, quotas, kinstr, args.trace
        )
    if stats is not None:
        import trace

        record["layers"] = trace.fold(stats, os.path.join(SRC, "repro"))
        if "counts" in record and args.workload == "fig_sweep":
            record["counts"]["snapshot.files_written"] = trace.calls_of(
                stats, "write_snapshot_file"
            )
    record.update(
        workload=args.workload,
        seed=args.seed,
        kinstr=kinstr,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
