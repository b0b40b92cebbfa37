"""Performance ledger: the repo's benchmark (see README.md beside this file).

Three ways to call it, all from the root of a checkout:

``run.py [--seed 42] [--repeats 3] [--out FILE] [--quick]``
    The ledger: every workload, ``--repeats`` timed units plus one traced
    unit each; prints every metric by name and unit, checks outputs, and
    exits non-zero if any operation failed.

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload for the driver of ``BENCHMARK.json``: the last line of
    standard output is one JSON object with the end-to-end metrics
    (``--trace 0``) or the per-layer metrics (``--trace 1``).

``run.py --compare A.json B.json``
    Judge report B against report A with the bounds the benchmark fixes.

A *unit* is one fresh ``child.py`` process running one workload once at
its frozen instruction budget.  Units run strictly one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from child import HERE, ROOT, WORKLOADS, cells_of
from trace import LAYERS

#: The three host-time metrics every layer gets from the traced unit.
PROFILE_KINDS = ("self_frac", "self_us_per_kinstr", "calls_per_kinstr")

CHILD = os.path.join(HERE, "child.py")

#: A contract run times at least this many units, so that ``setup_s``
#: and the wall-clock are medians and digests are compared across units.
MIN_UNITS = 3
QUICK_SCALE = 0.02
UNIT_TIMEOUT_S = 150.0
#: Absolute allowance on ``fig4_rel_err`` in ``--compare`` (simulated,
#: so it only moves when the model does).
FIG4_ABS_BOUND = 0.01


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_unit(
    workload: str,
    seed: int,
    scale: float = 1.0,
    traced: bool = False,
    extra_env: Optional[Dict[str, str]] = None,
) -> Optional[dict]:
    """Run one child to completion; its record, or None if it crashed.

    The child's environment carries no ``REPRO_*`` variable (checkers,
    fault injection, sampling, scale and parallelism switches would
    change what is measured); ``extra_env`` is how the test suite
    injects a failing cell.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(extra_env or {})
    command = [
        sys.executable, CHILD,
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
    ]
    if traced:
        command.append("--trace")
    try:
        done = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, text=True,
            timeout=UNIT_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        print(f"ledger: {workload} unit timed out", file=sys.stderr)
        return None
    if done.returncode != 0 or not done.stdout.strip():
        print(f"ledger: {workload} unit exited {done.returncode}", file=sys.stderr)
        return None
    return json.loads(done.stdout.splitlines()[-1])


def timed_units(
    workload: str, seed: int, scale: float, units: int, seconds: float = 0.0
) -> List[Optional[dict]]:
    """``units`` untraced units, then more until ``seconds`` are measured."""
    records: List[Optional[dict]] = []
    measured = 0.0
    while len(records) < units or measured < seconds:
        record = run_unit(workload, seed, scale)
        records.append(record)
        if record is None or "wall_s" not in record:
            break  # a unit that cannot run will not run next time either
        measured += record["wall_s"]
    return records


def summarize(
    spec: dict,
    workload: str,
    units: List[Optional[dict]],
    traced_units: Sequence[Optional[dict]] = (),
) -> dict:
    """Fold one workload's unit records into its ledger entry.

    ``traced_units`` holds the traced unit's record when one was run
    (``None`` in either list is a unit that crashed).
    """
    unit_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    cells = cells_of(workload)
    every = [*units, *traced_units]
    traced = traced_units[0] if traced_units else None
    timed = [u for u in units if u is not None and "wall_s" in u]
    reference = next((u["stats_digest"] for u in timed if "stats_digest" in u), None)

    failed, failures = 0, []
    for index, unit in enumerate(every):
        if unit is None:
            failed += cells
            failures.append(f"unit {index}: crashed or timed out")
            continue
        reasons = unit["failures"]
        if not reasons and unit.get("stats_digest") != reference:
            reasons = ["stats_digest differs from the first unit's"]
        failed += min(cells, len(reasons))
        failures += [f"unit {index}: {reason}" for reason in reasons]
    attempted = cells * len(every)

    entry = {
        "units": len(units),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "stats_digest": reference,
        "metrics": {},
        "counts": {},
    }
    metrics = entry["metrics"]

    def put(name: str, values) -> None:
        values = list(values)
        metrics[name] = {
            "value": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "n": len(values),
            "unit": unit_of[name],
        }

    put("failed_frac", [failed / attempted])
    if not timed:
        return entry
    entry["kinstr"] = kinstr = timed[0]["kinstr"]
    put("wall_s_per_kinstr", (u["wall_s"] / kinstr for u in timed))
    put("setup_s", (u["setup_s"] for u in timed))
    put("peak_rss_mb", (u["peak_rss_mb"] for u in timed))
    for name in timed[0]["host"]:
        put(name, (u["host"][name] for u in timed if name in u["host"]))

    counted = next((u for u in timed if "counts" in u), None)
    if counted is not None:
        entry["counts"] = dict(counted["counts"])
        if "fig4_speedup" in counted:
            entry["fig4_speedup"] = counted["fig4_speedup"]

    if traced is not None and "layers" in traced and "wall_s" in traced:
        # The traced unit adds the exact counts only the profile sees
        # (snapshot files written) to the timed unit's.
        entry["counts"] = {**traced.get("counts", {}), **entry["counts"]}
        overhead = traced["wall_s"] / metrics["wall_s_per_kinstr"]["value"] / kinstr
        put("trace_overhead_x", [overhead])
        profiled = sum(layer["self_s"] for layer in traced["layers"].values())
        for name in LAYERS:
            layer = traced["layers"][name]
            values = (
                layer["self_s"] / profiled,
                layer["self_s"] / overhead / kinstr * 1e6,
                layer["calls"] / kinstr,
            )
            for kind, value in zip(PROFILE_KINDS, values):
                put(f"{name}.{kind}", [value])
    for name, value in entry["counts"].items():
        put(name, [value])
    return entry


# ----------------------------------------------------------------------
# The driver's contract: one workload, one JSON line


def contract_run(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> int:
    if trace:
        # One untraced unit gives the counts and the wall-clock the
        # traced unit's slowdown is measured against.
        units = timed_units(workload, seed, 1.0, units=1)
        traced = [run_unit(workload, seed, traced=True)]
    else:
        units = timed_units(workload, seed, 1.0, units=MIN_UNITS, seconds=seconds)
        traced = []
    entry = summarize(spec, workload, units, traced)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in entry["metrics"]]
    if missing or (trace and "trace_overhead_x" not in entry["metrics"]):
        print(f"ledger: no measurement for {workload}: {entry['failures']}",
              file=sys.stderr)
        return 1
    for failure in entry["failures"]:
        print(f"ledger: {workload}: {failure}", file=sys.stderr)
    # A per-layer metric this workload cannot observe (registry counts on
    # fig_sweep, sweep counts on single cells) reads 0.
    result = {
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {
            m["name"]: {
                "value": entry["metrics"].get(m["name"], {"value": 0.0})["value"],
                "unit": m["unit"],
            }
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# The ledger: all workloads, printed and optionally written to a file


def host_calibration_ops_per_s() -> float:
    """A fixed pure-Python loop that touches no simulator code.

    Recorded in every report as a reading of host drift between two
    reports; never used to correct a metric.
    """
    def loop() -> float:
        start = time.perf_counter()
        acc, table, scratch = 0, {}, []
        for i in range(200_000):
            acc = (acc * 1103515245 + 12345 + i) % (1 << 31)
            if not i & 7:
                table[acc & 1023] = i
            scratch.append(acc & 255)
            if len(scratch) > 512:
                scratch.clear()
        return time.perf_counter() - start

    return 200_000 / min(loop() for _ in range(3))


def print_entry(spec: dict, workload: str, entry: dict) -> None:
    metrics = entry["metrics"]
    print(f"\n== {workload}: {entry.get('kinstr', 0):g} kinstr per unit, "
          f"{entry['units']} timed units, "
          f"failed {entry['failed']}/{entry['attempted']} cell-runs")
    for failure in entry["failures"]:
        print(f"  FAILED {failure}")
    print("  end to end (host time, tracing off)      median        min        max  n")
    for m in spec["end_to_end"]:
        stat = metrics.get(m["name"])
        if stat is not None:
            print(f"    {m['name']:24s} {m['unit']:9s} {stat['value']:10.5g} "
                  f"{stat['min']:10.5g} {stat['max']:10.5g} {stat['n']:2d}")
    if "fig4_speedup" in entry:
        print(f"    3D-fast over 2D {entry['fig4_speedup']:.3f}x vs the paper's 2.17x "
              f"(smoke-scale, two-mix; fig4_rel_err {entry['counts']['fig4_rel_err']:.4f})")
    else:
        print("    (no paper reference for this single cell: no error figure)")
    if "trace_overhead_x" in metrics:
        print(f"  host time by layer (traced unit, {metrics['trace_overhead_x']['value']:.2f}x slower)"
              "   self_frac  self_us/kinstr  calls/kinstr")
        for name in LAYERS:
            frac, micros, calls = (
                metrics[f"{name}.{kind}"]["value"] for kind in PROFILE_KINDS
            )
            print(f"    {name:14s} {frac:31.4f} {micros:15.2f} {calls:13.1f}")
    shown = {"failed_frac", "fig4_rel_err", "trace_overhead_x"}  # printed above
    shown |= {f"{layer}.{kind}" for layer in LAYERS for kind in PROFILE_KINDS}
    print("  layer readings (host: median of units; counts: exact)")
    for m in spec["per_layer"]:
        stat = metrics.get(m["name"])
        if stat is not None and m["name"] not in shown:
            kind = "count" if m["name"] in entry["counts"] else "host "
            print(f"    {m['name']:40s} {kind} {stat['value']:14.6g} {m['unit']}")
    print(f"  stats_digest {entry['stats_digest']}")


def ledger_run(spec: dict, seed: int, repeats: int, quick: bool, out: Optional[str]) -> int:
    scale = QUICK_SCALE if quick else 1.0
    report = {
        "schema": 1,
        "quick": quick,
        "seed": seed,
        "python": platform.python_version(),
        "host_calibration_ops_per_s": host_calibration_ops_per_s(),
        "workloads": {},
    }
    for workload in WORKLOADS:
        units = timed_units(workload, seed, scale, units=repeats)
        traced = run_unit(workload, seed, scale, traced=True)
        entry = summarize(spec, workload, units, [traced])
        report["workloads"][workload] = entry
        print_entry(spec, workload, entry)
    print(f"\nhost_calibration_ops_per_s {report['host_calibration_ops_per_s']:.0f} "
          "(informational drift reading)")
    if out:
        with open(out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    failed = sum(entry["failed"] for entry in report["workloads"].values())
    if failed:
        print(f"FAILED: {failed} cell-runs failed")
    return 1 if failed else 0


# ----------------------------------------------------------------------
# --compare


def compare(spec: dict, path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    if a["quick"] or b["quick"]:
        print("refusing to compare: a --quick report measures nothing")
        return 2
    fails = 0

    def verdict(ok: bool) -> str:
        nonlocal fails
        fails += not ok
        return "PASS" if ok else "FAIL"

    print(f"A = {path_a}\nB = {path_b}\nhost_calibration_ops_per_s "
          f"A {a['host_calibration_ops_per_s']:.0f}  B {b['host_calibration_ops_per_s']:.0f} "
          "(informational)")
    for workload in WORKLOADS:
        ea, eb = a["workloads"][workload], b["workloads"][workload]
        print(f"\n== {workload}")
        for m in spec["end_to_end"]:
            va = ea["metrics"][m["name"]]["value"]
            vb = eb["metrics"][m["name"]]["value"]
            worse = (vb / va - 1.0) if m["better"] == "lower" else (1.0 - vb / va)
            print(f"  {m['name']:20s} A {va:10.5g}  B {vb:10.5g} {m['unit']:9s} "
                  f"B/A {vb / va:6.3f}  bound +{m['bound']:.0%}  "
                  f"{verdict(worse <= m['bound'])}")
        fa, fb = ea["metrics"]["failed_frac"]["value"], eb["metrics"]["failed_frac"]["value"]
        print(f"  {'failed_frac':20s} A {fa:10.5g}  B {fb:10.5g}            "
              f"bound no increase  {verdict(fb <= fa)}")
        if "fig4_rel_err" in ea["counts"] and "fig4_rel_err" in eb["counts"]:
            ra, rb = ea["counts"]["fig4_rel_err"], eb["counts"]["fig4_rel_err"]
            print(f"  {'fig4_rel_err':20s} A {ra:10.5g}  B {rb:10.5g}            "
                  f"bound +{FIG4_ABS_BOUND} abs  {verdict(rb <= ra + FIG4_ABS_BOUND)}")
        moved = sorted(
            name for name in set(ea["counts"]) | set(eb["counts"])
            if ea["counts"].get(name) != eb["counts"].get(name)
        )
        print(f"  counts ({len(ea['counts'])})         "
              f"{'identical' if not moved else 'differ: ' + ', '.join(moved)}  "
              f"{verdict(not moved)}")
        same = ea["stats_digest"] == eb["stats_digest"] and ea["stats_digest"]
        print(f"  stats_digest         {'identical' if same else 'differs'}  "
              f"{verdict(bool(same))}")
    print(f"\n{'FAIL' if fails else 'PASS'}: {fails} check(s) failed")
    return 1 if fails else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=42,
                        help="feeds Machine(seed=) / run_matrix(seed=) only")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed units per workload (ledger)")
    parser.add_argument("--out", metavar="FILE", help="write the ledger report here")
    parser.add_argument("--quick", action="store_true",
                        help=f"budgets x {QUICK_SCALE}: drives the pipeline, measures nothing")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload and print one JSON line")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="with --workload: time units until this much is measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    spec = load_spec()
    if args.compare:
        return compare(spec, *args.compare)
    if args.workload:
        return contract_run(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    return ledger_run(spec, args.seed, args.repeats, args.quick, args.out)


if __name__ == "__main__":
    sys.exit(main())
