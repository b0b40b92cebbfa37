#!/usr/bin/env python3
"""Chaos validation for the resilient sweep service.

Runs one reference sweep, then replays the same sweep under every
service-layer fault the chaos harness can throw — SIGKILLed workers,
stalled heartbeats, corrupted and truncated cache entries, and a
service process killed mid-sweep and restarted — asserting after each
scenario that the final results are **bit-identical** to the reference
(and that the cache/journal telemetry shows the fault actually fired
and was handled, not silently missed).

    PYTHONPATH=src python scripts/service_validate.py --smoke

``--smoke`` uses a tiny instruction budget for CI; the default uses the
standard smoke scale (a few minutes).
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.common.units import MIB
from repro.experiments import faults
from repro.experiments.faults import CRASH_EXITCODE, FaultSpec, encode_faults
from repro.service import ServicePolicy, SweepService, SweepSpec
from repro.service.chaos import (
    cache_entry_paths,
    corrupt_cache_entry,
    result_fingerprint,
    truncate_cache_entry,
)
from repro.system.config import config_3d_fast
from repro.system.scale import SMOKE, ExperimentScale
from repro.workloads.mixes import MIXES

TINY = ExperimentScale("tiny", 300, 1000)

#: Child process that runs the sweep until the crash-service fault
#: kills it (exit code CRASH_EXITCODE via the injected crash).
_CRASH_CHILD = """
import os
import sys
from repro.common.errors import InjectedServiceCrash
from repro.experiments.faults import CRASH_EXITCODE
from repro.service import SweepService
from scripts_service_validate_spec import make_spec, make_policy
# One worker: cells journal in submission order, so the crash-service
# fault on the second cell interrupts deterministically mid-sweep.
service = SweepService(sys.argv[1], make_policy(sys.argv[2], workers=1))
job_id = service.submit(make_spec(sys.argv[2]))
print(job_id, flush=True)
try:
    service.process()
except InjectedServiceCrash:
    os._exit(CRASH_EXITCODE)  # die abruptly: no close(), no flush
"""


def make_spec(scale_name: str) -> SweepSpec:
    scale = TINY if scale_name == "tiny" else SMOKE
    configs = tuple(
        config_3d_fast().derive(
            name=name, l2_size=1 * MIB, l2_assoc=16, dram_capacity=64 * MIB,
            **extra,
        )
        for name, extra in (("base", {}), ("narrow", {"memory_bus": "tsv8"}))
    )
    return SweepSpec(
        configs=configs,
        mixes=(MIXES["M1"], MIXES["M3"]),
        scale=scale,
    )


def make_policy(scale_name: str, workers: int = 2) -> ServicePolicy:
    return ServicePolicy(
        workers=workers,
        heartbeat_interval=0.05,
        heartbeat_timeout=2.0 if scale_name == "tiny" else 10.0,
        retries=1,
        backoff_base=0.01,
        backoff_max=0.05,
    )


class Harness:
    def __init__(self) -> None:
        self.checks = []

    def check(self, ok: bool, message: str) -> None:
        self.checks.append((ok, message))
        if not ok:
            print(f"FAIL: {message}", file=sys.stderr)

    def failed(self) -> int:
        return sum(1 for ok, _ in self.checks if not ok)


def run_sweep(root: Path, spec: SweepSpec, policy: ServicePolicy):
    """One submit+process on a fresh service over ``root``."""
    with SweepService(root, policy) as service:
        job_id = service.submit(spec)
        service.process()
        return service.result(job_id), service.stats()


def scenario_cache_determinism(h, workdir, spec, policy, reference):
    """Resubmission is served 100% from cache with zero simulations."""
    root = workdir / "reference"
    result, stats = run_sweep(root, spec, policy)
    h.check(
        set(result.provenance.values()) == {"cache"},
        f"resubmit should be all-cache, got {set(result.provenance.values())}",
    )
    h.check(
        stats["service"]["cells_simulated"] == 0,
        f"resubmit ran {stats['service']['cells_simulated']} simulations "
        "(expected 0)",
    )
    h.check(
        result_fingerprint(result) == reference,
        "cache-served sweep is not bit-identical to the reference",
    )


def scenario_cache_corruption(h, workdir, spec, policy, reference):
    """Tampered entries are quarantined and recomputed, never served."""
    root = workdir / "reference"
    with SweepService(root, policy) as service:
        entries = cache_entry_paths(service.cache)
        h.check(len(entries) == 4, f"expected 4 cache entries, got {len(entries)}")
        corrupt_cache_entry(service.cache)
        truncate_cache_entry(
            service.cache, key=entries[-1].stem if len(entries) > 1 else None
        )
        job_id = service.submit(spec)
        service.process()
        result = service.result(job_id)
        stats = service.stats()
    h.check(
        stats["cache"]["corrupt_quarantined"] == 2,
        f"expected 2 quarantined entries, got "
        f"{stats['cache']['corrupt_quarantined']}",
    )
    h.check(
        stats["service"]["cells_simulated"] == 2,
        f"expected exactly the 2 tampered cells recomputed, got "
        f"{stats['service']['cells_simulated']}",
    )
    quarantined = list((root / "cache" / "quarantine").glob("*.json*"))
    h.check(
        len(quarantined) == 2,
        f"expected 2 files in quarantine, got {len(quarantined)}",
    )
    h.check(
        result_fingerprint(result) == reference,
        "post-corruption sweep is not bit-identical to the reference",
    )


def scenario_kill_worker(h, workdir, spec, policy, reference):
    """A worker SIGKILLed mid-cell is restarted; the cell is retried."""
    faults.install(FaultSpec("kill-worker", "base", "M1", times=1))
    try:
        result, stats = run_sweep(workdir / "killworker", spec, policy)
    finally:
        faults.clear()
    h.check(
        stats["supervisor"]["workers_crashed"] >= 1,
        "kill-worker fault never crashed a worker",
    )
    h.check(result.complete, f"kill-worker sweep degraded: {result.notes}")
    h.check(
        result_fingerprint(result) == reference,
        "kill-worker sweep is not bit-identical to the reference",
    )


def scenario_heartbeat_stall(h, workdir, spec, policy, reference):
    """A silent-but-alive worker is declared hung and recycled.

    The heartbeat thread goes quiet for far longer than the timeout
    while a paired ``slow`` cell fault keeps the simulation genuinely
    running — the supervisor must kill on silence alone, not wait for
    the (alive) cell to finish.
    """
    import dataclasses

    tight = dataclasses.replace(policy, heartbeat_timeout=0.5)
    faults.install(
        FaultSpec("slow", "narrow", "M3", times=1, seconds=3.0),
        FaultSpec("hb-delay", "narrow", "M3", times=1, seconds=30.0),
    )
    try:
        result, stats = run_sweep(workdir / "hbstall", spec, tight)
    finally:
        faults.clear()
    h.check(
        stats["supervisor"]["workers_hung_killed"] >= 1,
        "hb-delay fault never got a worker declared hung",
    )
    h.check(
        stats["supervisor"]["cells_retried"] >= 1,
        "hung worker's cell was not retried",
    )
    h.check(result.complete, f"hb-delay sweep degraded: {result.notes}")
    h.check(
        result_fingerprint(result) == reference,
        "hb-delay sweep is not bit-identical to the reference",
    )


def scenario_service_crash(h, workdir, spec, policy, scale_name, reference):
    """Kill the service process mid-sweep; a restart resumes bit-identically."""
    root = workdir / "crash"
    helper = workdir / "scripts_service_validate_spec.py"
    helper.write_text(
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from service_validate import make_spec, make_policy\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(workdir), env.get("PYTHONPATH", "")])
    )
    env[faults.ENV_VAR] = encode_faults(
        (FaultSpec("crash-service", "base", "M3", times=1),)
    )
    started = time.monotonic()
    out_path = workdir / "crash-child.out"
    err_path = workdir / "crash-child.err"
    # Output goes to files, not pipes: an fd inherited by a worker the
    # abrupt os._exit orphans must not be able to wedge our wait().
    with open(out_path, "w") as out, open(err_path, "w") as err:
        child = subprocess.run(
            [sys.executable, "-c", _CRASH_CHILD, str(root), scale_name],
            env=env, stdout=out, stderr=err, timeout=600,
        )
    stdout = out_path.read_text()
    job_id = stdout.strip().splitlines()[0] if stdout.strip() else ""
    h.check(
        child.returncode == CRASH_EXITCODE,
        f"crash child exited {child.returncode} (expected {CRASH_EXITCODE}); "
        f"stderr: {err_path.read_text()[-500:]}",
    )
    h.check(bool(job_id), "crash child never printed its job id")

    with SweepService(root, policy) as service:  # the "restart"
        job = service.queue.jobs.get(job_id)
        h.check(job is not None, f"restarted service lost job {job_id!r}")
        if job is None:
            return
        h.check(job.recovered, "interrupted job not flagged as recovered")
        done_before = len(job.outcomes)
        h.check(
            0 < done_before < job.spec.cell_count(),
            f"crash should interrupt mid-sweep; {done_before} of "
            f"{job.spec.cell_count()} cells were journaled",
        )
        service.process()
        result = service.result(job_id)
        stats = service.stats()
    h.check(
        stats["service"]["cells_simulated"]
        == spec.cell_count() - done_before,
        "resume re-simulated cells the journal already recorded",
    )
    h.check(result.complete, f"resumed sweep degraded: {result.notes}")
    h.check(
        any("resumed from its journal" in note for note in result.notes),
        f"resumed sweep missing its recovery note: {result.notes}",
    )
    h.check(
        result_fingerprint(result) == reference,
        "crash-and-restarted sweep is not bit-identical to the reference",
    )
    print(
        f"  service crash/restart round trip in "
        f"{time.monotonic() - started:.1f}s "
        f"({done_before} cells survived the crash)"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny instruction budget (CI); default uses the smoke scale",
    )
    args = parser.parse_args()
    scale_name = "tiny" if args.smoke else "smoke"

    spec = make_spec(scale_name)
    policy = make_policy(scale_name)
    h = Harness()

    with tempfile.TemporaryDirectory(prefix="service-validate-") as tmp:
        workdir = Path(tmp)

        print("reference sweep (no faults)...")
        reference_result, stats = run_sweep(workdir / "reference", spec, policy)
        h.check(
            reference_result.complete,
            f"reference sweep degraded: {reference_result.notes}",
        )
        h.check(
            stats["service"]["cells_simulated"] == spec.cell_count(),
            "reference sweep should simulate every cell",
        )
        reference = result_fingerprint(reference_result)

        print("scenario: resubmission determinism (pure cache)...")
        scenario_cache_determinism(h, workdir, spec, policy, reference)
        print("scenario: cache corruption + truncation...")
        scenario_cache_corruption(h, workdir, spec, policy, reference)
        print("scenario: worker SIGKILL mid-cell...")
        scenario_kill_worker(h, workdir, spec, policy, reference)
        print("scenario: heartbeat stall (hung worker)...")
        scenario_heartbeat_stall(h, workdir, spec, policy, reference)
        print("scenario: service crash + restart resume...")
        scenario_service_crash(h, workdir, spec, policy, scale_name, reference)

    failed = h.failed()
    if failed:
        print(f"\nservice validate: {failed} check(s) FAILED", file=sys.stderr)
        return 1
    print(
        f"\nservice validate: all {len(h.checks)} checks passed — results "
        "bit-identical under worker kills, heartbeat stalls, cache "
        "corruption, and service crash/restart"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
