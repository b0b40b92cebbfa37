#!/usr/bin/env python3
"""Snapshot/restore validation harness (CLI for :mod:`repro.snapshot`).

Modes:

* ``--smoke`` (CI): the checkpoint/restore acceptance gate —
  1. for every snapshot-relevant machine shape (plain, checker-enabled,
     sampled, miss-heavy, L4 cache mode, RAS-on) a run is **preempted
     at a randomized snapshot boundary**, resumed
     from the on-disk snapshot in a fresh ``Machine``, and the stitched
     run (pre-preemption transcript + post-resume transcript, final
     stat tables, final result) must be **bit-identical** to an
     uninterrupted oracle; divergences are localized to the first
     differing DRAM command by :func:`repro.validate.diff.diff_runs`;
  2. a written snapshot truncated at **every byte offset** — and with
     any single byte flipped — must be *refused*
     (:class:`~repro.common.errors.SnapshotError`), never silently
     restored; the intact file must still restore afterwards;
  3. the sweep-service chaos slice: ``kill-worker`` (SIGKILL
     mid-simulation with periodic snapshots on), ``corrupt-snapshot``
     and ``truncate-snapshot`` faults each drive a supervised sweep
     whose final :func:`~repro.service.chaos.result_fingerprint` must
     equal the undisturbed reference — resume-from-checkpoint and
     refuse-then-restart-from-zero both end bit-identical.

* ``--one CONFIG``: run the preempt/resume differential for a single
  named scenario and print the diff report (debugging aid).

Examples::

    PYTHONPATH=src python scripts/snapshot_validate.py --smoke
    PYTHONPATH=src python scripts/snapshot_validate.py --one sampled --seed 7
"""

import argparse
import dataclasses
import os
import random
import sys
import tempfile

from repro.cli import CONFIGS
from repro.common.errors import SnapshotError, SnapshotPreempted
from repro.common.units import KIB
from repro.ras.config import RasConfig
from repro.sampling.plan import SamplingPlan
from repro.snapshot import SnapshotPlan, preemption
from repro.snapshot.format import read_snapshot_file
from repro.system.config import config_l4_cache
from repro.system.machine import Machine
from repro.system.scale import get_scale
from repro.validate.diff import TracedRun, diff_runs
from repro.validate.hooks import instrument_banks
from repro.validate.transcript import TranscriptRecorder
from repro.workloads.mixes import MIXES


def _scenarios():
    """The machine shapes the snapshot layer must round-trip.

    Every entry is ``(name, config, machine_kwargs, sampling)`` — one
    per subsystem with restore-sensitive state: the plain path, runtime
    checkers, the sampling controller, a saturated MRQ under miss-heavy
    traffic, the L4 stacked-cache mode, and the RAS scrub/fault
    machinery.
    """
    fast = CONFIGS["3d-fast"]()
    return [
        ("plain", fast, {}, None),
        ("checkers", CONFIGS["2d"](), {"checkers": "all"}, None),
        ("sampled", fast, {}, SamplingPlan()),
        (
            "miss-heavy",
            fast.derive(name="3d-fast-mh", l2_size=64 * KIB, l2_assoc=8),
            {},
            None,
        ),
        ("l4-cache", config_l4_cache(base=fast), {}, None),
        (
            "ras-on",
            fast.derive(
                name="3d-fast-ras",
                ras=RasConfig(
                    enabled=True, transient_rate=1e-4, retention_rate=1e-4
                ),
            ),
            {},
            None,
        ),
    ]


def _run(config, benchmarks, *, warmup, measure, seed, workload_name,
         machine_kwargs, sampling, snapshot, resume_from=None, label=""):
    """One traced run, optionally snapshotting and/or resuming.

    Mirrors :func:`repro.validate.diff.run_traced` but threads a
    :class:`~repro.snapshot.SnapshotPlan` (and an optional snapshot to
    resume from) into the machine — the seam ``run_traced`` itself does
    not expose.  Raises :class:`SnapshotPreempted` through to the
    caller so a preempted run's partial transcript stays observable.
    """
    machine = Machine(
        config, benchmarks, seed=seed, workload_name=workload_name,
        **machine_kwargs,
    )
    if resume_from is not None:
        machine.resume(resume_from)
    recorder = TranscriptRecorder()
    instrument_banks(machine, recorder)
    try:
        if sampling is not None:
            result = machine.run_sampled(
                sampling, warmup, measure, snapshot=snapshot
            )
        else:
            result = machine.run(warmup, measure, snapshot=snapshot)
    except SnapshotPreempted as exc:
        exc.records = recorder.records  # partial transcript, for stitching
        raise
    return TracedRun(
        label=label or config.name,
        config_name=config.name,
        workload=machine.workload_name,
        engine_name=type(machine.engine).__name__,
        transcript=recorder.records,
        stats=machine.registry.dump(),
        result=result,
    )


def preempt_resume_differential(name, config, machine_kwargs, sampling,
                                *, scale, seed, every, snap_path):
    """Preempt a run at a snapshot boundary, resume it, diff vs oracle.

    Returns ``(report, oracle, stitched, preempt_cycle)``; ``report``
    diffs the stitched interrupted-then-resumed run against the
    uninterrupted oracle — transcripts and stat tables must both be
    bit-identical, and so must the final :class:`MachineResult`.
    """
    mix = MIXES["H1"]
    common = dict(
        warmup=scale.warmup_instructions,
        measure=scale.measure_instructions,
        seed=seed, workload_name=mix.name,
        machine_kwargs=machine_kwargs, sampling=sampling,
    )
    # Oracle: uninterrupted, but driven in the same chunked cadence as
    # the snapshotting run (write=False), so the only difference under
    # test is the capture/restore round trip itself.
    oracle = _run(
        config, list(mix.benchmarks),
        snapshot=SnapshotPlan(every=every, write=False),
        label=f"{name}/oracle", **common,
    )

    # Victim: identical run, preempted at the first boundary >= the
    # (seed-randomized) cadence; the handler writes the snapshot and
    # raises with the partial transcript attached.
    preemption.clear()
    preemption.request_preemption()
    try:
        _run(
            config, list(mix.benchmarks),
            snapshot=SnapshotPlan(path=snap_path, every=every, preemptible=True),
            label=f"{name}/victim", **common,
        )
    except SnapshotPreempted as exc:
        prefix = exc.records
        preempt_cycle = exc.cycle
    else:
        raise AssertionError(
            f"{name}: run finished before the first snapshot boundary "
            f"(every={every}); preemption never fired"
        )
    finally:
        preemption.clear()

    # Resumed: a *fresh* machine restores the snapshot and finishes.
    resumed = _run(
        config, list(mix.benchmarks),
        snapshot=SnapshotPlan(every=every, write=False),
        resume_from=snap_path, label=f"{name}/resumed", **common,
    )

    # The resumed run's fresh recorder restarts its sequence numbers at
    # zero; rebase them so the stitched transcript numbers commands the
    # way one uninterrupted recorder would have.
    suffix = [
        record._replace(index=record.index + len(prefix))
        for record in resumed.transcript
    ]
    stitched = TracedRun(
        label=f"{name}/preempted+resumed@{preempt_cycle}",
        config_name=resumed.config_name,
        workload=resumed.workload,
        engine_name=resumed.engine_name,
        transcript=list(prefix) + suffix,
        stats=resumed.stats,
        result=resumed.result,
    )
    report = diff_runs(oracle, stitched)
    if dataclasses.asdict(oracle.result) != dataclasses.asdict(stitched.result):
        report.stat_diffs.append(
            ("result", "machine-result", None, None)
        )
    return report, oracle, stitched, preempt_cycle


def check_refusal(snap_path, failures) -> None:
    """Torn and corrupted snapshots must be refused at every offset."""
    with open(snap_path, "rb") as handle:
        data = handle.read()
    size = len(data)

    def _expect_refusal(payload, what):
        with tempfile.NamedTemporaryFile(
            dir=os.path.dirname(snap_path), delete=False
        ) as tmp:
            tmp.write(payload)
            candidate = tmp.name
        try:
            read_snapshot_file(candidate)
        except SnapshotError:
            return True
        except Exception as exc:  # wrong error type is also a failure
            failures.append(
                f"refusal: {what} raised {type(exc).__name__}, "
                "not a SnapshotError"
            )
            return False
        else:
            failures.append(f"refusal: {what} was ACCEPTED")
            return False
        finally:
            os.unlink(candidate)

    refused = sum(
        _expect_refusal(data[:cut], f"truncation at byte {cut}")
        for cut in range(size)
    )
    corrupt = bytearray(data)
    flip_at = size // 2
    corrupt[flip_at] ^= 0xFF
    corrupted_ok = _expect_refusal(
        bytes(corrupt), f"single-byte flip at {flip_at}"
    )
    # The intact file must still restore — the refusals above must come
    # from the damage, not from an unreadable original.
    try:
        read_snapshot_file(snap_path)
    except SnapshotError as exc:
        failures.append(f"refusal: intact snapshot failed to load: {exc}")
        return
    print(
        f"torn/corrupt refusal: {refused}/{size} truncations refused, "
        f"byte-flip {'refused' if corrupted_ok else 'ACCEPTED'}, "
        "intact file restores"
    )


def chaos_slice(seed, failures) -> None:
    """Service chaos: mid-cell kills and snapshot tampering stay bit-identical."""
    from pathlib import Path

    from repro.experiments import faults
    from repro.service.chaos import result_fingerprint
    from repro.service.queue import SweepSpec
    from repro.service.service import SweepService
    from repro.service.supervisor import ServicePolicy
    from repro.system.scale import ExperimentScale

    # Long enough (~1s wall) that a 0.3s kill timer reliably fires
    # mid-simulation, with a snapshot cadence that guarantees several
    # checkpoints before the kill.
    scale = ExperimentScale("chaos", 2_000, 80_000)
    config = CONFIGS["3d-fast"]()
    spec_kwargs = dict(
        configs=[config], mixes=[MIXES["M1"]], scale=scale, seed=seed
    )
    policy = ServicePolicy(
        workers=1, retries=2, backoff_base=0.01, backoff_max=0.05,
        snapshot_every=10_000,
    )

    def _sweep(fault_specs):
        faults.install(*fault_specs)
        try:
            with tempfile.TemporaryDirectory() as root:
                with SweepService(root, policy) as service:
                    job_id = service.submit(SweepSpec(**spec_kwargs))
                    service.process(job_id)
                    result = service.result(job_id)
                    stats = service.stats()
                # Sidecars mark cells that successfully resumed from a
                # checkpoint (written next to the consumed .snap file).
                sidecars = len(
                    list(Path(root).glob("snapshots/*.resumed.json"))
                )
                return result_fingerprint(result), result, stats, sidecars
        finally:
            faults.clear()

    reference, ref_result, _, _ = _sweep([])
    if not ref_result.complete:
        failures.append("chaos: undisturbed reference sweep incomplete")
        return
    kill = faults.FaultSpec("kill-worker", seconds=0.3)
    # corrupt/truncate tamper with an *existing* checkpoint before the
    # resume attempt reads it, so each needs the mid-cell kill of
    # attempt 1 to leave that checkpoint behind.
    trials = [
        ("kill-worker", [kill], True),
        (
            "corrupt-snapshot",
            [kill, faults.FaultSpec("corrupt-snapshot", times=-1)],
            False,
        ),
        (
            "truncate-snapshot",
            [kill, faults.FaultSpec("truncate-snapshot", times=-1)],
            False,
        ),
    ]
    for name, fault_specs, expect_resume in trials:
        fingerprint, result, stats, sidecars = _sweep(fault_specs)
        crashed = stats["supervisor"].get("workers_crashed", 0)
        retried = stats["supervisor"].get("cells_retried", 0)
        # The kill must really have fired mid-cell, and the retry must
        # have resumed from the checkpoint (kill trial: sidecar written)
        # or refused the damaged one and restarted from zero
        # (tamper trials: no sidecar).
        fired = crashed > 0 and retried > 0 and (
            sidecars > 0 if expect_resume else sidecars == 0
        )
        identical = fingerprint == reference and result.complete
        print(
            f"chaos {name}: fingerprint "
            f"{'identical' if identical else 'DIVERGED'}, "
            f"{'resumed from checkpoint' if sidecars else 'restarted from zero'} "
            f"(crashed={crashed}, retried={retried}, sidecars={sidecars})"
        )
        if not identical:
            failures.append(f"chaos {name}: result diverged from reference")
        if not fired:
            failures.append(
                f"chaos {name}: fault did not take the intended path "
                f"(crashed={crashed}, retried={retried}, "
                f"sidecars={sidecars}; trial proved nothing)"
            )


def cmd_smoke(args) -> int:
    scale = get_scale(args.scale)
    rng = random.Random(args.seed)
    failures = []
    refusal_snapshot = None

    with tempfile.TemporaryDirectory() as tmp:
        for name, config, machine_kwargs, sampling in _scenarios():
            if args.one and name != args.one:
                continue
            every = rng.randrange(2_000, 9_000)
            snap_path = os.path.join(tmp, f"{name}.snap")
            report, oracle, stitched, cycle = preempt_resume_differential(
                name, config, machine_kwargs, sampling,
                scale=scale, seed=args.seed, every=every, snap_path=snap_path,
            )
            print(f"[{name}] preempted at cycle {cycle} (every={every})")
            print(report.format())
            if not report.identical:
                failures.append(f"{name}: resumed run diverged from oracle")
            if refusal_snapshot is None:
                refusal_snapshot = snap_path

        if args.one:
            for message in failures:
                print(f"FAIL: {message}", file=sys.stderr)
            return 1 if failures else 0

        # 2. Damage drill on a real snapshot from the first scenario.
        if refusal_snapshot is not None:
            check_refusal(refusal_snapshot, failures)
        else:
            failures.append("no snapshot file produced for the refusal drill")

    # 3. Supervised-worker chaos: checkpoints under SIGKILL/tampering.
    if not args.skip_chaos:
        chaos_slice(args.seed, failures)

    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    if not failures:
        print("snapshot-validate smoke: OK")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--smoke", action="store_true",
                      help="CI gate: preempt/resume differential on every "
                           "machine shape + damage refusal + service chaos")
    mode.add_argument("--one", metavar="SCENARIO",
                      help="run one scenario's differential (plain, "
                           "checkers, sampled, miss-heavy, l4-cache, "
                           "ras-on)")
    parser.add_argument("--scale", default="smoke",
                        choices=["smoke", "default", "large"])
    parser.add_argument("--seed", type=int, default=42,
                        help="seed for the workload AND the randomized "
                             "snapshot cadence")
    parser.add_argument("--skip-chaos", action="store_true",
                        help="skip the forked-worker chaos slice (smoke only)")
    args = parser.parse_args(argv)
    return cmd_smoke(args)


if __name__ == "__main__":
    sys.exit(main())
