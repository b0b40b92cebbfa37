"""Cooperative preemption and resume-time guardrails."""

import os
import signal

import pytest

from repro.common.errors import SnapshotConfigMismatch, SnapshotPreempted
from repro.common.units import MIB
from repro.sampling import SamplingPlan
from repro.snapshot import SnapshotPlan, preemption
from repro.snapshot.format import read_snapshot_header
from repro.system.config import config_3d_fast
from repro.system.machine import Machine

MIX = ["gzip", "namd", "mesa", "astar"]


def _machine(seed=7):
    config = config_3d_fast().derive(
        l2_size=1 * MIB, l2_assoc=16, dram_capacity=64 * MIB
    )
    return Machine(config, MIX, seed=seed, workload_name="test")


@pytest.fixture(autouse=True)
def _clean_flag():
    preemption.clear()
    yield
    preemption.clear()


def test_sigusr1_sets_the_flag():
    old = signal.getsignal(preemption.PREEMPT_SIGNAL)
    preemption.install_handler()
    try:
        assert not preemption.preempt_requested()
        os.kill(os.getpid(), preemption.PREEMPT_SIGNAL)
        assert preemption.preempt_requested()
        preemption.clear()
        assert not preemption.preempt_requested()
    finally:
        signal.signal(preemption.PREEMPT_SIGNAL, old)


def test_preempted_run_writes_a_complete_snapshot(tmp_path):
    path = str(tmp_path / "cell.snap")
    preemption.request_preemption()
    with pytest.raises(SnapshotPreempted) as excinfo:
        _machine().run(
            500, 2000,
            snapshot=SnapshotPlan(path=path, every=1000, preemptible=True),
        )
    exc = excinfo.value
    assert exc.path == path
    assert exc.cycle is not None and exc.cycle > 0
    # The exception is raised only after the file is durably on disk.
    header = read_snapshot_header(path)
    assert header["meta"]["cycle"] == exc.cycle


def test_non_preemptible_plan_ignores_the_flag(tmp_path):
    path = str(tmp_path / "cell.snap")
    preemption.request_preemption()
    result = _machine().run(
        500, 2000, snapshot=SnapshotPlan(path=path, every=1000)
    )
    assert result.total_cycles > 0  # ran to completion despite the flag


def test_resume_refuses_a_different_machine(tmp_path):
    path = str(tmp_path / "cell.snap")
    preemption.request_preemption()
    with pytest.raises(SnapshotPreempted):
        _machine(seed=7).run(
            500, 2000,
            snapshot=SnapshotPlan(path=path, every=1000, preemptible=True),
        )
    preemption.clear()
    other = _machine(seed=8)  # different seed -> different fingerprint
    with pytest.raises(SnapshotConfigMismatch):
        other.resume(path)
    # force skips only the fingerprint check, never the checksum.
    header = other.resume(path, force=True)
    assert header["meta"]["cycle"] > 0


@pytest.mark.parametrize(
    "snapshot_mode, resume_mode",
    [("sampled", "full"), ("full", "sampled")],
    ids=["sampled-snapshot-full-resume", "full-snapshot-sampled-resume"],
)
def test_resume_refuses_the_other_run_mode(snapshot_mode, resume_mode, tmp_path):
    """The sampling plan is part of the run identity: a snapshot resumed
    under the other mode is refused, before any stage runs."""
    plan = SamplingPlan(detailed=300, warmup=600, detail_warmup=100,
                        min_intervals=4)
    modes = {"sampled": plan, "full": None}
    path = str(tmp_path / "cell.snap")
    preemption.request_preemption()
    with pytest.raises(SnapshotPreempted):
        _machine().run(
            500, 2000, sampling=modes[snapshot_mode],
            snapshot=SnapshotPlan(path=path, every=1000, preemptible=True),
        )
    preemption.clear()
    resumed = _machine()
    resumed.resume(path)
    with pytest.raises(SnapshotConfigMismatch, match="run identity"):
        resumed.run(500, 2000, sampling=modes[resume_mode])


def test_oracle_plans_write_nothing(tmp_path):
    plan = SnapshotPlan(every=1000, write=False)
    _machine().run(500, 2000, snapshot=plan)
    assert list(tmp_path.iterdir()) == []


def test_plan_rejects_bad_cadence():
    with pytest.raises(ValueError):
        SnapshotPlan(every=0, write=False)
    with pytest.raises(ValueError):
        SnapshotPlan()  # writing plan without a path
