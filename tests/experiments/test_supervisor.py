"""Worker supervision: restarts, retries, hang detection, timeouts."""

import dataclasses
import os
import signal
import time

import pytest

from repro.experiments import faults
from repro.experiments import supervisor as supervisor_module
from repro.experiments.faults import CRASH_EXITCODE, FaultSpec
from repro.experiments.runner import CellTask, RunPolicy, run_cell
from repro.experiments.supervisor import WorkerSupervisor
from repro.workloads.mixes import MIXES

from .conftest import TINY, small_config


def make_task(config_name="base", mix_name="M1", **config_overrides):
    config = small_config(config_name, **config_overrides)
    mix = MIXES[mix_name]
    return CellTask(
        config=config,
        mix_name=mix.name,
        benchmarks=tuple(mix.benchmarks),
        warmup_instructions=TINY.warmup_instructions,
        measure_instructions=TINY.measure_instructions,
        seed=42,
    )


#: Quick backoff so failure paths resolve in milliseconds.
FAST = RunPolicy(retries=1, backoff_base=0.01, backoff_max=0.05)
WORKERS = 2


def run_tasks(supervisor, tasks):
    results, failures = [], []
    supervisor.run(
        tasks,
        on_result=lambda t, r: results.append((t, r)),
        on_failure=lambda t, f: failures.append((t, f)),
    )
    return results, failures


@pytest.fixture()
def supervisor():
    sup = WorkerSupervisor(FAST, WORKERS)
    yield sup
    sup.shutdown()


def test_policy_validation(monkeypatch):
    with pytest.raises(ValueError, match="workers"):
        WorkerSupervisor(FAST, 0)
    monkeypatch.setattr(supervisor_module, "HEARTBEAT_INTERVAL", 1.0)
    monkeypatch.setattr(supervisor_module, "HEARTBEAT_TIMEOUT", 0.5)
    with pytest.raises(ValueError, match="HEARTBEAT_TIMEOUT"):
        WorkerSupervisor(FAST, WORKERS)


def test_runs_cells_and_reports_results(supervisor):
    tasks = [make_task(), make_task(mix_name="M3")]
    results, failures = run_tasks(supervisor, tasks)
    assert len(results) == 2 and not failures
    by_mix = {task.mix_name: result for task, result in results}
    assert by_mix["M1"].workload == "M1"
    assert by_mix["M1"].total_cycles > 0


def test_workers_persist_across_runs(supervisor):
    run_tasks(supervisor, [make_task()])
    run_tasks(supervisor, [make_task(mix_name="M3")])
    # The pool was reused, not respawned per run.
    assert supervisor.stats["workers_started"] <= WORKERS


def test_crashed_worker_is_replaced_and_cell_retried(supervisor):
    faults.install(FaultSpec("crash", "base", "M1", times=1))
    results, failures = run_tasks(
        supervisor, [make_task(), make_task(mix_name="M3")]
    )
    assert len(results) == 2 and not failures
    assert supervisor.stats["workers_crashed"] == 1
    assert supervisor.stats["cells_retried"] == 1
    retried = next(t for t, _ in results if t.mix_name == "M1")
    assert retried.attempt == 2


def test_crashed_worker_reports_its_exit_code():
    """The post-mortem names the real exit status, never ``None``: the
    pipe EOF the supervisor wakes on can precede the process exit."""
    policy = dataclasses.replace(FAST, retries=0)
    faults.install(FaultSpec("crash", "base", "M1", times=-1))
    for _ in range(20):
        supervisor = WorkerSupervisor(policy, 1)
        try:
            _, failures = run_tasks(supervisor, [make_task()])
        finally:
            supervisor.shutdown()
        (_, failure), = failures
        assert failure.error_type == "WorkerCrash"
        assert str(CRASH_EXITCODE) in failure.message


def test_sigkill_fault_mid_cell_is_survived(supervisor):
    undisturbed = run_cell(make_task())  # in-process, no worker to kill
    faults.install(FaultSpec("kill-worker", "base", "M1", times=1))
    results, failures = run_tasks(supervisor, [make_task()])
    assert len(results) == 1 and not failures
    assert supervisor.stats["workers_crashed"] >= 1
    assert results[0][1] == undisturbed  # the retry is bit-identical


def test_retries_exhausted_becomes_failure(supervisor):
    faults.install(FaultSpec("raise", "base", "M1", times=-1))
    results, failures = run_tasks(supervisor, [make_task()])
    assert not results and len(failures) == 1
    task, failure = failures[0]
    assert failure.error_type == "InjectedFault"
    assert failure.attempts == 2  # 1 + policy.retries


def test_heartbeat_silence_kills_live_worker(monkeypatch):
    """Stalled heartbeats alone get the worker recycled (livelock guard)."""
    monkeypatch.setattr(supervisor_module, "HEARTBEAT_INTERVAL", 0.05)
    monkeypatch.setattr(supervisor_module, "HEARTBEAT_TIMEOUT", 0.4)
    supervisor = WorkerSupervisor(FAST, WORKERS)
    try:
        undisturbed = run_cell(make_task())
        faults.install(
            FaultSpec("slow", "base", "M1", times=1, seconds=3.0),
            FaultSpec("hb-delay", "base", "M1", times=1, seconds=30.0),
        )
        started = time.monotonic()
        results, failures = run_tasks(supervisor, [make_task()])
        elapsed = time.monotonic() - started
        assert len(results) == 1 and not failures  # retry succeeded
        assert results[0][1] == undisturbed  # ... bit-identically
        assert supervisor.stats["workers_hung_killed"] == 1
        assert supervisor.stats["cells_retried"] == 1
        # Killed on silence (~0.4s), not after the 3s slow cell finished.
        assert elapsed < 30.0
    finally:
        supervisor.shutdown()


def test_cell_timeout_kills_and_retries():
    policy = dataclasses.replace(FAST, cell_timeout=0.3)
    supervisor = WorkerSupervisor(policy, WORKERS)
    try:
        faults.install(FaultSpec("hang", "base", "M1", times=1, seconds=60.0))
        results, failures = run_tasks(supervisor, [make_task()])
        assert len(results) == 1 and not failures
        assert supervisor.stats["cells_timed_out"] == 1
    finally:
        supervisor.shutdown()


def test_worker_pids_are_live(supervisor):
    run_tasks(supervisor, [make_task()])
    pids = supervisor.worker_pids()
    assert pids
    for pid in pids:
        os.kill(pid, 0)  # raises if dead


def test_external_sigkill_is_recovered(supervisor):
    """A worker killed from outside mid-idle is replaced transparently."""
    run_tasks(supervisor, [make_task()])
    for pid in supervisor.worker_pids():
        os.kill(pid, signal.SIGKILL)
    results, failures = run_tasks(supervisor, [make_task(mix_name="M3")])
    assert len(results) == 1 and not failures
