"""Fault injection, retry/backoff, timeouts, and graceful degradation.

These tests exercise the resilience layer itself: the fault-injection
hooks deterministically crash/hang/slow specific matrix cells, and the
assertions check that the runner isolates, retries, and records those
failures without losing the healthy cells.
"""

import os
import time

import pytest

import repro.experiments.runner as runner_module
from repro.common.errors import CellFailedError, InjectedFault
from repro.common.units import MIB
from repro.experiments import faults
from repro.experiments.faults import FaultSpec
from repro.experiments.persistence import _result_to_dict
from repro.experiments.runner import RunPolicy, parallelism_from_env, run_matrix
from repro.system.config import config_3d_fast
from repro.system.scale import ExperimentScale
from repro.workloads.mixes import MIXES

TINY = ExperimentScale("tiny", 300, 1000)

#: Fast backoff so retry tests don't sleep for real.
FAST = dict(backoff_base=0.01, backoff_max=0.05)


def _small(name, **overrides):
    return config_3d_fast().derive(
        name=name,
        l2_size=1 * MIB,
        l2_assoc=16,
        dram_capacity=64 * MIB,
        **overrides,
    )


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    faults.clear()


@pytest.fixture()
def matrix():
    configs = [_small("base"), _small("narrow", memory_bus="tsv8")]
    mixes = [MIXES["M1"], MIXES["M3"]]
    return configs, mixes


# ----------------------------------------------------------------------
# Spec parsing and matching


def test_parse_fault_spec():
    spec = faults.parse_fault("crash:base:M1:2:5.5")
    assert spec == FaultSpec("crash", "base", "M1", times=2, seconds=5.5)
    spec = faults.parse_fault("kill-worker:base:M1:2:0.3")
    assert spec == FaultSpec("kill-worker", "base", "M1", times=2, seconds=0.3)


def test_parse_defaults_and_roundtrip():
    spec = faults.parse_fault("raise:cfg:mix")
    assert spec.times == 1
    # Only the sleeping kinds default to a long delay.
    assert faults.parse_fault("hang:cfg:mix").seconds == 3600.0
    assert FaultSpec("kill-worker") == faults.parse_fault("kill-worker:*:*:1:0")
    specs = (spec, FaultSpec("hang", "*", "M3", times=-1, seconds=9.0)) + tuple(
        FaultSpec(kind, "cfg", "*", times=2) for kind in faults.KINDS
    )
    assert faults.parse_faults(faults.encode_faults(specs)) == specs


def test_parse_rejects_unknown_kind_and_short_specs():
    with pytest.raises(ValueError, match="unknown fault kind"):
        faults.parse_fault("explode:a:b")
    with pytest.raises(ValueError, match="kind:config:mix"):
        faults.parse_fault("raise:a")


def test_matching_wildcards_and_attempts():
    spec = FaultSpec("raise", "*", "M1", times=2)
    assert spec.matches("anything", "M1", 1)
    assert spec.matches("anything", "M1", 2)
    assert not spec.matches("anything", "M1", 3)  # first retry succeeds
    assert not spec.matches("anything", "M3", 1)
    always = FaultSpec("raise", "cfg", "*", times=-1)
    assert always.matches("cfg", "M9", 999)
    anywhere = FaultSpec("hb-delay", seconds=30.0)  # coordinates default to *
    assert anywhere.matches("cfg", "M9", 1) and not anywhere.matches("cfg", "M9", 2)


def test_inject_raises_only_for_matching_cell():
    # A matching fault of a kind that fires elsewhere (worker, cache,
    # service) neither fires at cell start nor shadows one that does.
    faults.install(FaultSpec("kill-worker", times=-1), FaultSpec("raise", "base", "M1"))
    faults.inject("base", "M3", 1)  # no-op
    with pytest.raises(InjectedFault):
        faults.inject("base", "M1", 1)
    assert faults.fault_for("kill-worker", "base", "M1", 7).times == -1
    assert faults.fault_for("raise", "base", "M1", 2) is None  # times=1
    assert faults.fault_for("timing", "base", "M1") is None


# ----------------------------------------------------------------------
# parallelism_from_env (satellite)


def test_parallelism_default_is_serial(monkeypatch):
    monkeypatch.delenv("REPRO_PARALLEL", raising=False)
    assert parallelism_from_env() == 1


def test_parallelism_auto_uses_cpu_count(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL", "auto")
    assert parallelism_from_env() == (os.cpu_count() or 1)


def test_parallelism_rejects_non_integer_cleanly(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL", "lots")
    with pytest.raises(ValueError, match="positive integer") as excinfo:
        parallelism_from_env()
    # `raise ... from None`: no confusing chained int() traceback.
    assert excinfo.value.__suppress_context__


@pytest.mark.parametrize("value", ["0", "-4"])
def test_parallelism_rejects_non_positive(monkeypatch, value):
    monkeypatch.setenv("REPRO_PARALLEL", value)
    with pytest.raises(ValueError, match=">= 1"):
        parallelism_from_env()


# ----------------------------------------------------------------------
# Graceful degradation (serial path)


def test_failed_cell_is_recorded_not_raised(matrix):
    configs, mixes = matrix
    faults.install(FaultSpec("raise", "narrow", "M1", times=-1))
    table = run_matrix(configs, mixes, TINY, workers=1)
    assert sorted(table.cells) == [
        ("base", "M1"), ("base", "M3"), ("narrow", "M3"),
    ]
    failure = table.failure("narrow", "M1")
    assert failure.error_type == "InjectedFault"
    assert failure.attempts == 1
    assert "narrow" in failure.message and failure.traceback


def test_strict_and_lenient_accessors(matrix):
    configs, mixes = matrix
    faults.install(FaultSpec("raise", "narrow", "M1", times=-1))
    table = run_matrix(configs, mixes, TINY, workers=1)
    assert table.ok("base", "M1") and not table.ok("narrow", "M1")
    assert table.result_or_none("narrow", "M1") is None
    with pytest.raises(CellFailedError, match="InjectedFault"):
        table.result("narrow", "M1")
    with pytest.raises(CellFailedError):
        table.hmipc("narrow", "M1")
    with pytest.raises(CellFailedError):
        table.gm_speedup("narrow", "base")  # strict default
    # Lenient GM skips the failed mix and uses the surviving one.
    gm = table.gm_speedup("narrow", "base", skip_failed=True)
    assert gm == pytest.approx(table.speedup("narrow", "M3", "base"))


def test_unknown_cell_still_raises_keyerror(matrix):
    configs, mixes = matrix
    table = run_matrix(configs, [MIXES["M3"]], TINY, workers=1)
    with pytest.raises(KeyError):
        table.result("base", "nope")


def test_retry_recovers_transient_failure(matrix):
    configs, mixes = matrix
    faults.install(FaultSpec("raise", "base", "M3", times=1))
    table = run_matrix(
        configs, mixes, TINY, workers=1, policy=RunPolicy(retries=1, **FAST)
    )
    assert not table.failures
    assert table.ok("base", "M3")


def test_retries_exhausted_counts_attempts(matrix):
    configs, mixes = matrix
    faults.install(FaultSpec("raise", "base", "M3", times=-1))
    table = run_matrix(
        configs, mixes, TINY, workers=1, policy=RunPolicy(retries=2, **FAST)
    )
    assert table.failure("base", "M3").attempts == 3


# ----------------------------------------------------------------------
# Process isolation: crashes, hangs, timeouts (acceptance scenario)


def test_crash_and_hang_cells_degrade_gracefully(matrix):
    """A crashed worker and a hung worker must not take down the matrix."""
    configs, mixes = matrix
    faults.install(
        FaultSpec("crash", "base", "M1", times=-1),
        FaultSpec("hang", "narrow", "M3", times=-1, seconds=120.0),
    )
    table = run_matrix(
        configs,
        mixes,
        TINY,
        workers=2,
        policy=RunPolicy(cell_timeout=3.0, retries=1, **FAST),
    )
    # Healthy cells all completed.
    assert sorted(table.cells) == [("base", "M3"), ("narrow", "M1")]
    crash = table.failure("base", "M1")
    assert crash.error_type == "WorkerCrash"
    assert str(faults.CRASH_EXITCODE) in crash.message
    assert crash.attempts == 2
    hang = table.failure("narrow", "M3")
    assert hang.error_type == "CellTimeout"
    assert hang.attempts == 2
    assert hang.elapsed >= 2 * 3.0 * 0.9  # two timed-out attempts


def test_hang_timeout_then_retry_succeeds(matrix):
    configs, _ = matrix
    # Hangs only on attempt 1; the retry (replacement worker) completes.
    faults.install(FaultSpec("hang", "base", "M3", times=1, seconds=120.0))
    table = run_matrix(
        configs,
        [MIXES["M3"]],
        TINY,
        workers=2,
        policy=RunPolicy(cell_timeout=3.0, retries=1, **FAST),
    )
    assert not table.failures
    assert table.ok("base", "M3")


def test_matrix_never_sheds_a_cell(matrix):
    """The circuit breaker is the sweep service's admission policy: a
    matrix attempts every cell it was asked to run, ``retries + 1`` times."""
    configs, _ = matrix
    faults.install(FaultSpec("raise", "base", "M1", times=-1))
    table = run_matrix(
        configs, [MIXES["M1"]], TINY, workers=2,
        policy=RunPolicy(retries=4, **FAST),
    )
    failure = table.failure("base", "M1")
    assert failure.error_type == "InjectedFault"
    assert failure.attempts == 5
    assert table.ok("narrow", "M1")


def test_interrupted_matrix_leaves_no_worker_process(matrix, monkeypatch):
    """Ctrl-C (here: out of the result callback) must not leak workers."""
    from repro.service.supervisor import WorkerSupervisor

    configs, mixes = matrix
    pids = []
    spawn = WorkerSupervisor._spawn_worker

    def recording_spawn(self):
        worker = spawn(self)
        pids.append(worker.process.pid)
        return worker

    interrupted_at = []

    def interrupt(self, task, result):
        interrupted_at.append(time.monotonic())
        raise KeyboardInterrupt

    monkeypatch.setattr(WorkerSupervisor, "_spawn_worker", recording_spawn)
    monkeypatch.setattr(runner_module._Recorder, "record_result", interrupt)
    # The second worker is still hung in its cell when the first reports.
    faults.install(FaultSpec("hang", "base", "M3", times=-1, seconds=120.0))
    with pytest.raises(KeyboardInterrupt):
        run_matrix(configs[:1], mixes, TINY, workers=2)
    assert len(pids) == 2

    def alive(pid):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True

    deadline = interrupted_at[0] + 1.0
    while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not any(alive(pid) for pid in pids)
    assert time.monotonic() < deadline


@pytest.mark.parametrize(
    "specs, policy, resumes",
    [
        # SIGKILLed mid-simulation: the retry continues from the latest
        # periodic checkpoint ...
        ([FaultSpec("kill-worker", seconds=0.3)], dict(retries=1), True),
        # ... unless that checkpoint is damaged: refused, clean restart.
        (
            [
                FaultSpec("kill-worker", seconds=0.3),
                FaultSpec("corrupt-snapshot", times=-1),
            ],
            dict(retries=1),
            False,
        ),
        (
            [
                FaultSpec("kill-worker", seconds=0.3),
                FaultSpec("truncate-snapshot", times=-1),
            ],
            dict(retries=1),
            False,
        ),
        # Overrunning its budget: asked to checkpoint and yield before
        # the kill, which costs no retry, so none is needed to finish.
        ([], dict(retries=0, cell_timeout=0.3), True),
    ],
    ids=[
        "killed", "killed+corrupt-snapshot", "killed+truncate-snapshot",
        "timed-out",
    ],
)
def test_interrupted_cell_resumes_mid_cell(
    tmp_path, monkeypatch, specs, policy, resumes
):
    """An interrupted supervised cell costs the work since its last
    checkpoint, not the cell, and the result is identical either way."""
    # Sized (~0.6 s on a 2-core Xeon under CPython 3.11) so that 0.3 s
    # in, the first 10k-cycle checkpoint exists and the cell is far from
    # finished.
    configs, mixes = [config_3d_fast()], [MIXES["M1"]]
    scale = ExperimentScale("chaos", 2_000, 160_000)
    undisturbed = run_matrix(configs, mixes, scale, workers=1)

    attempts = []
    record_result = runner_module._Recorder.record_result

    def recording(self, task, result):
        attempts.append(task.attempt)
        record_result(self, task, result)

    monkeypatch.setattr(runner_module._Recorder, "record_result", recording)
    faults.install(*specs)
    table = run_matrix(
        configs, mixes, scale, workers=2,
        policy=RunPolicy(
            snapshot_every=10_000, snapshot_dir=tmp_path, **policy, **FAST
        ),
    )
    assert not table.failures
    assert _result_to_dict(table.result("3D-fast", "M1")) == _result_to_dict(
        undisturbed.result("3D-fast", "M1")
    )
    # The kill really landed mid-cell (a tampered checkpoint leaves no
    # other trace of it); the cooperative yield cost no retry.
    assert attempts == [2 if specs else 1]
    assert bool(list(tmp_path.glob("*.resumed.json"))) == resumes
    assert not list(tmp_path.glob("*.snap"))  # consumed


def test_env_var_reaches_worker_processes(matrix, monkeypatch):
    configs, mixes = matrix
    monkeypatch.setenv(faults.ENV_VAR, "raise:narrow:M3:-1")
    table = run_matrix(
        configs, mixes, TINY, workers=2, policy=RunPolicy(retries=0)
    )
    assert table.failure("narrow", "M3").error_type == "InjectedFault"
    assert len(table.cells) == 3


def test_slow_fault_just_delays(matrix):
    configs, _ = matrix
    faults.install(FaultSpec("slow", "base", "M3", times=-1, seconds=0.2))
    table = run_matrix(configs, [MIXES["M3"]], TINY, workers=1)
    assert not table.failures


def test_policy_validation():
    with pytest.raises(ValueError, match="retries"):
        RunPolicy(retries=-1)
    with pytest.raises(ValueError, match="cell_timeout"):
        RunPolicy(cell_timeout=0)
    with pytest.raises(ValueError, match="journal_path"):
        run_matrix(
            [_small("base")],
            [MIXES["M3"]],
            TINY,
            workers=1,
            policy=RunPolicy(resume=True),
        )
