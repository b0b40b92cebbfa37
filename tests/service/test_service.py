"""End-to-end SweepService: cache hits, crash recovery, degradation."""

import dataclasses
import os
import subprocess
import sys

import pytest

from repro.common.errors import InjectedServiceCrash, ServiceOverloadError
from repro.experiments import faults
from repro.experiments.faults import FaultSpec
from repro.experiments.persistence import CellJournal, scan_jsonl
from repro.experiments.spec import SweepSpec
from repro.service.cache import ResultCache
from repro.service.chaos import (
    cache_entry_paths,
    corrupt_cache_entry,
    result_fingerprint,
    truncate_cache_entry,
)
from repro.service.service import SweepService

from .conftest import small_config


def run_sweep(root, policy, spec):
    """Open a service, run one sweep, return (result, stats)."""
    with SweepService(root, policy) as service:
        job_id = service.submit(spec)
        service.process()
        return service.result(job_id), service.stats()


def test_sweep_completes_with_full_provenance(tmp_path, fast_policy, tiny_spec):
    result, stats = run_sweep(tmp_path, fast_policy, tiny_spec)
    assert result.complete and result.state == "completed"
    assert len(result.table.cells) == 4 and not result.table.failures
    assert set(result.provenance.values()) == {"simulated"}
    assert result.notes == []
    assert stats["service"]["cells_simulated"] == 4
    assert stats["service"]["cells_from_cache"] == 0


def test_resubmit_is_all_cache_and_bit_identical(tmp_path, fast_policy, tiny_spec):
    first, _ = run_sweep(tmp_path, fast_policy, tiny_spec)
    second, stats = run_sweep(tmp_path, fast_policy, tiny_spec)
    assert stats["service"]["cells_simulated"] == 0
    assert stats["service"]["cells_from_cache"] == 4
    assert set(second.provenance.values()) == {"cache"}
    assert result_fingerprint(second) == result_fingerprint(first)


def test_cache_is_shared_across_overlapping_sweeps(
    tmp_path, fast_policy, tiny_spec, one_cell_spec
):
    run_sweep(tmp_path, fast_policy, one_cell_spec)
    _, stats = run_sweep(tmp_path, fast_policy, tiny_spec)
    # (base, M1) overlaps; only the other 3 cells simulate.
    assert stats["service"]["cells_from_cache"] == 1
    assert stats["service"]["cells_simulated"] == 3


#: The sweep as a service process that dies the way ``kill -9`` or an
#: OOM kill ends one: no ``close()``, no flush, workers orphaned.
_ABRUPT_EXIT_CHILD = """
import os, sys
from repro.common.errors import InjectedServiceCrash
from repro.experiments.faults import CRASH_EXITCODE
from repro.experiments.spec import SweepSpec
from repro.service.service import SweepService
from tests.service.conftest import fast_service_policy, tiny_sweep_spec
service = SweepService(sys.argv[1], fast_service_policy(workers=1))
print(service.submit(tiny_sweep_spec()), flush=True)
try:
    service.process()
except InjectedServiceCrash:
    os._exit(CRASH_EXITCODE)
"""


@pytest.mark.parametrize("abrupt", [False, True], ids=["raised", "abrupt-exit"])
def test_crash_mid_sweep_resumes_bit_identical(
    tmp_path, fast_policy, tiny_spec, abrupt
):
    reference, _ = run_sweep(tmp_path / "ref", fast_policy, tiny_spec)

    # One worker → cells journal in submission order → the crash lands
    # deterministically after the second of four cells.
    policy = dataclasses.replace(fast_policy, workers=1)
    crash = FaultSpec("crash-service", "base", "M3", times=1)
    if abrupt:
        # Output goes to a file, not a pipe: an fd inherited by a worker
        # the os._exit orphans must not be able to wedge the wait.
        with open(tmp_path / "child.out", "w") as out:
            child = subprocess.run(
                [sys.executable, "-c", _ABRUPT_EXIT_CHILD, tmp_path / "svc"],
                env={
                    **os.environ,
                    "PYTHONPATH": os.pathsep.join(sys.path),
                    faults.ENV_VAR: faults.encode_faults((crash,)),
                },
                stdout=out, stderr=subprocess.STDOUT, timeout=120,
            )
        output = (tmp_path / "child.out").read_text()
        assert child.returncode == faults.CRASH_EXITCODE, output
        job_id = output.split()[0]
    else:
        faults.install(crash)
        service = SweepService(tmp_path / "svc", policy)
        job_id = service.submit(tiny_spec)
        with pytest.raises(InjectedServiceCrash):
            service.process()
        service.close()
        faults.clear()

    with SweepService(tmp_path / "svc", policy) as service:  # the restart
        job = service.queue.jobs[job_id]
        assert job.recovered
        done_before = job.progress()["cells_done"]
        assert 0 < done_before < 4  # genuinely interrupted mid-sweep
        service.process()
        resumed, stats = service.result(job_id), service.stats()
    assert resumed.complete
    assert "resumed from its journal" in " ".join(resumed.notes)
    # Only the cells the crash cut off run again; journaled ones are kept.
    total = (
        stats["service"]["cells_simulated"]
        + stats["service"]["cells_from_cache"]
    )
    assert total == 4 - done_before
    assert result_fingerprint(resumed) == result_fingerprint(reference)


@pytest.mark.parametrize("tamper", [corrupt_cache_entry, truncate_cache_entry])
def test_corrupted_cache_entry_recomputed_never_served(
    tmp_path, fast_policy, tiny_spec, tamper
):
    first, _ = run_sweep(tmp_path, fast_policy, tiny_spec)
    cache = ResultCache(tmp_path / "cache")
    tamper(cache)

    second, stats = run_sweep(tmp_path, fast_policy, tiny_spec)
    assert second.complete
    assert stats["cache"]["corrupt_quarantined"] == 1
    assert len(list(cache.quarantine_dir.glob("*.json*"))) == 1
    assert stats["service"]["cells_simulated"] == 1  # only the bad one
    assert stats["service"]["cells_from_cache"] == 3
    assert result_fingerprint(second) == result_fingerprint(first)


def test_failed_cells_degrade_to_partial_table(tmp_path, fast_policy, tiny_spec):
    policy = dataclasses.replace(fast_policy, retries=0)
    faults.install(FaultSpec("raise", "base", "M1", times=-1))
    result, stats = run_sweep(tmp_path, policy, tiny_spec)
    assert not result.complete and result.state == "completed"
    assert len(result.table.cells) == 3  # the healthy cells survive
    assert result.provenance[("base", "M1")] == "failed"
    failure = result.table.failures[("base", "M1")]
    assert failure.error_type == "InjectedFault"
    assert any("unavailable" in note for note in result.notes)
    assert stats["service"]["cells_failed"] == 1


def test_pending_cells_reported_before_processing(
    tmp_path, fast_policy, tiny_spec
):
    with SweepService(tmp_path, fast_policy) as service:
        job_id = service.submit(tiny_spec)
        result = service.result(job_id)
        assert not result.complete and result.state == "queued"
        assert set(result.provenance.values()) == {"pending"}
        assert any("not yet run" in note for note in result.notes)
        status = service.status(job_id)
        assert status["cells_total"] == 4 and status["cells_done"] == 0


def test_admission_control_rejects_when_full(tmp_path, fast_policy, tiny_spec):
    policy = dataclasses.replace(fast_policy, max_pending_cells=4)
    with SweepService(tmp_path, policy) as service:
        service.submit(tiny_spec)
        with pytest.raises(ServiceOverloadError):
            service.submit(tiny_spec)


def test_completed_table_survives_cache_deletion(
    tmp_path, fast_policy, tiny_spec
):
    """A job's results live in its journal; the cache is only a memo
    across jobs, so deleting every entry costs the job nothing."""
    first, _ = run_sweep(tmp_path, fast_policy, tiny_spec)
    for path in cache_entry_paths(ResultCache(tmp_path / "cache")):
        path.unlink()
    with SweepService(tmp_path, fast_policy) as service:
        (job_id,) = service.queue.jobs
        result = service.result(job_id)
    assert result.complete
    assert set(result.provenance.values()) == {"simulated"}
    assert result_fingerprint(result) == result_fingerprint(first)


def test_job_file_is_one_cell_journal(
    tmp_path, fast_policy, tiny_spec, one_cell_spec
):
    """A service job is written in the one journal grammar: a header,
    then one ``result`` per served cell (``attempts == 0`` for a cache
    hit) — readable by ``CellJournal.read`` like any run_matrix journal."""
    run_sweep(tmp_path, fast_policy, one_cell_spec)
    result, stats = run_sweep(tmp_path, fast_policy, tiny_spec)
    path = tmp_path / "jobs" / f"{result.job_id}.jsonl"
    records, _ = scan_jsonl(path)
    assert records[0]["kind"] == "header"
    assert SweepSpec.from_dict(records[0]["signature"]) == tiny_spec
    replayed = CellJournal.read(path)
    completed, failed = replayed.completed, replayed.failed
    counters = stats["service"]
    served = counters["cells_simulated"] + counters["cells_from_cache"]
    assert len(completed) == served == 4 and not failed
    attempts = {
        (r["config"], r["mix"]): r["attempts"]
        for r in records if r["kind"] == "result"
    }
    assert attempts[("base", "M1")] == 0  # the overlapping cell: a cache hit
    assert result.provenance[("base", "M1")] == "cache"
    assert sorted(attempts.values())[1:] == [1, 1, 1]


def test_unknown_job_raises(tmp_path, fast_policy):
    with SweepService(tmp_path, fast_policy) as service:
        with pytest.raises(KeyError):
            service.status("job-9999-cafecafecafe")
        with pytest.raises(KeyError):
            service.result("job-9999-cafecafecafe")
        with pytest.raises(KeyError):
            service.process("job-9999-cafecafecafe")


def test_config_knob_change_misses_cache(tmp_path, fast_policy, one_cell_spec):
    run_sweep(tmp_path, fast_policy, one_cell_spec)
    tweaked = dataclasses.replace(
        one_cell_spec, configs=(small_config("base", rob_size=128),)
    )
    _, stats = run_sweep(tmp_path, fast_policy, tweaked)
    assert stats["service"]["cells_simulated"] == 1
    assert stats["service"]["cells_from_cache"] == 0
