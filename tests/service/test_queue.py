"""Durable job queue: a directory of cell journals — replay, torn-tail
recovery, admission control."""

import pytest

from repro.common.errors import ServiceOverloadError
from repro.experiments.persistence import CellJournal, scan_jsonl
from repro.experiments.runner import CellFailure
from repro.experiments.spec import SweepSpec
from repro.service.queue import JobQueue
from repro.service.service import SweepService
from repro.workloads.mixes import MIXES

from .conftest import TINY, fabricated_result, small_config


def journal_of(queue, job_id):
    """Open a job's journal for appending, the way the executor does."""
    job = queue.jobs[job_id]
    job.journal = CellJournal.open(
        job.journal.path, job.spec.signature(), resume=True
    )
    return job.journal


def record(journal, config="base", mix="M1", failure=None):
    if failure is not None:
        journal.record_failure(failure)
    else:
        journal.record_result(config, mix, fabricated_result(mix, config))


def test_sweep_spec_rejects_duplicate_names():
    with pytest.raises(ValueError, match="duplicate config names"):
        SweepSpec(
            configs=(small_config("base"), small_config("base")),
            mixes=(MIXES["M1"],), scale=TINY,
        )
    with pytest.raises(ValueError, match="duplicate mix names"):
        SweepSpec(
            configs=(small_config("base"),),
            mixes=(MIXES["M1"], MIXES["M1"]), scale=TINY,
        )


def test_sweep_spec_round_trips(tiny_spec):
    rebuilt = SweepSpec.from_dict(tiny_spec.to_dict())
    assert rebuilt == tiny_spec
    assert rebuilt.fingerprint() == tiny_spec.fingerprint()
    # The journal header holds the JSON form (lists, not tuples).
    assert SweepSpec.from_dict(tiny_spec.signature()) == tiny_spec


def test_submit_and_replay(tmp_path, tiny_spec):
    queue = JobQueue.open(tmp_path)
    job_id = queue.submit(tiny_spec)
    assert job_id.startswith("job-0001-")
    assert (tmp_path / f"{job_id}.jsonl").exists()
    assert not JobQueue.open(tmp_path).jobs[job_id].recovered  # no records
    with journal_of(queue, job_id) as journal:
        record(journal)

    job = JobQueue.open(tmp_path).jobs[job_id]
    assert job.spec == tiny_spec
    assert job.journal.completed[("base", "M1")] == fabricated_result("M1")
    assert job.journal.attempts[("base", "M1")] == 1
    # Interrupted mid-run: queued again, flagged recovered.
    assert job.state == "queued" and job.recovered
    assert len(job.remaining_cells()) == 3


def test_job_ids_are_deterministic_and_unique(tmp_path, tiny_spec):
    queue = JobQueue.open(tmp_path)
    first = queue.submit(tiny_spec)
    second = queue.submit(tiny_spec)
    assert first != second  # same content, distinct submissions
    assert first.split("-", 2)[2] == second.split("-", 2)[2]  # same fingerprint


def test_failure_outcomes_replay(tmp_path, tiny_spec):
    failure = CellFailure(
        config="base", mix="M1", error_type="InjectedFault",
        message="boom", traceback="tb", attempts=2, elapsed=0.5,
    )
    queue = JobQueue.open(tmp_path)
    job_id = queue.submit(tiny_spec)
    with journal_of(queue, job_id) as journal:
        record(journal, failure=failure)
    job = JobQueue.open(tmp_path).jobs[job_id]
    restored = job.journal.failed[("base", "M1")]
    assert restored.error_type == "InjectedFault"
    assert restored.attempts == 2
    assert job.progress()["cells_failed"] == 1


def test_torn_final_record_is_truncated_and_appendable(tmp_path, tiny_spec):
    queue = JobQueue.open(tmp_path)
    job_id = queue.submit(tiny_spec)
    with journal_of(queue, job_id) as journal:
        record(journal)
        record(journal, mix="M3")
    path = tmp_path / f"{job_id}.jsonl"
    intact = path.read_bytes()
    last_start = intact.rstrip(b"\n").rfind(b"\n") + 1
    # Tear the last record in half (kill -9 mid-append).
    path.write_bytes(intact[: last_start + (len(intact) - last_start) // 2])

    reopened = JobQueue.open(tmp_path)
    job = reopened.jobs[job_id]
    assert ("base", "M1") in job.journal.completed  # survived
    assert ("base", "M3") not in job.journal.completed  # torn away
    with journal_of(reopened, job_id) as journal:
        record(journal, mix="M3")
    records, valid_bytes = scan_jsonl(path)
    assert valid_bytes == path.stat().st_size  # no glued/corrupt tail
    assert [r["kind"] for r in records].count("result") == 2


def test_completed_jobs_pending_count_is_zero(tmp_path, tiny_spec):
    queue = JobQueue.open(tmp_path)
    job_id = queue.submit(tiny_spec)
    assert queue.pending_cell_count() == 4
    failure = CellFailure(
        config="narrow", mix="M3", error_type="CircuitOpen",
        message="shed", traceback="", attempts=0, elapsed=0.0,
    )
    with journal_of(queue, job_id) as journal:
        for config, mix in [("base", "M1"), ("base", "M3"), ("narrow", "M1")]:
            record(journal, config, mix)
        record(journal, failure=failure)  # a failed cell is a record too
    assert queue.pending_cell_count() == 0
    assert queue.jobs[job_id].state == "completed"
    job = JobQueue.open(tmp_path).jobs[job_id]
    assert job.state == "completed" and not job.recovered


def test_admission_control_sheds_by_cell_count(tmp_path, tiny_spec):
    queue = JobQueue.open(tmp_path, max_pending_cells=6)
    queue.submit(tiny_spec)  # 4 pending cells
    with pytest.raises(ServiceOverloadError, match="queue full"):
        queue.submit(tiny_spec)  # 4 + 4 > 6

    # Progress frees admission capacity.
    job = queue.next_queued()
    with journal_of(queue, job.job_id) as journal:
        for config, mix in list(job.spec.cells())[:2]:
            record(journal, config.name, mix.name)
    queue.submit(tiny_spec)  # 2 + 4 <= 6: admitted


def test_rejects_foreign_journal(tmp_path):
    foreign = tmp_path / "job-0001-0123456789ab.jsonl"
    foreign.write_text('{"kind": "submit"}\n')
    with pytest.raises(ValueError, match="not a cell journal"):
        JobQueue.open(tmp_path)


def test_next_queued_is_fifo(tmp_path, tiny_spec, one_cell_spec):
    queue = JobQueue.open(tmp_path)
    first = queue.submit(tiny_spec)
    queue.submit(one_cell_spec)
    assert queue.next_queued().job_id == first
    with journal_of(queue, first) as journal:
        for config, mix in tiny_spec.cells():
            record(journal, config.name, mix.name)
    assert queue.next_queued().spec == one_cell_spec


def test_order_and_ids_follow_parsed_seq_not_filename(tmp_path, one_cell_spec):
    """``job-10000`` sorts before ``job-9999`` as text; the queue must not."""
    fingerprint = one_cell_spec.fingerprint()
    for seq in (10000, 9999):
        CellJournal.open(
            tmp_path / f"job-{seq:04d}-{fingerprint}.jsonl",
            one_cell_spec.signature(),
        ).close()
    queue = JobQueue.open(tmp_path)
    assert [job_id.split("-")[1] for job_id in queue.jobs] == ["9999", "10000"]
    assert queue.next_queued().job_id.startswith("job-9999-")
    assert queue.submit(one_cell_spec).startswith("job-10001-")


def test_open_refuses_a_job_from_another_build(tmp_path, one_cell_spec):
    """A job header whose config carries a field this build lacks is
    refused with one ValueError naming the field and the file, and the
    file is left in place."""
    signature = one_cell_spec.signature()
    signature["configs"][0]["retired_knob"] = None
    path = tmp_path / f"job-0001-{one_cell_spec.fingerprint()}.jsonl"
    CellJournal.open(path, signature).close()
    with pytest.raises(ValueError, match="retired_knob") as excinfo:
        JobQueue.open(tmp_path)
    assert str(path) in str(excinfo.value)
    assert path.exists()


def test_open_refuses_a_job_naming_a_deleted_organization(
    tmp_path, one_cell_spec
):
    """A job whose config names an MSHR organization, or carries a
    config field, this build no longer has is refused when the queue
    opens, not queued to fail in every cell."""
    for root, field, value, named in (
        (tmp_path / "org", "l2_mshr_organization", "quadratic", "'quadratic'"),
        (tmp_path / "field", "l4_tags", "sram", "l4_tags"),
    ):
        root.mkdir()
        signature = one_cell_spec.signature()
        signature["configs"][0][field] = value
        path = root / f"job-0001-{one_cell_spec.fingerprint()}.jsonl"
        CellJournal.open(path, signature).close()
        with pytest.raises(ValueError, match=named) as excinfo:
            JobQueue.open(root)
        assert str(path) in str(excinfo.value)
        assert path.exists()


@pytest.mark.parametrize("keep", [0, 0.5], ids=["empty", "half-header"])
def test_torn_header_is_no_job_and_keeps_later_seqs(tmp_path, tiny_spec, keep):
    """A crash mid-submit (before the ack) leaves a file that is no job:
    it is deleted, and the jobs around it keep their ids."""
    queue = JobQueue.open(tmp_path)
    first, torn, third = (queue.submit(tiny_spec) for _ in range(3))
    path = tmp_path / f"{torn}.jsonl"
    header = path.read_bytes()
    path.write_bytes(header[: int(len(header) * keep)])

    reopened = JobQueue.open(tmp_path)
    assert list(reopened.jobs) == [first, third]
    assert not path.exists()
    assert reopened.submit(tiny_spec).startswith("job-0004-")


def test_parent_layout_root_is_refused(tmp_path, fast_policy):
    """A root holding the older single-file queue is refused, not
    silently started empty (which would drop its accepted jobs)."""
    legacy = tmp_path / "queue.jsonl"
    legacy.write_text('{"kind": "header", "queue_version": 1}\n')
    with pytest.raises(ValueError, match="not migrated") as refused:
        SweepService(tmp_path, fast_policy)
    assert str(legacy) in str(refused.value)
