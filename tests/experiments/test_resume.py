"""Checkpoint/resume: the cell journal and run_matrix(resume=True).

The acceptance scenario: a sweep is interrupted (or some cells fail),
and a second invocation with ``resume=True`` re-simulates *only* the
missing/failed cells — verified by counting ``run_workload`` calls.
"""

import dataclasses
import json

import pytest

import repro.experiments.runner as runner_module
from repro.common.units import MIB
from repro.experiments import faults
from repro.experiments.faults import FaultSpec
from repro.experiments.persistence import CellJournal
from repro.experiments.runner import ENV_CHECK, RunPolicy, run_matrix
from repro.experiments.spec import SweepSpec
from repro.system.config import config_3d_fast
from repro.system.scale import ExperimentScale
from repro.workloads.mixes import MIXES

TINY = ExperimentScale("tiny", 300, 1000)
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


@pytest.fixture()
def counted_runs(monkeypatch):
    """Count run_workload invocations made by the (serial) runner."""
    calls = []
    original = runner_module.run_workload

    def counting(config, benchmarks, **kwargs):
        calls.append((config.name, kwargs.get("workload_name")))
        return original(config, benchmarks, **kwargs)

    monkeypatch.setattr(runner_module, "run_workload", counting)
    return calls


def test_resume_skips_completed_cells(tmp_path, matrix, counted_runs):
    configs, mixes = matrix
    journal = tmp_path / "matrix.journal.jsonl"
    faults.install(FaultSpec("raise", "base", "M1", times=-1))
    first = run_matrix(
        configs, mixes, TINY, workers=1,
        policy=RunPolicy(journal_path=journal),
    )
    assert len(first.cells) == 3
    assert first.failure("base", "M1") is not None
    assert len(counted_runs) == 3  # the faulted cell never reached a sim

    faults.clear()  # "transient outage over"
    counted_runs.clear()
    second = run_matrix(
        configs, mixes, TINY, workers=1,
        policy=RunPolicy(journal_path=journal, resume=True),
    )
    # Only the previously failed cell was re-simulated.
    assert counted_runs == [("base", "M1")]
    assert len(second.cells) == 4
    assert not second.failures


def test_resumed_results_match_fresh_results(tmp_path, matrix):
    configs, mixes = matrix
    journal = tmp_path / "matrix.journal.jsonl"
    fresh = run_matrix(configs, mixes, TINY, workers=1)
    run_matrix(
        configs, mixes, TINY, workers=1,
        policy=RunPolicy(journal_path=journal),
    )
    resumed = run_matrix(
        configs, mixes, TINY, workers=1,
        policy=RunPolicy(journal_path=journal, resume=True),
    )
    # Every field survives the journal's JSON, ``cores`` and ``extra``
    # included: the journal is the one on-disk result format.
    assert resumed.cells == fresh.cells
    assert all(result.extra for result in fresh.cells.values())


def test_interrupted_matrix_resumes_where_it_left_off(
    tmp_path, matrix, counted_runs, monkeypatch
):
    """Kill a matrix mid-run; completed cells are not re-simulated."""
    configs, mixes = matrix
    journal = tmp_path / "matrix.journal.jsonl"

    original = runner_module.run_workload
    state = {"n": 0}

    def dying(config, benchmarks, **kwargs):
        state["n"] += 1
        if state["n"] == 3:  # "Ctrl-C" after two finished cells
            raise KeyboardInterrupt
        return original(config, benchmarks, **kwargs)

    monkeypatch.setattr(runner_module, "run_workload", dying)
    with pytest.raises(KeyboardInterrupt):
        run_matrix(
            configs, mixes, TINY, workers=1,
            policy=RunPolicy(journal_path=journal),
        )

    monkeypatch.setattr(runner_module, "run_workload", original)
    assert len(CellJournal.read(journal).completed) == 2

    counted_runs.clear()
    table = run_matrix(
        configs, mixes, TINY, workers=1,
        policy=RunPolicy(journal_path=journal, resume=True),
    )
    assert len(table.cells) == 4
    assert len(counted_runs) == 2  # only the two missing cells


def test_resume_works_across_process_isolation(tmp_path, matrix):
    """A journal written on supervised workers resumes the same way."""
    configs, mixes = matrix
    journal = tmp_path / "matrix.journal.jsonl"
    faults.install(FaultSpec("crash", "narrow", "M1", times=-1))
    first = run_matrix(
        configs, mixes, TINY, workers=2,
        policy=RunPolicy(journal_path=journal, **FAST),
    )
    assert first.failure("narrow", "M1").error_type == "WorkerCrash"
    faults.clear()
    second = run_matrix(
        configs, mixes, TINY, workers=2,
        policy=RunPolicy(journal_path=journal, resume=True),
    )
    assert len(second.cells) == 4 and not second.failures


def test_resume_rejects_mismatched_signature(tmp_path, matrix):
    configs, mixes = matrix
    journal = tmp_path / "matrix.journal.jsonl"
    run_matrix(
        configs, mixes, TINY, workers=1,
        policy=RunPolicy(journal_path=journal),
    )
    with pytest.raises(ValueError, match="different run"):
        run_matrix(
            configs, mixes, TINY, seed=7, workers=1,
            policy=RunPolicy(journal_path=journal, resume=True),
        )


SAMPLED = "detailed:100,warmup:100,detail_warmup:20,min_intervals:2"


@pytest.mark.parametrize(
    "written, resumed",
    [(SAMPLED, None), (None, SAMPLED), (SAMPLED, "on")],
)
def test_resume_refuses_a_different_sampling_plan(
    tmp_path, matrix, written, resumed
):
    """A sampled estimate is never handed back as a full-detail result
    (or the reverse, or an estimate under another plan)."""
    configs, mixes = matrix
    journal = tmp_path / "matrix.journal.jsonl"
    run_matrix(
        configs, mixes, TINY, workers=1, sampling=written,
        policy=RunPolicy(journal_path=journal),
    )
    with pytest.raises(ValueError, match="different run"):
        run_matrix(
            configs, mixes, TINY, workers=1, sampling=resumed,
            policy=RunPolicy(journal_path=journal, resume=True),
        )
    # Under the plan it was written with, the journal resumes as ever.
    table = run_matrix(
        configs, mixes, TINY, workers=1, sampling=written,
        policy=RunPolicy(journal_path=journal, resume=True),
    )
    assert len(table.cells) == 4
    assert all(
        bool(r.extra.get("sampled")) == bool(written)
        for r in table.cells.values()
    )


def _one_change(change, configs, mixes):
    """``run_matrix`` arguments equal to the journaled run's but for one
    input — every config and mix keeps its name."""
    if change == "config-contents":
        return dict(configs=[configs[0].derive(l2_assoc=8), configs[1]])
    if change == "mix-benchmarks":
        four_mcf = dataclasses.replace(mixes[0], benchmarks=("mcf",) * 4)
        return dict(mixes=[four_mcf, mixes[1]])
    if change == "checkers":
        return dict(checkers="all")
    return dict(sampling=SAMPLED)


@pytest.mark.parametrize(
    "change", ["config-contents", "mix-benchmarks", "checkers", "sampling"]
)
def test_resume_refuses_a_different_run(
    tmp_path, matrix, counted_runs, monkeypatch, change
):
    """A journal resumes only the run that wrote it: change any input
    that shapes a cell's result and resuming is refused before a single
    cell is simulated — never answered with the old run's cells."""
    monkeypatch.delenv(ENV_CHECK, raising=False)
    configs, mixes = matrix
    journal = tmp_path / "matrix.journal.jsonl"
    run_matrix(
        configs, mixes, TINY, workers=1,
        policy=RunPolicy(journal_path=journal),
    )
    counted_runs.clear()
    arguments = dict(configs=configs, mixes=mixes)
    arguments.update(_one_change(change, configs, mixes))
    with pytest.raises(ValueError, match="different run") as refused:
        run_matrix(
            scale=TINY, workers=1,
            policy=RunPolicy(journal_path=journal, resume=True),
            **arguments,
        )
    assert counted_runs == []
    # The refusal names what differs.
    named = {
        "config-contents": "signature.configs[0].l2_assoc",
        "mix-benchmarks": "signature.mixes[0].benchmarks",
        "checkers": "signature.checkers",
        "sampling": "signature.sampling",
    }[change]
    assert f"differs at {named}" in str(refused.value)


def test_resume_refuses_a_journal_with_an_older_header(
    tmp_path, matrix, counted_runs
):
    """A journal whose header predates the SweepSpec signature (config
    and mix names plus a config fingerprint) cannot vouch for its mix
    benchmarks or checkers: it is refused, never resumed."""
    configs, mixes = matrix
    journal = tmp_path / "matrix.journal.jsonl"
    run_matrix(
        configs, mixes, TINY, workers=1,
        policy=RunPolicy(journal_path=journal),
    )
    lines = journal.read_text().splitlines()
    header = json.loads(lines[0])
    header["signature"] = {
        "configs": [c.name for c in configs],
        "mixes": [m.name for m in mixes],
        "scale": TINY.name,
        "warmup_instructions": TINY.warmup_instructions,
        "measure_instructions": TINY.measure_instructions,
        "seed": 42,
        "config_fingerprint": "0" * 64,
    }
    lines[0] = json.dumps(header, sort_keys=True)
    journal.write_text("\n".join(lines) + "\n")
    counted_runs.clear()
    with pytest.raises(ValueError, match="different run"):
        run_matrix(
            configs, mixes, TINY, workers=1,
            policy=RunPolicy(journal_path=journal, resume=True),
        )
    assert counted_runs == []


def test_resume_accepts_unchanged_config_contents(tmp_path, matrix):
    """The signature is deterministic: a rebuilt identical matrix resumes."""
    configs, mixes = matrix
    journal = tmp_path / "matrix.journal.jsonl"
    run_matrix(
        configs, mixes, TINY, workers=1,
        policy=RunPolicy(journal_path=journal),
    )
    rebuilt = [_small("base"), _small("narrow", memory_bus="tsv8")]
    table = run_matrix(
        rebuilt, mixes, TINY, workers=1,
        policy=RunPolicy(journal_path=journal, resume=True),
    )
    assert len(table.cells) == 4 and not table.failures


def test_journal_tolerates_torn_final_line(tmp_path, matrix, counted_runs):
    configs, mixes = matrix
    journal = tmp_path / "matrix.journal.jsonl"
    run_matrix(
        configs, mixes, TINY, workers=1,
        policy=RunPolicy(journal_path=journal),
    )
    # Simulate a kill -9 mid-append: a truncated trailing record.
    intact = journal.read_text()
    last = intact.splitlines()[-1]
    journal.write_text(intact + last[: len(last) // 2])
    # Everything before the torn line survives.
    assert len(CellJournal.read(journal).completed) == 4

    counted_runs.clear()
    table = run_matrix(
        configs, mixes, TINY, workers=1,
        policy=RunPolicy(journal_path=journal, resume=True),
    )
    assert counted_runs == [] and len(table.cells) == 4


def test_resume_truncates_torn_tail_at_every_offset(tmp_path):
    """Byte-truncate a journal anywhere inside its final record: resume
    must (a) keep every record before the tear, (b) physically truncate
    the torn tail, and (c) leave the journal appendable — the next
    record must not glue onto torn bytes and corrupt the file."""
    from repro.experiments.persistence import scan_jsonl
    from repro.system.machine import CoreResult, MachineResult

    def result(mix):
        return MachineResult(
            config_name="base",
            workload=mix,
            cores=[CoreResult("mcf", 0.5, 1000.0, 2000.0, 12.0)],
            total_cycles=2000,
            l2_stats={"demand_accesses": 10.0},
            dram_row_hit_rate=0.5,
            mshr_avg_probes=1.0,
        )

    signature = SweepSpec(
        [_small("base")], [MIXES["M1"], MIXES["M2"]], TINY
    ).signature()
    master = tmp_path / "master.jsonl"
    with CellJournal.open(master, signature) as journal:
        journal.record_result("base", "M1", result("M1"))
        journal.record_result("base", "M2", result("M2"))
    intact = master.read_bytes()
    last_start = intact.rstrip(b"\n").rfind(b"\n") + 1

    for cut in range(last_start, len(intact)):
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(intact[:cut])
        # The trailing newline is the durability marker: every cut
        # inside the last record (even one keeping all of its JSON but
        # not the "\n") loses exactly that record and nothing else.
        assert len(CellJournal.read(torn).completed) == 1, f"cut at byte {cut}"

        with CellJournal.open(torn, signature, resume=True) as journal:
            journal.record_result("base", "M2", result("M2"))
        records, valid_bytes = scan_jsonl(torn)
        assert valid_bytes == torn.stat().st_size, f"cut at byte {cut}"
        assert len(records) == 3, f"cut at byte {cut}"  # header + M1 + M2
        assert len(CellJournal.read(torn).completed) == 2, f"cut at byte {cut}"


def test_journal_without_resume_restarts(tmp_path, matrix, counted_runs):
    configs, mixes = matrix
    journal = tmp_path / "matrix.journal.jsonl"
    run_matrix(
        configs, [MIXES["M1"]], TINY, workers=1,
        policy=RunPolicy(journal_path=journal),
    )
    counted_runs.clear()
    run_matrix(
        configs, [MIXES["M1"]], TINY, workers=1,
        policy=RunPolicy(journal_path=journal),  # no resume: fresh start
    )
    assert len(counted_runs) == 2


def test_journal_rejects_non_journal_file(tmp_path, matrix):
    configs, mixes = matrix
    path = tmp_path / "bogus.jsonl"
    path.write_text(json.dumps({"kind": "result"}) + "\n")
    with pytest.raises(ValueError, match="not a cell journal"):
        run_matrix(
            configs, mixes, TINY, workers=1,
            policy=RunPolicy(journal_path=path, resume=True),
        )


def test_journal_records_attempts_and_failures(tmp_path, matrix):
    configs, mixes = matrix
    journal = tmp_path / "matrix.journal.jsonl"
    faults.install(FaultSpec("raise", "base", "M3", times=1))
    run_matrix(
        configs, mixes, TINY, workers=1,
        policy=RunPolicy(journal_path=journal, retries=1, **FAST),
    )
    records = [json.loads(line) for line in journal.read_text().splitlines()]
    assert records[0]["kind"] == "header"
    assert records[0]["signature"] == SweepSpec(configs, mixes, TINY).signature()
    by_cell = {
        (r["config"], r["mix"]): r for r in records if r["kind"] == "result"
    }
    assert by_cell[("base", "M3")]["attempts"] == 2  # recovered on retry
