"""Whole-machine state round-trips, in both directions.

Direction one: a preempted run resumed in a fresh machine must finish
with the exact result the uninterrupted run produces.  Direction two:
restoring a snapshot and immediately re-capturing must reproduce the
snapshot's own state tree — every component's seam is exercised, and a
field a component forgets to capture (or restores with a default) shows
up as a tree diff right here, not as a divergence ten thousand cycles
later.  Nothing below depends on hash ordering, so the suite passes
under ``PYTHONHASHSEED=random`` (CI runs it that way).
"""

import pytest

from repro.common.errors import SnapshotPreempted
from repro.common.units import MIB
from repro.snapshot import SnapshotPlan, preemption
from repro.snapshot.format import read_snapshot_file
from repro.system.config import config_2d, config_3d_fast, config_l4_cache
from repro.system.machine import Machine
from repro.validate.diff import diff_resume, resume_shapes

MIX = ["gzip", "namd", "mesa", "astar"]  # light, quick to simulate
WARMUP = 500
MEASURE = 2000
EVERY = 1000  # snapshot boundary cadence, well inside the run


def _small(config):
    return config.derive(l2_size=1 * MIB, l2_assoc=16, dram_capacity=64 * MIB)


#: The production shape list over cut-down bases: name -> (config,
#: checkers, sampling plan).
SHAPES = resume_shapes(
    fast=_small(config_3d_fast()), baseline=_small(config_2d())
)
FULL_DETAIL = [name for name, shape in SHAPES.items() if shape[2] is None]


def _build(config, checkers=None):
    return Machine(
        config, MIX, seed=7, workload_name="test", checkers=checkers
    )


def _preempt_to_file(config, checkers, path):
    machine = _build(config, checkers)
    preemption.clear()
    preemption.request_preemption()
    try:
        machine.run(
            WARMUP, MEASURE,
            snapshot=SnapshotPlan(path=path, every=EVERY, preemptible=True),
        )
    except SnapshotPreempted as exc:
        return exc
    finally:
        preemption.clear()
    raise AssertionError("run finished without hitting a snapshot boundary")


def _assert_resumes_bit_identically(name, tmp_path):
    """Transcript, stat tables and result of preempt+resume == oracle."""
    config, checkers, plan = SHAPES[name]
    report, oracle, stitched = diff_resume(
        config, MIX, warmup=WARMUP, measure=MEASURE, every=EVERY,
        snapshot_path=str(tmp_path / "cell.snap"), seed=7,
        workload_name="test", checkers=checkers, sampling=plan, label=name,
    )
    assert report.identical, report.format()
    # Preempted mid-run: commands on both sides of the boundary.
    assert 0 < stitched.commands == oracle.commands


@pytest.mark.parametrize("name", FULL_DETAIL)
def test_resumed_run_matches_uninterrupted(name, tmp_path):
    _assert_resumes_bit_identically(name, tmp_path)


@pytest.mark.parametrize("name", FULL_DETAIL)
def test_restore_then_recapture_reproduces_the_tree(name, tmp_path):
    """capture -> restore -> capture is the identity on state trees."""
    config, checkers, _ = SHAPES[name]
    path = str(tmp_path / "cell.snap")
    exc = _preempt_to_file(config, checkers, path)
    header, tree = read_snapshot_file(str(path))
    assert header["meta"]["cycle"] == exc.cycle

    machine = _build(config, checkers)
    machine.resume(path)
    machine._apply_restore()
    assert machine.engine.now == exc.cycle
    recaptured = machine.capture_state()
    assert recaptured == tree


def test_tree_covers_every_wired_component(tmp_path):
    """Each component the machine registers appears in the state tree."""
    config = _small(config_l4_cache(base=config_3d_fast()))
    path = str(tmp_path / "cell.snap")
    _preempt_to_file(config, None, path)
    _, tree = read_snapshot_file(path)
    machine = _build(config)
    assert len(tree["cores"]) == len(machine.cores)
    assert len(tree["l1s"]) == len(machine.l1s)
    for key in ("engine", "memory", "l2", "stats", "objects",
                "request_globals", "allocator"):
        assert tree[key] is not None


def test_sampled_run_resumes_bit_identically(tmp_path):
    _assert_resumes_bit_identically("sampled", tmp_path)


def test_core_state_from_before_the_parking_rule_is_refused():
    """Core state v1 carried fused-dispatch backoff counters and no
    parked tally; restoring one must fail whole, not half-apply."""
    from repro.common.errors import SnapshotSchemaError

    config = _small(config_3d_fast())
    machine = _build(config)
    tree = machine.capture_state()
    assert all(core["v"] == 3 for core in tree["cores"])
    assert not any("fuse_fails" in core for core in tree["cores"])
    tree["cores"][0] = dict(tree["cores"][0], v=1, fuse_fails=0, fuse_skip=0)
    fresh = _build(config)
    with pytest.raises(SnapshotSchemaError):
        fresh.restore_state(tree)


def test_core_state_v2_is_refused():
    """Core state v2 carried the row-iterator form's held item and
    consumption count beside the cursor; v3 has the cursor only, and a
    v2 tree must fail whole, not half-apply."""
    from repro.common.errors import SnapshotSchemaError

    config = _small(config_3d_fast())
    tree = _build(config).capture_state()
    assert all(core["v"] == 3 for core in tree["cores"])
    assert not any(
        key in core
        for core in tree["cores"]
        for key in ("pending_item", "trace_items")
    )
    assert all(core["cursor"] is not None for core in tree["cores"])
    tree["cores"][0] = dict(
        tree["cores"][0], v=2, pending_item=None, trace_items=0
    )
    fresh = _build(config)
    with pytest.raises(SnapshotSchemaError):
        fresh.restore_state(tree)


def test_controller_state_from_before_the_drain_removal_is_refused():
    """MemoryController state v1 carried the fused drain's eight
    backoff/tally keys; restoring one must fail whole, not half-apply."""
    from repro.common.errors import SnapshotSchemaError

    config = _small(config_3d_fast())
    tree = _build(config).capture_state()
    controllers = tree["memory"]["controllers"]
    assert all(mc["v"] == 2 for mc in controllers)
    assert not any(
        key.startswith(("fuse", "fs_")) for mc in controllers for key in mc
    )
    controllers[0] = dict(
        controllers[0], v=1, fused_enabled=True, fuse_state=None,
        fuse_fails=0, fuse_skip=0, fs_windows=0, fs_fused_issues=0,
        fs_scalar_pumps=0, fuse_breaks=[],
    )
    fresh = _build(config)
    with pytest.raises(SnapshotSchemaError):
        fresh.restore_state(tree)


def test_mid_run_checkpoint_size_stays_under_its_ceiling(tmp_path):
    """Checkpoint cost as a count: the bytes one mid-run snapshot of the
    figure-4 smoke cell writes (99.6 kB when pinned; it is the state
    walk and the fsync'd write that a periodic snapshot pays).  A seam
    that starts capturing regenerable state — trace batches, whole stat
    histories — lands well past the ceiling."""
    import os

    from repro.workloads.mixes import MIXES

    path = str(tmp_path / "cell.snap")
    machine = Machine(
        config_2d(), list(MIXES["H1"].benchmarks), seed=42,
        workload_name="H1",
    )
    preemption.clear()
    preemption.request_preemption()
    try:
        with pytest.raises(SnapshotPreempted) as caught:
            machine.run(
                2_000, 8_000,
                snapshot=SnapshotPlan(
                    path=path, every=40_000, preemptible=True
                ),
            )
    finally:
        preemption.clear()
    assert caught.value.cycle == 40_000  # mid-run: the cell ends ~85k
    assert 32 * 1024 < os.path.getsize(path) < 128 * 1024
