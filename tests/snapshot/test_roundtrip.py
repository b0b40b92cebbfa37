"""Whole-machine state round-trips, in both directions.

Direction one: a preempted run resumed in a fresh machine must finish
with the exact result the uninterrupted run produces — over every shape
of :func:`repro.validate.diff.resume_shapes`, over randomized machines
that together draw every MSHR organization, replacement policy and
scheduler, and across processes with different hash seeds.  Direction
two: restoring a snapshot and immediately re-capturing must reproduce
the snapshot's own state tree, so a field the state walk drops or
restores with a default shows up as a tree diff right here, not as a
divergence ten thousand cycles later.  Nothing below depends on hash
ordering, so the suite passes under ``PYTHONHASHSEED=random`` (CI runs
it that way).
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cache.replacement import POLICIES
from repro.common import request as request_mod
from repro.common.errors import SnapshotError, SnapshotPreempted, SnapshotSchemaError
from repro.common.units import MIB
from repro.memctrl.schedulers import SCHEDULERS
from repro.mshr.factory import ORGANIZATIONS
from repro.experiments.spec import config_to_dict
from repro.snapshot import SnapshotPlan, preemption
from repro.snapshot.format import read_snapshot_file
from repro.system.config import (
    config_2d,
    config_3d_fast,
    config_l4_cache,
    config_quad_mc,
)
from repro.system.machine import Machine
from repro.validate.diff import diff_resume, resume_shapes
from tests.strategies import random_benchmarks, random_system_config

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


def _walk(node):
    """Every node of a state tree, depth first."""
    stack = [node]
    while stack:
        item = stack.pop()
        yield item
        if isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())


def test_tree_covers_every_wired_component(tmp_path):
    """Each component the machine wires has its layout in the tree, and
    no state anywhere carries a per-component version key."""
    config = _small(config_l4_cache(base=config_3d_fast()))
    path = str(tmp_path / "cell.snap")
    _preempt_to_file(config, None, path)
    _, tree = read_snapshot_file(path)
    classes = {qualname for _, qualname, _ in tree["layouts"]}
    assert {
        "Machine", "Engine", "StatRegistry", "PageAllocator", "Core",
        "BatchedTrace", "L1Cache", "BankedL2Cache", "CacheArray",
        "StackModeMemory", "SramTagStore", "MainMemory", "MemoryController",
        "MemoryRequestQueue", "DramDevice", "Rank", "Bank", "RefreshSchedule",
        "Bus", "Counter", "Event",
    } <= classes
    assert tree["created"]
    assert set(tree["request_globals"]) == {"next_request_id"}
    assert not any(
        isinstance(node, dict) and "v" in node for node in _walk(tree)
    )


def test_sampled_run_resumes_bit_identically(tmp_path):
    _assert_resumes_bit_identically("sampled", tmp_path)


def _layout_index(tree, qualname):
    return next(
        index
        for index, (_, name, _) in enumerate(tree["layouts"])
        if name == qualname
    )


def _add_field(tree):
    """The running code sets a field this tree (from before the field
    existed) lacks: drop one of the L2's fields from its layout and
    from the L2's values alike."""
    index = _layout_index(tree, "BankedL2Cache")
    module, qualname, fields = tree["layouts"][index]
    dropped = fields.index("latency")
    tree["layouts"][index] = (module, qualname, fields[:dropped] + fields[dropped + 1:])
    for node in _walk(tree["root"]):
        if type(node) is tuple and node[:2] == ("o", index):
            del node[2][dropped]


def _remove_field(tree):
    """The tree carries a slot the running code no longer has."""
    index = _layout_index(tree, "Core")
    module, qualname, fields = tree["layouts"][index]
    tree["layouts"][index] = (module, qualname, tuple(sorted(fields + ("fuse_fails",))))


def _unknown_class(tree):
    index = _layout_index(tree, "Engine")
    module, _, fields = tree["layouts"][index]
    tree["layouts"][index] = (module, "TimingWheelEngine", fields)


@pytest.mark.parametrize(
    "change", [_add_field, _remove_field, _unknown_class],
    ids=["field-added", "field-removed", "unknown-class"],
)
def test_tree_with_a_different_layout_is_refused_whole(change, tmp_path):
    """A layout that differs from the running code — the check the
    hand-bumped per-seam versions used to make — fails before a single
    write reaches the fresh machine."""
    config = _small(config_3d_fast())
    path = str(tmp_path / "cell.snap")
    _preempt_to_file(config, None, path)
    _, tree = read_snapshot_file(path)
    change(tree)
    fresh = _build(config)
    stats = fresh.registry.dump()
    request_ids = request_mod.capture_globals()
    with pytest.raises(SnapshotSchemaError):
        fresh.restore_state(tree)
    assert fresh.engine.now == 0 and fresh.engine.pending == 0
    assert fresh.registry.dump() == stats
    assert request_mod.capture_globals() == request_ids
    assert all(core.trace.cursor().batches_advanced == 0 for core in fresh.cores)


def test_a_checked_machine_cannot_break_an_unchecked_one():
    """Building a checked machine while an unchecked run is suspended
    changes nothing for that run: checking is per machine, never a
    process-wide switch."""
    config = _small(config_2d())
    streams = ["S.all"] * 4  # keeps requests in flight at every boundary

    def build(checkers=None):
        return Machine(config, streams, seed=7, checkers=checkers)

    oracle = build().run(
        WARMUP, MEASURE, snapshot=SnapshotPlan(every=EVERY, write=False)
    )
    plan = SnapshotPlan(every=EVERY, write=False, preemptible=True)
    machine = build()
    preemption.clear()
    preemption.request_preemption()
    try:
        with pytest.raises(SnapshotPreempted):
            machine.run(WARMUP, MEASURE, snapshot=plan)
    finally:
        preemption.clear()
    assert machine.outstanding_requests() > 0
    build(checkers="all")
    assert machine.run(WARMUP, MEASURE, snapshot=plan) == oracle


def test_engine_refuses_capture_from_inside_a_callback():
    """A snapshot taken mid-run would see a half-fired cycle: refused
    from run() and step() alike, and allowed again once they return."""
    machine = _build(_small(config_3d_fast()))
    engine = machine.engine
    refusals = []

    def capture():
        with pytest.raises(SnapshotError, match="inside an event callback"):
            machine.capture_state()
        refusals.append(engine.now)

    engine.schedule(1, capture)
    engine.schedule(2, capture)
    assert engine.step()
    engine.run()
    assert refusals == [1, 2]
    tree = machine.capture_state()
    assert "Event" not in {name for _, name, _ in tree["layouts"]}


def test_a_field_no_seam_names_survives_resume(tmp_path):
    """Every instance field is state: an attribute set on a component
    after preemption, and a construction value changed mid-run, both
    come back on the resumed machine."""
    config = _small(config_3d_fast())
    path = str(tmp_path / "cell.snap")
    machine = _build(config)
    preemption.clear()
    preemption.request_preemption()
    try:
        with pytest.raises(SnapshotPreempted):
            machine.run(
                WARMUP, MEASURE,
                snapshot=SnapshotPlan(path=path, every=EVERY, preemptible=True),
            )
    finally:
        preemption.clear()
    machine.l2.replay_marker = ("set after preemption", 7)
    machine.cores[0].base_cpi = 0.625
    machine.snapshot(path)

    fresh = _build(config)
    fresh.resume(path)
    fresh._apply_restore()
    assert fresh.l2.replay_marker == ("set after preemption", 7)
    assert fresh.cores[0].base_cpi == 0.625


#: (seed, L2 replacement policy) for randomized machines
#: (tests/strategies.py): together they draw every MSHR organization,
#: the dynamic tuner, every replacement policy, every scheduler (the
#: write-drain one keeps its drain mode across a restore) and the
#: four-MC machine — the restore-sensitive state none of the fixed
#: shapes reaches.
RANDOM_RESUMES = [
    (15, "lru"), (35, "random"), (0, "srrip"), (2, "lru"), (9, "random"),
]


def _random_machine(seed, policy):
    config = random_system_config(seed).derive(l2_replacement=policy)
    return config, random_benchmarks(seed)


def test_random_resumes_cover_every_restore_sensitive_draw():
    configs = [_random_machine(seed, policy)[0] for seed, policy in RANDOM_RESUMES]
    assert {c.l2_mshr_organization for c in configs} == set(ORGANIZATIONS)
    assert any(c.l2_mshr_dynamic for c in configs)
    assert {c.l2_replacement for c in configs} == set(POLICIES)
    assert {c.scheduler for c in configs} == set(SCHEDULERS)
    quad = config_quad_mc()
    assert any(
        (c.num_mcs, c.total_ranks) == (quad.num_mcs, quad.total_ranks)
        for c in configs
    )


@pytest.mark.parametrize(
    "seed,policy", RANDOM_RESUMES, ids=[f"seed{s}" for s, _ in RANDOM_RESUMES]
)
def test_random_machine_resumes_bit_identically(seed, policy, tmp_path):
    config, benchmarks = _random_machine(seed, policy)
    report, oracle, stitched = diff_resume(
        config, benchmarks, warmup=WARMUP, measure=MEASURE, every=EVERY,
        snapshot_path=str(tmp_path / "cell.snap"), seed=seed,
        label=f"seed{seed}",
    )
    assert report.identical, report.format()
    assert 0 < stitched.commands == oracle.commands


_CHILD = """
import json, sys
from dataclasses import asdict
from repro.common.errors import SnapshotPreempted
from repro.experiments.spec import config_from_dict
from repro.snapshot import SnapshotPlan, preemption
from repro.system.machine import Machine

mode, config_path, snap, out, warmup, measure, every = sys.argv[1:]
warmup, measure, every = int(warmup), int(measure), int(every)
with open(config_path) as handle:
    spec = json.load(handle)
machine = Machine(
    config_from_dict(spec["config"]), spec["mix"], seed=7, workload_name="test"
)
if mode == "capture":
    preemption.request_preemption()
    try:
        machine.run(
            warmup, measure,
            snapshot=SnapshotPlan(path=snap, every=every, preemptible=True),
        )
    except SnapshotPreempted:
        sys.exit(0)
    sys.exit("run finished before its first snapshot boundary")
if mode == "resume":
    machine.resume(snap)
result = machine.run(warmup, measure, snapshot=SnapshotPlan(every=every, write=False))
with open(out, "w") as handle:
    json.dump(
        {"result": asdict(result), "stats": machine.registry.dump()},
        handle, sort_keys=True,
    )
"""

CROSS_PROCESS = {
    "l4-cache": SHAPES["l4-cache"][0],
    "quad-vbf-dynamic": _small(config_quad_mc()).derive(
        name="quad-vbf-dyn", l2_mshr_organization="vbf", l2_mshr_dynamic=True
    ),
}


@pytest.mark.parametrize("name", sorted(CROSS_PROCESS))
def test_resume_in_another_process_matches_an_oracle(name, tmp_path):
    """Capture under one hash seed, resume under another: result and
    stat tables equal an uninterrupted run under a third."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"config": config_to_dict(CROSS_PROCESS[name]), "mix": MIX}
    ))
    snap = str(tmp_path / "cell.snap")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    pythonpath = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )

    def child(mode, hash_seed):
        out = tmp_path / f"{mode}.json"
        subprocess.run(
            [sys.executable, "-c", _CHILD, mode, str(spec), snap, str(out),
             str(WARMUP), str(MEASURE), str(EVERY)],
            env=dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=pythonpath),
            check=True,
        )
        return out

    child("capture", 1)
    resumed = child("resume", 2).read_text()
    oracle = child("oracle", 3).read_text()
    assert resumed == oracle


def test_mid_run_checkpoint_size_stays_under_its_ceiling(tmp_path):
    """Checkpoint cost as a count: the bytes one mid-run snapshot of the
    figure-4 smoke cell writes (96.2 kB when pinned; it is the state
    walk and the fsync'd write that a periodic snapshot pays).  A component that
    starts holding regenerable state — trace batches, whole stat
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
