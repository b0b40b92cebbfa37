"""Whole-machine state round-trips, in both directions.

Direction one: a preempted run resumed in a fresh machine must finish
with the exact result the uninterrupted run produces — over every shape
of :func:`repro.validate.diff.resume_shapes`, over randomized machines
that together draw every MSHR organization and scheduler, and across
processes with different hash seeds.  Direction two: restoring a
snapshot and immediately re-capturing must reproduce the snapshot's own
state tree, so a field the state walk drops or restores with a default
shows up as a tree diff right here, not as a divergence ten thousand
cycles later.  Nothing below depends on hash
ordering, so the suite passes under ``PYTHONHASHSEED=random`` (CI runs
it that way).
"""

import json
import os
import random
import subprocess
import sys
from collections import OrderedDict

import pytest

import repro
from repro.common import request as request_mod
from repro.common.errors import SnapshotError, SnapshotPreempted, SnapshotSchemaError
from repro.common.units import MIB
from repro.memctrl.schedulers import SCHEDULERS
from repro.mshr.factory import ORGANIZATIONS
from repro.experiments.spec import config_to_dict
from repro.snapshot import SnapshotPlan, preemption
from repro.snapshot import format as format_mod
from repro.snapshot.format import read_snapshot_file, write_snapshot_file
from repro.system.config import (
    config_2d,
    config_3d_fast,
    config_l4_cache,
    config_quad_mc,
)
from repro.system.machine import Machine
from repro.validate.diff import diff_resume, resume_shapes
from tests import missheavy
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
    machine.restore_state(tree)
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
        "MemoryRequestQueue", "Bank", "RefreshSchedule", "ActivationWindow",
        "Bus", "Counter",
    } <= classes
    # The engine queue holds plain (time, seq, fn, args) tuples.
    engine = tree["layouts"][_layout_index(tree, "Engine")]
    heap = next(
        node[2][engine[2].index("_heap")]
        for node in _walk(tree["root"])
        if type(node) is tuple and node[:2] == ("o", _layout_index(tree, "Engine"))
    )
    assert heap and all(entry[0] == "t" and len(entry[1]) == 4 for entry in heap)
    assert tree["created"]
    assert set(tree["request_globals"]) == {"next_request_id"}
    assert not any(
        isinstance(node, dict) and "v" in node for node in _walk(tree)
    )


def test_sampled_run_resumes_bit_identically(tmp_path):
    _assert_resumes_bit_identically("sampled", tmp_path)


def test_batch_iter_fed_run_resumes_bit_identically(tmp_path):
    """A trace chunked by ``batch_iter`` resumes by replaying batches.

    The resumed cursor pulls every batch before its captured position
    again from a fresh adapter, so position and items must line up.
    """
    name = missheavy.register_miss_heavy("streaming", 3, batch_size=7)
    path = tmp_path / "cell.snap"
    try:
        config = _small(config_3d_fast()).derive(name="1c-mh", num_cores=1)
        report, oracle, stitched = diff_resume(
            config, [name], warmup=WARMUP, measure=MEASURE, every=EVERY,
            snapshot_path=str(path), seed=7, workload_name="test",
            label="batch-iter",
        )
    finally:
        missheavy.unregister(name)
    assert report.identical, report.format()
    assert 0 < stitched.commands == oracle.commands
    # Preempted past the first batch, so the resume replayed whole
    # batches before seating the one the cursor sits in.
    _, tree = read_snapshot_file(str(path))
    (position,) = [
        node["batches_advanced"] for node in _walk(tree["root"])
        if isinstance(node, dict) and "batches_advanced" in node
    ]
    assert position > 1


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


def test_a_snapshot_in_the_previous_layout_is_refused(tmp_path, monkeypatch):
    """Schema 3 kept an ``Event`` object per queued callback and a
    ``Core._commit_event`` handle: its file is refused by the schema
    marker, and its layouts on their own would be refused too."""
    config = _small(config_3d_fast())
    path = str(tmp_path / "cell.snap")
    _preempt_to_file(config, None, path)
    header, tree = read_snapshot_file(path)
    for qualname, gone, added in (
        ("Core", {"_commit_at"}, {"_commit_event", "_hit_fast"}),
        ("Engine", {"_cancelled"}, set()),
    ):
        index = _layout_index(tree, qualname)
        module, _, fields = tree["layouts"][index]
        fields = tuple(sorted(set(fields) - gone | added))
        tree["layouts"][index] = (module, qualname, fields)
    tree["layouts"].append(
        ("repro.engine.event", "Event", ("args", "cancelled", "fn", "seq", "time"))
    )
    old = str(tmp_path / "schema3.snap")
    with monkeypatch.context() as patch:
        patch.setattr(format_mod, "SCHEMA_VERSION", 3)
        write_snapshot_file(
            old, tree, config_fingerprint=header["config_fingerprint"]
        )
    with pytest.raises(SnapshotSchemaError) as refused:
        read_snapshot_file(old)
    assert (refused.value.found, refused.value.expected) == (3, 11)
    fresh = _build(config)
    with pytest.raises(SnapshotSchemaError):
        fresh.restore_state(tree)
    assert fresh.engine.now == 0 and fresh.engine.pending == 0


def _as_schema_4(node):
    """``node`` with each packed list of dict sets retagged ``"ods"``,
    schema 4's tag for a packed list of ``OrderedDict`` sets."""
    if type(node) is tuple:
        items = tuple(map(_as_schema_4, node))
        return ("ods",) + items[1:] if node[:1] == ("ds",) else items
    if type(node) is list:
        return list(map(_as_schema_4, node))
    if type(node) is dict:
        return {_as_schema_4(k): _as_schema_4(v) for k, v in node.items()}
    return node


def test_a_snapshot_in_schema_4_is_refused(tmp_path, monkeypatch):
    """Schema 4 packed cache and TLB sets as ``OrderedDict`` nodes: its
    file is refused by the schema marker, and its tree on its own is
    refused too, leaving the machine untouched."""
    config = _small(config_3d_fast())
    path = str(tmp_path / "cell.snap")
    _preempt_to_file(config, None, path)
    header, tree = read_snapshot_file(path)
    tree = {key: _as_schema_4(value) for key, value in tree.items()}
    assert any(
        type(node) is tuple and node[:1] == ("ods",) for node in _walk(tree["root"])
    )
    old = str(tmp_path / "schema4.snap")
    with monkeypatch.context() as patch:
        patch.setattr(format_mod, "SCHEMA_VERSION", 4)
        write_snapshot_file(
            old, tree, config_fingerprint=header["config_fingerprint"]
        )
    with pytest.raises(SnapshotSchemaError) as refused:
        read_snapshot_file(old)
    assert (refused.value.found, refused.value.expected) == (4, 11)
    fresh = _build(config)
    with pytest.raises(SnapshotError):
        fresh.restore_state(tree)
    assert fresh.engine.now == 0 and fresh.engine.pending == 0


def test_a_snapshot_in_schema_5_is_refused(tmp_path, monkeypatch):
    """Schema 5 kept two run loops' state — a ``"sampled"`` tree key,
    the machine's own phase fields and the core's measurement-quota
    slots: its file is refused by the schema marker, and its layouts on
    their own would be refused too."""
    config = _small(config_3d_fast())
    path = str(tmp_path / "cell.snap")
    _preempt_to_file(config, None, path)
    header, tree = read_snapshot_file(path)
    tree["sampled"] = False
    for qualname, gone, added in (
        ("Core", set(), {
            "_commit_watch", "_measure_start_icount", "_measure_start_time",
            "frozen", "frozen_ipc", "measure_quota", "on_frozen",
        }),
        ("Machine", {"_driver"}, {
            "_core_results", "_measure_l2_start", "_run_args", "_run_phase",
            "_sampler", "_unfrozen_count", "_warmup_waiting",
        }),
    ):
        index = _layout_index(tree, qualname)
        module, _, fields = tree["layouts"][index]
        fields = tuple(sorted(set(fields) - gone | added))
        tree["layouts"][index] = (module, qualname, fields)
    old = str(tmp_path / "schema5.snap")
    with monkeypatch.context() as patch:
        patch.setattr(format_mod, "SCHEMA_VERSION", 5)
        write_snapshot_file(
            old, tree, config_fingerprint=header["config_fingerprint"]
        )
    with pytest.raises(SnapshotSchemaError) as refused:
        read_snapshot_file(old)
    assert (refused.value.found, refused.value.expected) == (5, 11)
    fresh = _build(config)
    with pytest.raises(SnapshotSchemaError):
        fresh.restore_state(tree)
    assert fresh.engine.now == 0 and fresh.engine.pending == 0


def test_a_snapshot_in_schema_6_is_refused(tmp_path, monkeypatch):
    """Schema 6 reached a controller's banks through a ``DramDevice``
    and its ``Rank`` objects: its file is refused by the schema marker,
    and its layouts on their own would be refused too."""
    config = _small(config_3d_fast())
    path = str(tmp_path / "cell.snap")
    _preempt_to_file(config, None, path)
    header, tree = read_snapshot_file(path)
    index = _layout_index(tree, "MemoryController")
    module, qualname, fields = tree["layouts"][index]
    fields = tuple(sorted(set(fields) - {"banks"} | {"device"}))
    tree["layouts"][index] = (module, qualname, fields)
    tree["layouts"] += [
        ("repro.dram.device", "DramDevice", ("_bank_grid", "ranks", "timing")),
        ("repro.dram.rank", "Rank",
         ("activations", "banks", "rank_id", "refresh", "timing")),
    ]
    old = str(tmp_path / "schema6.snap")
    with monkeypatch.context() as patch:
        patch.setattr(format_mod, "SCHEMA_VERSION", 6)
        write_snapshot_file(
            old, tree, config_fingerprint=header["config_fingerprint"]
        )
    with pytest.raises(SnapshotSchemaError) as refused:
        read_snapshot_file(old)
    assert (refused.value.found, refused.value.expected) == (6, 11)
    fresh = _build(config)
    with pytest.raises(SnapshotSchemaError):
        fresh.restore_state(tree)
    assert fresh.engine.now == 0 and fresh.engine.pending == 0


def _as_older_prefetch_layouts(tree, composite_fields, l1_gone, l1_added):
    """``tree``'s layouts as a build with ``CompositePrefetcher`` wrote
    them: the prefetcher under that class's name and fields, the L1's
    fields without ``l1_gone`` and with ``l1_added``."""
    index = _layout_index(tree, "Prefetcher")
    module, _, _ = tree["layouts"][index]
    tree["layouts"][index] = (module, "CompositePrefetcher", composite_fields)
    index = _layout_index(tree, "L1Cache")
    module, qualname, fields = tree["layouts"][index]
    fields = tuple(sorted(set(fields) - l1_gone | l1_added))
    tree["layouts"][index] = (module, qualname, fields)


def _refused_as_schema(tmp_path, monkeypatch, config, header, tree, schema):
    """Written under ``schema``, the file is refused by its marker, and
    the tree on its own is refused too, leaving the machine untouched."""
    old = str(tmp_path / f"schema{schema}.snap")
    with monkeypatch.context() as patch:
        patch.setattr(format_mod, "SCHEMA_VERSION", schema)
        write_snapshot_file(
            old, tree, config_fingerprint=header["config_fingerprint"]
        )
    with pytest.raises(SnapshotSchemaError) as refused:
        read_snapshot_file(old)
    assert (refused.value.found, refused.value.expected) == (schema, 11)
    fresh = _build(config)
    with pytest.raises(SnapshotSchemaError):
        fresh.restore_state(tree)
    assert fresh.engine.now == 0 and fresh.engine.pending == 0


def test_a_snapshot_in_schema_7_is_refused(tmp_path, monkeypatch):
    """Schema 7 predates the hit path's prefetch observer: the L1 held
    a ``CompositePrefetcher`` in its ``prefetcher`` field and nothing
    else.  Its file and its layouts are refused."""
    config = _small(config_3d_fast())
    path = str(tmp_path / "cell.snap")
    _preempt_to_file(config, None, path)
    header, tree = read_snapshot_file(path)
    _as_older_prefetch_layouts(
        tree, ("_hit_trained", "prefetchers"), {"_observe"}, set()
    )
    _refused_as_schema(tmp_path, monkeypatch, config, header, tree, 7)


def test_a_snapshot_in_schema_8_is_refused(tmp_path, monkeypatch):
    """Schema 8 built the prefetcher as a ``CompositePrefetcher`` whose
    ``hit_observer`` the L1 copied, and kept an ``MshrEntry.issued``
    slot: its file and its layouts are refused."""
    config = _small(config_3d_fast())
    path = str(tmp_path / "cell.snap")
    _preempt_to_file(config, None, path)
    header, tree = read_snapshot_file(path)
    _as_older_prefetch_layouts(
        tree,
        ("_hit_trained", "hit_observer", "prefetchers"),
        {"_observe"},
        {"_hit_observer"},
    )
    index = _layout_index(tree, "MshrEntry")
    module, qualname, fields = tree["layouts"][index]
    tree["layouts"][index] = (module, qualname, fields + ("issued",))
    _refused_as_schema(tmp_path, monkeypatch, config, header, tree, 8)


def test_a_snapshot_in_schema_9_is_refused(tmp_path, monkeypatch):
    """Schema 9 read instance dicts, not declared slots, and kept an
    ``L1Cache.prefetcher`` field that only the restore read: its file
    and its layouts are refused."""
    config = _small(config_3d_fast())
    path = str(tmp_path / "cell.snap")
    _preempt_to_file(config, None, path)
    header, tree = read_snapshot_file(path)
    index = _layout_index(tree, "L1Cache")
    module, qualname, fields = tree["layouts"][index]
    fields = tuple(sorted(fields + ("prefetcher",)))
    tree["layouts"][index] = (module, qualname, fields)
    at = fields.index("prefetcher")
    for node in _walk(tree["root"]):
        if type(node) is tuple and node[:2] == ("o", index):
            node[2].insert(at, None)
    _refused_as_schema(tmp_path, monkeypatch, config, header, tree, 9)


def test_a_snapshot_in_schema_10_is_refused(tmp_path, monkeypatch):
    """Schema 10 kept the L1's miss file as a ``ConventionalMshr`` with
    no ``L1Cache.mshr_entries`` cap beside it, and the MRQ's entry list
    in a ``_entries`` slot: its file and its layouts are refused."""
    config = _small(config_3d_fast())
    path = str(tmp_path / "cell.snap")
    _preempt_to_file(config, None, path)
    header, tree = read_snapshot_file(path)
    index = _layout_index(tree, "L1Cache")
    module, qualname, fields = tree["layouts"][index]
    at = fields.index("mshr_entries")
    tree["layouts"][index] = (
        module, qualname, fields[:at] + fields[at + 1:]
    )
    for node in _walk(tree["root"]):
        if type(node) is tuple and node[:2] == ("o", index):
            del node[2][at]
    index = _layout_index(tree, "MemoryRequestQueue")
    module, qualname, fields = tree["layouts"][index]
    assert fields == ("capacity", "entries")
    tree["layouts"][index] = (module, qualname, ("_entries", "capacity"))
    for node in _walk(tree["root"]):
        if type(node) is tuple and node[:2] == ("o", index):
            node[2].reverse()
    _refused_as_schema(tmp_path, monkeypatch, config, header, tree, 10)


def test_cache_and_tlb_sets_pack_into_one_node_per_array(tmp_path):
    """Every set list of a cache array or TLB is one flat ``"ds"`` node
    (lengths, keys, values), not a numbered node per set."""
    config = _small(config_l4_cache(base=config_3d_fast()))
    path = str(tmp_path / "cell.snap")
    _preempt_to_file(config, None, path)
    _, tree = read_snapshot_file(path)
    for qualname in ("CacheArray", "Tlb"):
        index = _layout_index(tree, qualname)
        field = tree["layouts"][index][2].index("_sets")
        nodes = [
            node[2][field]
            for node in _walk(tree["root"])
            if type(node) is tuple and node[:2] == ("o", index)
        ]
        assert nodes and all(node[0] == "ds" for node in nodes), qualname
        for _, lengths, keys, values in nodes:
            assert len(keys) == len(values) == sum(lengths)
        assert any(sum(node[1]) for node in nodes), qualname


def _l4_set_lengths(tree):
    """The L4 tag array's ``"ds"`` lengths: its set list is the long one."""
    index = _layout_index(tree, "CacheArray")
    field = tree["layouts"][index][2].index("_sets")
    return max(
        (
            node[2][field][1]
            for node in _walk(tree["root"])
            if type(node) is tuple and node[:2] == ("o", index)
        ),
        key=len,
    )


def test_an_l4_with_most_sets_unbuilt_resumes_bit_identically(tmp_path):
    """Mid-run the L4 tag store has built few of its 131,072 sets: each
    unbuilt one packs as length 0, stays unbuilt on the resumed machine,
    and the resumed run ends exactly as the uninterrupted one."""
    config = SHAPES["l4-cache"][0]
    path = str(tmp_path / "cell.snap")
    _preempt_to_file(config, None, path)
    _, tree = read_snapshot_file(path)
    lengths = _l4_set_lengths(tree)
    assert len(lengths) == 131_072
    assert 0 < len(lengths) - lengths.count(0) < len(lengths) // 100

    fresh = _build(config)
    fresh.restore_state(tree)
    sets = fresh.l4._tags.array._sets
    assert [0 if s is None else len(s) for s in sets] == lengths
    assert sets.count(None) == lengths.count(0)
    assert fresh.capture_state() == tree

    _assert_resumes_bit_identically("l4-cache", tmp_path / "resume")


def test_a_snapshot_with_every_set_built_still_resumes(tmp_path):
    """Before sets were built on first fill, a machine held a dict for
    every set.  A snapshot of such a machine restores, and its run ends
    exactly as the uninterrupted one."""
    config = SHAPES["l4-cache"][0]
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
    arrays = [machine.l4._tags.array, machine.l2.array]
    arrays += [l1.array for l1 in machine.l1s]
    for array in arrays:
        array._sets[:] = [{} if s is None else s for s in array._sets]
    machine.snapshot(path)

    oracle = _build(config).run(WARMUP, MEASURE)
    resumed = _build(config)
    resumed.resume(path)
    assert resumed.run(WARMUP, MEASURE) == oracle


def test_an_ordered_dict_in_the_machine_is_refused():
    """No machine state holds an ``OrderedDict``; one that appears in a
    container field is refused by name rather than silently encoded as
    a plain dict."""
    machine = _build(_small(config_2d()))
    machine.l2._inclusion_listeners.append(OrderedDict(a=1))
    with pytest.raises(SnapshotError, match="cannot snapshot a OrderedDict"):
        machine.capture_state()


@pytest.mark.parametrize("stray", [random.Random(1), bytearray(b"ab")])
def test_a_random_generator_in_the_machine_is_refused(stray):
    """No machine state holds a ``random.Random`` or a ``bytearray``, and
    the codec has no kind for either: one that appears in a container
    field is refused by name."""
    machine = _build(_small(config_2d()))
    machine.l2._inclusion_listeners.append(stray)
    name = type(stray).__qualname__
    with pytest.raises(SnapshotError, match=f"cannot snapshot a {name}"):
        machine.capture_state()


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
    """Every declared field is state: fields no seam names, changed on
    a component after preemption — the L2's bank occupancy and a core's
    construction-time CPI — both come back on the resumed machine."""
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
    assert machine.l2.bank_occupancy != 5
    machine.l2.bank_occupancy = 5
    machine.cores[0].base_cpi = 0.625
    machine.snapshot(path)

    fresh = _build(config)
    fresh.restore_state(read_snapshot_file(path)[1])
    assert fresh.l2.bank_occupancy == 5
    assert fresh.cores[0].base_cpi == 0.625


#: Seeds of randomized machines (tests/strategies.py): together they
#: draw every MSHR organization, the dynamic tuner, every scheduler (the
#: write-drain one keeps its drain mode across a restore) and the
#: four-MC machine — the restore-sensitive state none of the fixed
#: shapes reaches.
RANDOM_RESUMES = [15, 35, 0, 2, 9]


def test_random_resumes_cover_every_restore_sensitive_draw():
    configs = [random_system_config(seed) for seed in RANDOM_RESUMES]
    assert {c.l2_mshr_organization for c in configs} == set(ORGANIZATIONS)
    assert any(c.l2_mshr_dynamic for c in configs)
    assert {c.scheduler for c in configs} == set(SCHEDULERS)
    quad = config_quad_mc()
    assert any(
        (c.num_mcs, c.total_ranks) == (quad.num_mcs, quad.total_ranks)
        for c in configs
    )


@pytest.mark.parametrize(
    "seed", RANDOM_RESUMES, ids=[f"seed{s}" for s in RANDOM_RESUMES]
)
def test_random_machine_resumes_bit_identically(seed, tmp_path):
    report, oracle, stitched = diff_resume(
        random_system_config(seed), random_benchmarks(seed),
        warmup=WARMUP, measure=MEASURE, every=EVERY,
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
