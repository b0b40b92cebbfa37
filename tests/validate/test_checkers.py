"""Unit and integration tests for the runtime invariant checkers."""

from types import SimpleNamespace

import pytest

from repro.common.errors import CheckViolation
from repro.experiments import faults
from repro.mshr.factory import make_mshr
from repro.system.config import config_2d, config_3d_fast
from repro.system.machine import Machine
from repro.validate import (
    CHECKER_NAMES,
    CheckerSet,
    MshrConservationChecker,
    QueueConservationChecker,
    resolve_checker_names,
)
from repro.validate.hooks import _wrap_mshr_file, bank_observers

TINY = dict(warmup_instructions=300, measure_instructions=1000)


# ----------------------------------------------------------------------
# Spec resolution
# ----------------------------------------------------------------------
def test_resolve_checker_names_forms():
    assert resolve_checker_names(None) == ()
    assert resolve_checker_names(False) == ()
    assert resolve_checker_names("") == ()
    assert resolve_checker_names(True) == CHECKER_NAMES
    assert resolve_checker_names("all") == CHECKER_NAMES
    assert resolve_checker_names("mshr") == ("mshr",)
    # Canonical order regardless of input order; duplicates dropped.
    assert resolve_checker_names("queue, dram-timing,queue") == (
        "dram-timing",
        "queue",
    )
    assert resolve_checker_names(["queue", "mshr"]) == ("mshr", "queue")


def test_resolve_checker_names_rejects_unknown():
    with pytest.raises(ValueError, match="unknown checker"):
        resolve_checker_names("dram-timing,bogus")


def test_checker_set_lookup():
    checker = MshrConservationChecker()
    checker_set = CheckerSet([checker])
    assert checker_set["mshr"] is checker
    assert len(checker_set) == 1
    with pytest.raises(KeyError):
        checker_set["queue"]


# ----------------------------------------------------------------------
# MSHR conservation checker (unit, against a real wrapped file)
# ----------------------------------------------------------------------
def _wrapped_file(organization="conventional", capacity=4):
    checker = MshrConservationChecker()
    file = make_mshr(organization, capacity)
    checker.register_file(0, file, label="test")
    _wrap_mshr_file(file, 0, checker)
    return checker, file


def test_mshr_clean_lifecycle_passes():
    checker, file = _wrapped_file()
    for line in (0x40, 0x80, 0xC0):
        entry, _ = file.allocate(line)
        assert entry is not None
    assert file.search(0x80)[0] is not None
    assert file.search(0x1000)[0] is None
    for line in (0x40, 0x80, 0xC0):
        file.deallocate(line)
    checker.assert_drained()
    assert checker.operations_checked == 8


def test_mshr_duplicate_allocation_caught():
    from repro.mshr.base import MshrEntry

    checker, file = _wrapped_file()
    file.allocate(0x40)
    # A buggy file that hands out a second entry for a live line (the
    # conventional file raises on its own; the checker must catch the
    # organizations that would silently overwrite).
    with pytest.raises(CheckViolation, match="duplicate allocation"):
        checker.on_allocate(0, 0x40, MshrEntry(0x40), 1)


def test_mshr_false_negative_caught():
    checker, file = _wrapped_file()
    file.allocate(0x40)
    with pytest.raises(CheckViolation, match="false negative"):
        checker.on_search(0, 0x40, None, 1)


def test_mshr_phantom_deallocate_caught():
    checker, file = _wrapped_file()
    with pytest.raises(CheckViolation, match="no tracked entry"):
        checker.on_deallocate(0, 0x40, 1)


def test_mshr_occupancy_leak_caught():
    checker, file = _wrapped_file()
    file.allocate(0x40)
    file.occupancy += 1  # simulate a bookkeeping bug
    with pytest.raises(CheckViolation, match="occupancy"):
        file.allocate(0x80)


def test_mshr_leak_reported_on_drain():
    checker, file = _wrapped_file()
    file.allocate(0x40)
    checker.finish()  # in-flight entries are legal at end of run...
    with pytest.raises(CheckViolation, match="still"):
        checker.assert_drained()  # ...but not after a drained workload


@pytest.mark.parametrize("organization", ["conventional", "direct-mapped", "vbf"])
def test_mshr_checker_clean_across_organizations(organization):
    checker, file = _wrapped_file(organization, capacity=8)
    lines = [i * 0x40 for i in range(12)]
    outstanding = []
    for line in lines:
        entry, _ = file.allocate(line)
        if entry is None:
            file.deallocate(outstanding.pop(0))
            entry, _ = file.allocate(line)
            assert entry is not None
        outstanding.append(line)
        file.search(line)
    for line in outstanding:
        file.deallocate(line)
    checker.assert_drained()


# ----------------------------------------------------------------------
# Queue conservation checker (unit, against a stub controller)
# ----------------------------------------------------------------------
class _FakeMrq:
    def __init__(self, capacity):
        self.capacity = capacity
        self.items = []

    def __len__(self):
        return len(self.items)


def _queue_checker(capacity=2):
    checker = QueueConservationChecker()
    controller = SimpleNamespace(
        mc_id=0, engine=SimpleNamespace(now=0), mrq=_FakeMrq(capacity)
    )
    checker.register_controller(0, controller)
    return checker, controller


def _request(addr=0x40):
    from repro.common.request import AccessType, MemoryRequest

    return MemoryRequest(addr, AccessType.READ)


def test_queue_spurious_reject_caught():
    checker, controller = _queue_checker(capacity=2)
    with pytest.raises(CheckViolation, match="spurious backpressure"):
        checker.on_enqueue(0, _request(), accepted=False)


def test_queue_lifecycle_and_double_accept():
    checker, controller = _queue_checker()
    request = _request()
    controller.mrq.items.append(request)
    checker.on_enqueue(0, request, accepted=True)
    with pytest.raises(CheckViolation, match="accepted again"):
        checker.on_enqueue(0, request, accepted=True)


def test_queue_issue_requires_accept():
    checker, controller = _queue_checker()
    entry = SimpleNamespace(request=_request())
    with pytest.raises(CheckViolation, match="not tracked"):
        checker.on_issue(0, entry)


def test_queue_retire_requires_issue():
    checker, controller = _queue_checker()
    request = _request()
    controller.mrq.items.append(request)
    checker.on_enqueue(0, request, accepted=True)
    request.completed_at = 10
    with pytest.raises(CheckViolation, match="retire"):
        checker.on_retire(0, request)


def test_queue_mrq_length_conservation_caught():
    checker, controller = _queue_checker()
    request = _request()
    # Request accepted but never put into the MRQ: length mismatch.
    with pytest.raises(CheckViolation, match="MRQ"):
        checker.on_enqueue(0, request, accepted=True)


def test_queue_full_lifecycle_clean():
    checker, controller = _queue_checker()
    request = _request()
    controller.mrq.items.append(request)
    checker.on_enqueue(0, request, accepted=True)
    controller.mrq.items.remove(request)
    checker.on_issue(0, SimpleNamespace(request=request))
    # The chained callback drives on_retire through complete().
    request.complete(99)
    checker.assert_drained()
    assert checker.retired[0] == 1
    assert checker.in_flight == 0


# ----------------------------------------------------------------------
# Whole-machine integration
# ----------------------------------------------------------------------
def test_machine_with_all_checkers_clean():
    machine = Machine(config_2d(), ["mcf"] * 4, checkers="all")
    machine.run(**TINY)
    assert machine.checker_set is not None
    assert machine.checker_set["dram-timing"].accesses_checked > 0
    assert machine.checker_set["mshr"].operations_checked > 0
    assert sum(machine.checker_set["queue"].retired.values()) > 0


def test_machine_without_checkers_is_uninstrumented():
    machine = Machine(config_2d(), ["mcf"] * 4)
    assert machine.checker_set is None
    for controller in machine.memory.controllers:
        assert not hasattr(controller, "_validate_wrapped")
        for rank in controller.banks:
            for bank in rank:
                assert bank_observers(bank) is None
    for file in machine.l2_mshr_files:
        assert not hasattr(file, "_validate_wrapped")


def test_machine_subset_of_checkers():
    machine = Machine(config_2d(), ["mcf"] * 4, checkers="queue")
    machine.run(**TINY)
    assert len(machine.checker_set) == 1
    with pytest.raises(KeyError):
        machine.checker_set["mshr"]


def test_timing_fault_is_caught_on_aggressive_config():
    faults.install(faults.parse_fault("timing:*:*:-1:0.5"))
    try:
        machine = Machine(
            config_3d_fast(), ["mcf"] * 4, workload_name="T", checkers="all"
        )
        with pytest.raises(CheckViolation) as excinfo:
            machine.run(**TINY)
    finally:
        faults.clear()
    assert excinfo.value.checker == "dram-timing"
    assert excinfo.value.constraint


def test_timing_fault_respects_cell_coordinates():
    faults.install(faults.parse_fault("timing:other-config:*:-1:0.5"))
    try:
        machine = Machine(
            config_2d(), ["mcf"] * 4, workload_name="T", checkers="all"
        )
        machine.run(**TINY)  # fault targets a different config: clean
    finally:
        faults.clear()
