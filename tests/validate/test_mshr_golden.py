"""Golden-stats snapshots for the MSHR family.

Each organization is driven through the same fixed, seeded
allocate/search/deallocate stream (from ``tests.strategies``) with the
conservation checker attached, and its final statistics are compared
against pinned golden values.  Any change to probe counting, hashing,
slot placement, or the VBF presence filter shows up here as a concrete
numeric diff — review it, and re-pin only if the change is intended.

"dynamic" is the conventional file under a deterministic
``set_capacity_limit`` schedule, exercising the resize path the
:class:`~repro.mshr.dynamic.DynamicMshrTuner` uses at runtime.
"""

import pytest

from repro.mshr.factory import make_mshr
from repro.validate import MshrConservationChecker
from repro.validate.hooks import _wrap_mshr_file

from tests.strategies import address_stream

SEED = 1234
CAPACITY = 8
STREAM_LENGTH = 300

#: (organization, capacity-limit schedule step) -> final fingerprint:
#: (allocated, merged, stalled, freed, total_accesses, total_probes)
GOLDEN = {
    "conventional": (266, 34, 247, 266, 1079, 1079),
    "direct-mapped": (266, 34, 247, 266, 1079, 3896),
    "vbf": (266, 34, 247, 266, 1079, 1576),
    "dynamic": (277, 23, 262, 277, 1116, 1116),
}


def _drive(file, checker, limit_schedule=None):
    """Feed the fixed stream through a file; returns the fingerprint.

    Protocol mirrors the L2 miss path: search first, merge on hit,
    allocate on miss; on a structural stall retire the oldest
    outstanding lines until the allocation succeeds.  Every 25
    operations one line retires, keeping steady-state pressure near
    capacity.
    """
    stream = address_stream(SEED, length=STREAM_LENGTH, footprint_lines=64)
    outstanding = []
    allocated = merged = stalled = freed = 0
    for index, line in enumerate(stream):
        if limit_schedule is not None and index % 50 == 0:
            file.set_capacity_limit(limit_schedule[(index // 50) % len(limit_schedule)])
        entry, _ = file.search(line)
        if entry is not None:
            merged += 1
        else:
            entry, _ = file.allocate(line)
            while entry is None:
                stalled += 1
                file.deallocate(outstanding.pop(0))
                freed += 1
                entry, _ = file.allocate(line)
            allocated += 1
            outstanding.append(line)
        if index % 25 == 24 and outstanding:
            file.deallocate(outstanding.pop(0))
            freed += 1
    while outstanding:
        file.deallocate(outstanding.pop(0))
        freed += 1
    checker.assert_drained()
    return (
        allocated, merged, stalled, freed,
        file.total_accesses, file.total_probes,
    )


@pytest.mark.parametrize("organization", sorted(GOLDEN))
def test_golden_stats(organization):
    if organization == "dynamic":
        file = make_mshr("conventional", CAPACITY)
        schedule = (8, 4, 2, 6)
    else:
        file = make_mshr(organization, CAPACITY)
        schedule = None
    checker = MshrConservationChecker()
    checker.register_file(0, file, label=organization)
    _wrap_mshr_file(file, 0, checker)
    fingerprint = _drive(file, checker, schedule)
    assert fingerprint == GOLDEN[organization], (
        f"{organization}: fingerprint {fingerprint} != golden "
        f"{GOLDEN[organization]} — stats semantics changed; re-pin only "
        "if intended"
    )
    assert file.occupancy == 0
