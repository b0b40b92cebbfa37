"""Golden-value regression pins.

These assert exact metric values for fixed (config, workload, seed,
scale) points.  They exist to catch *unintended* model drift: any change
to timing, scheduling, or workload generation shows up here first.

If you changed the model ON PURPOSE, re-pin: run the printed command and
update the constants — and say so in your commit message.
"""

import hashlib
import json

import pytest

from repro.common.units import MIB
from repro.system.config import (
    config_2d,
    config_3d_fast,
    config_dual_mc,
    config_l4_cache,
    config_quad_mc,
    with_mshr,
)
from repro.system.machine import Machine, run_workload
from repro.workloads.mixes import MIXES

#: The golden mix, M1's four benchmarks (a hit-bound point) and H1's
#: (the miss path's end state below).
MIX = ["S.copy", "mcf", "gzip", "milc"]
M1 = list(MIXES["M1"].benchmarks)
H1 = list(MIXES["H1"].benchmarks)


def config_quad_mc_vbf():
    """Section 4-5's end state: 4 MCs, 16 ranks, VBF MSHRs x8 and the
    dynamic tuner (the ledger's ``mha_quadmc`` machine)."""
    return with_mshr(config_quad_mc(), "vbf", scale=8, dynamic=True)


def _derive(config):
    return config.derive(l2_size=1 * MIB, l2_assoc=16, dram_capacity=64 * MIB)


def _run(config, benchmarks):
    return run_workload(
        _derive(config),
        benchmarks,
        warmup_instructions=1_000,
        measure_instructions=4_000,
        seed=42,
    )


def _pinned_run(config, benchmarks, checkers=None):
    """The machine of the same run as :func:`_run` and its ``(hmipc,
    engine.events_fired, sha256 of the canonical JSON of
    registry.dump())``."""
    machine = Machine(_derive(config), benchmarks, seed=42, checkers=checkers)
    result = machine.run(warmup_instructions=1_000, measure_instructions=4_000)
    dump = json.dumps(machine.registry.dump(), sort_keys=True, separators=(",", ":"))
    return machine, (
        result.hmipc,
        machine.engine.events_fired,
        hashlib.sha256(dump.encode()).hexdigest(),
    )


def _pins(config, benchmarks):
    return _pinned_run(config, benchmarks)[1]


# Re-pin with:
#   python -c "from tests.integration.test_golden import show; show()"
# Last re-pin: canonical core placement (benchmark instances are
# assigned to slots in sorted order, so a mix is a multiset — see
# Machine.__init__).  The event counts and registry digests pin the
# event order too: a speed-only change that reorders same-cycle events
# can leave HMIPC in place and still move them.
GOLDEN_2D_HMIPC = 0.20015846288262218
GOLDEN_2D_EVENTS = 30151
GOLDEN_2D_REGISTRY_SHA256 = "829adcc3eefa84f2234613e4d6f797e5396086b989023328835ffb5e20c193f2"
GOLDEN_3DFAST_HMIPC = 0.45431550105189666
GOLDEN_3DFAST_EVENTS = 28961
GOLDEN_3DFAST_REGISTRY_SHA256 = "e6a42d7a19973a3cd9bfd63048935363f046eb526c5a32d861ba257f468b64a0"
GOLDEN_3DFAST_M1_HMIPC = 0.8613168271939103
GOLDEN_3DFAST_M1_EVENTS = 11516
GOLDEN_3DFAST_M1_REGISTRY_SHA256 = "beeacf7e2617d122eb4fecb5fc628fbd217389164d8bfddaad6caddb32939b3a"
# The multi-MC, VBF and L4-facade miss paths: MRQ rejections and
# retries, banked MSHR files, prefetch merges, and the stack-mode
# facade under the L2.
GOLDEN_QUADMC_VBF_H1_HMIPC = 0.8228862251384035
GOLDEN_QUADMC_VBF_H1_EVENTS = 39464
GOLDEN_QUADMC_VBF_H1_REGISTRY_SHA256 = "fc0ac88da7ec1c15fe82e95bf32ec775ee3cd45357ae66a7b461e7c2fabda262"
GOLDEN_L4_CACHE_HMIPC = 0.2212929479391529
GOLDEN_L4_CACHE_EVENTS = 35482
GOLDEN_L4_CACHE_REGISTRY_SHA256 = "c8f0bd423c89bdc4cf369071d497cc75a6bc06512ff92f40ec8a5e0af9cf1c27"
GOLDEN_DUAL_MC_HMIPC = 0.528121012211739
GOLDEN_DUAL_MC_EVENTS = 28872
GOLDEN_DUAL_MC_REGISTRY_SHA256 = "60eb3bf6bbf9cd5408891e81ce3cff609ff2d9a8125c4e51770c01a39eb11d9f"

POINTS = {
    "2d": (config_2d, MIX),
    "3d_fast": (config_3d_fast, MIX),
    "3d_fast_m1": (config_3d_fast, M1),
    "quad_mc_vbf_h1": (config_quad_mc_vbf, H1),
    "l4_cache": (config_l4_cache, MIX),
    "dual_mc": (config_dual_mc, MIX),
}


def show():  # pragma: no cover - re-pinning helper
    for prefix, key in (
        ("GOLDEN_2D", "2d"), ("GOLDEN_3DFAST", "3d_fast"),
        ("GOLDEN_3DFAST_M1", "3d_fast_m1"),
        ("GOLDEN_QUADMC_VBF_H1", "quad_mc_vbf_h1"),
        ("GOLDEN_L4_CACHE", "l4_cache"), ("GOLDEN_DUAL_MC", "dual_mc"),
    ):
        config, benchmarks = POINTS[key]
        hmipc, events, digest = _pins(config(), benchmarks)
        print(f"{prefix}_HMIPC = {hmipc!r}")
        print(f"{prefix}_EVENTS = {events}")
        print(f'{prefix}_REGISTRY_SHA256 = "{digest}"')


def _check(key, hmipc, events, digest, checkers=None):
    """Assert ``key``'s pins; returns the machine that ran."""
    config, benchmarks = POINTS[key]
    machine, got = _pinned_run(config(), benchmarks, checkers)
    assert got[0] == pytest.approx(hmipc, rel=1e-12)
    assert got[1:] == (events, digest)
    return machine


def test_golden_2d():
    _check(
        "2d", GOLDEN_2D_HMIPC, GOLDEN_2D_EVENTS, GOLDEN_2D_REGISTRY_SHA256
    )


def test_golden_3d_fast():
    _check(
        "3d_fast",
        GOLDEN_3DFAST_HMIPC,
        GOLDEN_3DFAST_EVENTS,
        GOLDEN_3DFAST_REGISTRY_SHA256,
    )


def test_golden_3d_fast_hit_bound_m1():
    _check(
        "3d_fast_m1",
        GOLDEN_3DFAST_M1_HMIPC,
        GOLDEN_3DFAST_M1_EVENTS,
        GOLDEN_3DFAST_M1_REGISTRY_SHA256,
    )


def test_golden_quad_mc_vbf_dynamic_h1():
    _check(
        "quad_mc_vbf_h1",
        GOLDEN_QUADMC_VBF_H1_HMIPC,
        GOLDEN_QUADMC_VBF_H1_EVENTS,
        GOLDEN_QUADMC_VBF_H1_REGISTRY_SHA256,
    )


def test_golden_l4_cache():
    _check(
        "l4_cache",
        GOLDEN_L4_CACHE_HMIPC,
        GOLDEN_L4_CACHE_EVENTS,
        GOLDEN_L4_CACHE_REGISTRY_SHA256,
    )


def test_golden_dual_mc():
    _check(
        "dual_mc",
        GOLDEN_DUAL_MC_HMIPC,
        GOLDEN_DUAL_MC_EVENTS,
        GOLDEN_DUAL_MC_REGISTRY_SHA256,
    )


@pytest.mark.parametrize(
    "key, pins",
    [
        ("quad_mc_vbf_h1", (
            GOLDEN_QUADMC_VBF_H1_HMIPC,
            GOLDEN_QUADMC_VBF_H1_EVENTS,
            GOLDEN_QUADMC_VBF_H1_REGISTRY_SHA256,
        )),
        ("l4_cache", (
            GOLDEN_L4_CACHE_HMIPC,
            GOLDEN_L4_CACHE_EVENTS,
            GOLDEN_L4_CACHE_REGISTRY_SHA256,
        )),
    ],
    ids=["quad_mc_vbf_h1", "l4_cache"],
)
def test_checked_run_keeps_the_pins_and_sees_every_issue(key, pins):
    """Every checker attached, the run still gives the unchecked pins,
    and the wrapped seams see every operation: the timing checker one
    bank access per controller ``issued``, the queue checker every
    accepted enqueue.  An inlined ``Bank.access`` or ``_issue`` call
    would leave these counts short."""
    machine = _check(key, *pins, checkers="all")
    timing = machine.checker_set["dram-timing"]
    queue = machine.checker_set["queue"]
    for controller in machine.memory.controllers:
        issued = controller.stats.get("issued")
        accesses = sum(
            shadow.accesses
            for (mc_id, _, _), shadow in timing._shadows.items()
            if mc_id == controller.mc_id
        )
        assert issued > 0
        assert accesses == issued, controller.mc_id
        assert queue.accepts[controller.mc_id] == controller.stats.get(
            "mrq_accepts"
        )


def test_golden_run_is_reproducible_within_session():
    a = _run(config_2d(), ["S.copy", "mcf", "gzip", "milc"])
    b = _run(config_2d(), ["S.copy", "mcf", "gzip", "milc"])
    assert a.hmipc == b.hmipc
    assert a.total_cycles == b.total_cycles


def test_benchmark_order_does_not_affect_results():
    """A mix is a multiset: canonical placement makes permutations of
    the same benchmarks simulate identically (per-core values included),
    with results reported in the caller's order."""
    a = _run(config_2d(), ["S.copy", "mcf", "gzip", "milc"])
    b = _run(config_2d(), ["milc", "gzip", "mcf", "S.copy"])
    assert a.hmipc == b.hmipc
    assert a.total_cycles == b.total_cycles
    assert [c.benchmark for c in b.cores] == ["milc", "gzip", "mcf", "S.copy"]
    by_name_a = {c.benchmark: (c.ipc, c.instructions, c.l2_mpki) for c in a.cores}
    by_name_b = {c.benchmark: (c.ipc, c.instructions, c.l2_mpki) for c in b.cores}
    assert by_name_a == by_name_b


def test_repeated_benchmarks_keep_distinct_identities():
    """The k-th occurrence of a repeated benchmark is a stable identity
    under permutation (distinct trace seed and VA base per occurrence)."""
    a = _run(config_2d(), ["S.all", "mcf", "S.all", "gzip"])
    b = _run(config_2d(), ["gzip", "S.all", "mcf", "S.all"])
    assert a.hmipc == b.hmipc
    assert a.total_cycles == b.total_cycles
