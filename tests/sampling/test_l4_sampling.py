"""L4 x sampling interplay: functional warmup must keep the shadow
tags sound without training the timing model.

A sampled cache-mode run skips most instructions functionally; those
skipped accesses still move architectural memory state, so they must
flow through the L4 *shadow* tag state (``functional_fetch`` /
``functional_writeback``) — otherwise the first
detailed interval after a skip sees a cache that missed the entire
warmup and every checker invariant about residency is fiction.  The
mirror constraint: the functional path must NOT touch timing-side
state (the L4 counters).
"""

from repro.common.units import KIB, MIB
from repro.sampling import SamplingPlan
from repro.system.config import config_3d_fast, config_l4_cache
from repro.system.machine import Machine, run_workload
from repro.workloads.mixes import MIXES

PLAN = SamplingPlan(detailed=300, warmup=600, detail_warmup=100,
                    min_intervals=4)


def _config():
    return config_l4_cache(8 * MIB, base=config_3d_fast())


def _sampled(seed=42, checkers="all"):
    mix = MIXES["H1"]
    return run_workload(
        _config(), list(mix.benchmarks),
        warmup_instructions=2000, measure_instructions=8000,
        seed=seed, workload_name=mix.name, sampling=PLAN,
        checkers=checkers,
    )


def test_sampled_cache_mode_runs_under_checkers_and_is_deterministic():
    first = _sampled()
    second = _sampled()
    assert first.extra["sampled"] == 1.0
    assert first.extra["l4_hit_rate"] == second.extra["l4_hit_rate"]
    assert first.extra["l4_offchip_reads"] == second.extra["l4_offchip_reads"]
    assert first.hmipc == second.hmipc
    # The detailed intervals really exercised the cache path.
    assert first.extra["l4_offchip_reads"] > 0


def test_functional_warmup_fills_shadow_tags_not_timing_state():
    """Drive the warmup paths directly against a fresh machine: the
    shadow tag array fills, while every l4 counter stays untouched."""
    mix = MIXES["H1"]
    machine = Machine(_config(), list(mix.benchmarks), seed=42,
                      workload_name=mix.name)
    facade = machine.l4
    assert facade is not None
    assert facade._tags.resident_lines == 0
    counters_before = dict(facade.stats.items())

    for i in range(2_000):
        addr = 64 * (i % 256)
        facade.functional_fetch(addr)
        if i % 5 == 0:
            facade.functional_writeback(addr)

    assert facade._tags.resident_lines > 0
    assert dict(facade.stats.items()) == counters_before


def test_sampled_run_warms_shadow_tags():
    mix = MIXES["H1"]
    machine = Machine(_config(), list(mix.benchmarks), seed=42,
                      workload_name=mix.name)
    machine.run(2000, 8000, sampling=PLAN)
    # By the end of a sampled run the shadow directory holds the
    # workload's resident set — proof the functional skips routed
    # through the L4 rather than around it.
    assert machine.l4._tags.resident_lines > 0


def test_checked_cache_mode_run_reads_and_writes_off_chip():
    """The checked L4 run exercises the whole off-chip channel: demand
    misses read from it, dirty L4 victims are written back to it, and
    every checker stays clean.  A small L2 and a functional warm-up
    leave the 8 MiB L4 full of lines the L2 wrote back dirty, so the
    detailed intervals' fills evict some of them."""
    mix = MIXES["VH3"]
    config = config_l4_cache(
        8 * MIB, base=config_3d_fast().derive(l2_size=256 * KIB)
    )
    machine = Machine(config, list(mix.benchmarks), seed=42,
                      workload_name=mix.name, checkers="all")
    machine.run(100_000, 8000, sampling=PLAN)
    l4 = dict(machine.l4.stats.items())
    assert l4["offchip_reads"] > 0
    assert l4["dirty_evictions"] > 0
    assert l4["offchip_writebacks"] == (
        l4["dirty_evictions"] + l4["writeback_misses"]
    )
    # Every read and write the L4 sent really issued on the channel.
    offchip = machine.l4.offchip.controllers
    issued = sum(mc.stats.get("issued") for mc in offchip)
    assert issued == l4["offchip_reads"] + l4["offchip_writebacks"]
