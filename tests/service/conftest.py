"""Shared fixtures for the sweep-service tests.

Everything runs at a tiny instruction budget (300 warmup / 1000
measured) so the whole suite, forked workers included, stays in CI
territory.  Fault state is cleared around every test — a leaked fault
spec would poison unrelated tests in the same process.
"""

import pytest

from repro.common.units import MIB
from repro.experiments import faults
from repro.experiments.spec import SweepSpec
from repro.service.supervisor import ServicePolicy
from repro.system.config import config_3d_fast
from repro.system.machine import CoreResult, MachineResult
from repro.system.scale import ExperimentScale
from repro.workloads.mixes import MIXES

TINY = ExperimentScale("tiny", 300, 1000)


def small_config(name, **overrides):
    """A cut-down 3D config that simulates quickly at TINY scale."""
    return config_3d_fast().derive(
        name=name,
        l2_size=1 * MIB,
        l2_assoc=16,
        dram_capacity=64 * MIB,
        **overrides,
    )


def fabricated_result(mix_name, config_name="base", ipc=0.5):
    """A synthetic MachineResult for cache/queue tests (no simulation)."""
    return MachineResult(
        config_name=config_name,
        workload=mix_name,
        cores=[CoreResult("mcf", ipc, 1000.0, 1000.0 / ipc, 12.345)],
        total_cycles=int(1000.0 / ipc),
        l2_stats={"demand_accesses": 10.0, "demand_misses": 3.0},
        dram_row_hit_rate=0.515,
        mshr_avg_probes=1.25,
    )


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    faults.clear()


def tiny_sweep_spec():
    """2 configs x 2 mixes at TINY scale (4 cells)."""
    return SweepSpec(
        configs=(
            small_config("base"),
            small_config("narrow", memory_bus="tsv8"),
        ),
        mixes=(MIXES["M1"], MIXES["M3"]),
        scale=TINY,
    )


def fast_service_policy(workers=2):
    """Quick heartbeats/backoff so failure paths resolve in milliseconds."""
    return ServicePolicy(
        workers=workers,
        heartbeat_interval=0.05,
        heartbeat_timeout=2.0,
        retries=1,
        backoff_base=0.01,
        backoff_max=0.05,
    )


@pytest.fixture()
def tiny_spec():
    return tiny_sweep_spec()


@pytest.fixture()
def one_cell_spec():
    return SweepSpec(
        configs=(small_config("base"),), mixes=(MIXES["M1"],), scale=TINY
    )


@pytest.fixture()
def fast_policy():
    return fast_service_policy()
