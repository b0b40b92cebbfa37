"""Micro-benchmarks of the core data structures (real wall-clock timing).

These use pytest-benchmark conventionally (many iterations) and guard
against performance regressions in the structures the simulator leans
on: the event engine, the VBF MSHR, and the DRAM bank model.
"""

import random

from repro.dram.bank import Bank
from repro.dram.refresh import RefreshSchedule
from repro.dram.timing import true_3d
from repro.engine import Engine
from repro.mshr.conventional import ConventionalMshr
from repro.mshr.direct_mapped import DirectMappedMshr
from repro.mshr.vbf_mshr import VbfMshr


def test_engine_event_throughput(benchmark):
    """The tracked engine workload: 32 interleaved delay chains.

    A deep queue of short, mixed delays is where the calendar-queue
    insert path earns its keep.
    """

    def run():
        engine = Engine()
        counter = [0]

        def tick(delay):
            counter[0] += 1
            if counter[0] < 10_000:
                engine.schedule(delay, tick, delay)

        for i in range(32):
            engine.schedule(i % 13 + 1, tick, i % 13 + 1)
        engine.run()
        return counter[0]

    assert benchmark(run) >= 10_000


def test_engine_chain_throughput(benchmark):
    """Secondary: a single delay-1 chain (queue depth ~1, pure dispatch)."""

    def run():
        engine = Engine()
        counter = [0]

        def tick():
            counter[0] += 1
            if counter[0] < 10_000:
                engine.schedule(1, tick)

        engine.schedule(0, tick)
        engine.run()
        return counter[0]

    assert benchmark(run) == 10_000


def _mshr_workload(mshr, operations):
    live = []
    rng = random.Random(7)
    for op in range(operations):
        if live and (len(live) >= mshr.capacity or rng.random() < 0.5):
            line = live.pop(rng.randrange(len(live)))
            mshr.search(line)
            mshr.deallocate(line)
        else:
            line = rng.randrange(1 << 20) * 64
            found, _ = mshr.search(line)
            if found is None and not mshr.is_full:
                mshr.allocate(line)
                live.append(line)
    return mshr.total_probes


def test_vbf_mshr_throughput(benchmark):
    probes = benchmark(lambda: _mshr_workload(VbfMshr(32), 5_000))
    assert probes > 0


def test_linear_probe_mshr_throughput(benchmark):
    probes = benchmark(lambda: _mshr_workload(DirectMappedMshr(32), 5_000))
    assert probes > 0


def test_conventional_mshr_throughput(benchmark):
    probes = benchmark(lambda: _mshr_workload(ConventionalMshr(32), 5_000))
    assert probes > 0


def test_dram_bank_access_throughput(benchmark):
    def run():
        timing = true_3d()
        bank = Bank(timing, RefreshSchedule(timing, phase=10**9), 4)
        time = 0
        rng = random.Random(3)
        for _ in range(5_000):
            data_time, _ = bank.access(time, rng.randrange(64), False)
            time = data_time
        return time

    assert benchmark(run) > 0
