"""Machine assembly and simulation driving.

``Machine`` wires a :class:`~repro.system.config.SystemConfig` and a list
of benchmark names into a complete simulated system.  :meth:`Machine.run`
runs the paper's methodology — warm up, then freeze each core's
statistics at its instruction quota while it keeps executing — or, given
a sampling plan, the sampled schedule; both are the one schedule of
:mod:`repro.system.run`.  Results are harmonic-mean IPC plus per-core
MPKI.
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import astuple, dataclass, field
from typing import Dict, List, Optional, Sequence

from ..common.address import PageAllocator
from ..common.stats import StatRegistry
from ..cache.array import CacheArray
from ..cache.l1 import L1Cache
from ..cache.l2 import BankedL2Cache
from ..cache.prefetch import Prefetcher
from ..cache.l3 import StackedL3
from ..cache.tlb import Tlb
from ..cpu.core import Core
from ..dram.timing import DramTiming, ddr2_commodity, stacked_commodity, true_3d
from ..common.errors import (
    SimulationDeadlock,
    SimulationHang,
    SnapshotConfigMismatch,
    SnapshotError,
    SnapshotPreempted,
)
from ..engine.simulator import Engine
from ..interconnect.bus import Bus
from ..interconnect.links import offchip_fsb, tsv_bus
from ..memctrl.memsys import MainMemory
from ..mshr.dynamic import DynamicMshrTuner
from ..mshr.factory import make_mshr
from ..workloads.benchmarks import get_benchmark
from .config import SystemConfig
from .run import RunDriver

#: Per-core virtual address spacing; generators stay far below this.
CORE_VA_STRIDE = 1 << 40


def _timing_for(config: SystemConfig) -> DramTiming:
    if config.dram_timing == "2d":
        return ddr2_commodity()
    if config.dram_timing == "3d-commodity":
        return stacked_commodity()
    return true_3d()


def _bus_factory(config: SystemConfig, registry: StatRegistry):
    def factory(name: str) -> Bus:
        stats = registry.group(name)
        if config.memory_bus == "fsb":
            return offchip_fsb(stats=stats, name=name)
        width = 8 if config.memory_bus == "tsv8" else 64
        return tsv_bus(width_bytes=width, stats=stats, name=name)

    return factory


@dataclass
class CoreResult:
    """Measured-window results for one core."""

    benchmark: str
    ipc: float
    instructions: float
    cycles: float
    l2_mpki: float
    avg_load_latency: float = 0.0  # mean L1-to-data cycles over the window


@dataclass
class MachineResult:
    """Results of one simulation run."""

    config_name: str
    workload: str
    cores: List[CoreResult]
    total_cycles: int
    l2_stats: Dict[str, float]
    dram_row_hit_rate: float
    mshr_avg_probes: float
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def hmipc(self) -> float:
        """Harmonic mean IPC (the paper's per-workload metric).

        The reciprocals are summed in sorted order so the value is
        bit-identical however the cores are listed (float addition is
        not associative; canonical placement makes permuted mixes
        simulate identically and this keeps the reduction identical
        too).
        """
        if any(core.ipc <= 0 for core in self.cores):
            return 0.0
        return len(self.cores) / sum(sorted(1.0 / core.ipc for core in self.cores))


class Machine:
    """A fully wired simulated system."""

    __slots__ = (
        "config", "workload_name", "_requested_benchmarks", "_seed",
        "_slot_of_request", "engine", "registry", "allocator", "memory", "l4",
        "_l4_tag_shave", "l2_mshr_files", "l3", "l2", "cores", "l1s",
        "_benchmarks", "tuner", "_driver", "_pending_restore", "sample_log",
        "checker_set", "_checker_names",
    )

    def __init__(
        self,
        config: SystemConfig,
        benchmarks: Sequence[str],
        seed: int = 42,
        workload_name: str = "",
        checkers=None,
    ) -> None:
        """Wire a machine.

        Args:
            checkers: runtime invariant checkers to attach (``"all"``,
                a comma-separated string, or an iterable of names from
                :data:`repro.validate.CHECKER_NAMES`).  ``None`` (the
                default) attaches nothing and adds zero overhead.
        """
        if len(benchmarks) != config.num_cores:
            raise ValueError(
                f"{config.num_cores} cores need {config.num_cores} benchmarks, "
                f"got {len(benchmarks)}"
            )
        self.config = config
        self.workload_name = workload_name or "+".join(benchmarks)
        # Construction spec, kept verbatim for the snapshot config
        # fingerprint: a checkpoint only resumes onto a machine built
        # from the same (config, benchmarks, seed) tuple.
        self._requested_benchmarks = list(benchmarks)
        self._seed = seed
        # Canonical core placement: a workload is a *multiset* of
        # benchmark instances — the cores are homogeneous, so which
        # physical slot runs which instance is an implementation detail,
        # not part of the experiment.  Slots are filled in sorted
        # benchmark order (ties keep the caller's relative order, so the
        # k-th occurrence of a repeated benchmark is a stable identity);
        # per-slot trace seeds and VA bases therefore depend only on the
        # multiset.  Two permutations of the same mix simulate
        # identically and share one cell key; results are
        # still reported in the caller's order (see _build_result).
        placement = sorted(range(len(benchmarks)), key=lambda i: (benchmarks[i], i))
        self._slot_of_request = [0] * len(benchmarks)
        for slot, request_index in enumerate(placement):
            self._slot_of_request[request_index] = slot
        placed_benchmarks = [benchmarks[i] for i in placement]
        self.engine = Engine()
        self.registry = StatRegistry()
        self.allocator = PageAllocator(
            page_size=config.page_size, capacity_bytes=config.dram_capacity
        )

        self.memory = MainMemory(
            self.engine,
            _timing_for(config),
            bus_factory=_bus_factory(config, self.registry),
            registry=self.registry,
            num_mcs=config.num_mcs,
            total_ranks=config.total_ranks,
            banks_per_rank=config.banks_per_rank,
            row_buffer_entries=config.row_buffer_entries,
            aggregate_queue_capacity=config.mrq_capacity,
            scheduler=config.scheduler,
            mc_quantum=config.mc_quantum,
            mc_transaction_overhead=config.mc_transaction_overhead,
            page_size=config.page_size,
            line_size=config.line_size,
        )

        # Stack as an L4 (repro.stack3d.modes): in "cache" mode the
        # stack built above becomes an L4 in front of a commodity
        # off-chip channel — the 2D baseline's one MC, 8 ranks and
        # 32-entry MRQ — behind the same MainMemory interface.  In
        # "memory" mode this block is skipped entirely — zero new
        # objects, stat groups, or branches on the request path (gated
        # bit-for-bit by ``tests/stack3d/test_mode_equivalence.py``).
        self.l4 = None
        self._l4_tag_shave = 0
        l2_size = config.l2_size
        if config.stack_mode == "cache":
            from ..stack3d.modes import StackModeMemory, sram_tag_bytes

            def _offchip_bus(name: str) -> Bus:
                return offchip_fsb(stats=self.registry.group(name), name=name)

            offchip = MainMemory(
                self.engine,
                ddr2_commodity(),
                bus_factory=_offchip_bus,
                registry=self.registry,
                num_mcs=1,
                total_ranks=8,
                banks_per_rank=config.banks_per_rank,
                row_buffer_entries=1,
                aggregate_queue_capacity=32,
                scheduler=config.scheduler,
                mc_quantum=2,
                mc_transaction_overhead=12,
                page_size=config.page_size,
                line_size=config.line_size,
                # Globally unique MC ids and "offchip."-prefixed stat
                # groups: transcripts and checkers stay unambiguous, and the
                # stack power model (bank prefix "dram.") keeps counting
                # only stack banks.
                first_mc_id=config.num_mcs,
                stat_prefix="offchip.",
            )
            self.l4 = StackModeMemory(
                self.engine,
                self.memory,
                offchip,
                self.registry,
                capacity=config.l4_capacity,
                assoc=config.l4_assoc,
                tag_latency=config.l4_tag_latency,
                mshr_entries=16,
                warm_start=config.l4_warm_start,
                line_size=config.line_size,
            )
            self.memory = self.l4
            if config.l4_sram_tag_cost:
                # SRAM tags are not free: the directory's bytes come out
                # of the L2 (down to at most half of it, whole sets).
                quantum = config.l2_assoc * config.line_size
                shave = min(
                    sram_tag_bytes(config.l4_capacity, config.line_size),
                    l2_size // 2,
                )
                l2_size = max(quantum, ((l2_size - shave) // quantum) * quantum)
                self._l4_tag_shave = config.l2_size - l2_size

        # L2 MSHR banks: one per MC in the streamlined organization,
        # each with the configured per-bank capacity.
        self.l2_mshr_files = [
            make_mshr(
                config.l2_mshr_organization,
                config.l2_mshr_per_bank,
                config.line_size,
            )
            for _ in range(config.num_mcs)
        ]

        l2_prefetcher = Prefetcher(config.line_size) if config.l2_prefetch else None
        request_bus = None
        if config.l2_interleave == "line":
            # Conventional banking: a single shared bus between all L2
            # banks and all MCs (what the streamlined floorplan removes).
            request_bus = tsv_bus(
                width_bytes=8,
                stats=self.registry.group("l2.shared_bus"),
                name="l2.shared_bus",
            )
        self.l3: Optional[StackedL3] = None
        l2_backend = self.memory
        if config.l3_enabled:
            self.l3 = StackedL3(
                self.engine,
                CacheArray(config.l3_size, config.l3_assoc, config.line_size),
                self.memory,
                latency=config.l3_latency,
                registry=self.registry,
            )
            l2_backend = self.l3
        self.l2 = BankedL2Cache(
            self.engine,
            CacheArray(l2_size, config.l2_assoc, config.line_size),
            l2_backend,
            self.l2_mshr_files,
            registry=self.registry,
            num_banks=config.l2_banks,
            interleave=config.l2_interleave,
            latency=config.l2_latency,
            page_size=config.page_size,
            prefetcher=l2_prefetcher,
            request_bus=request_bus,
        )

        self.cores: List[Core] = []
        self.l1s: List[L1Cache] = []
        for core_id, benchmark_name in enumerate(placed_benchmarks):
            spec = get_benchmark(benchmark_name)
            l1_prefetcher = (
                Prefetcher(config.line_size) if config.l1_prefetch else None
            )
            l1 = L1Cache(
                self.engine,
                core_id,
                CacheArray(config.l1_size, config.l1_assoc, config.line_size),
                config.l1_mshr_entries,
                self.l2,
                registry=self.registry,
                latency=config.l1_latency,
                prefetcher=l1_prefetcher,
            )
            trace = spec.trace(core_id * CORE_VA_STRIDE, seed + core_id)
            tlb = None
            if config.dtlb_enabled:
                tlb = Tlb(
                    entries=config.dtlb_entries,
                    assoc=config.dtlb_assoc,
                    page_size=config.page_size,
                    walk_penalty=config.dtlb_walk_penalty,
                    stats=self.registry.group(f"dtlb.core{core_id}"),
                )
            core = Core(
                self.engine,
                core_id,
                trace,
                l1,
                self.allocator,
                registry=self.registry,
                width=config.dispatch_width,
                rob_size=config.rob_size,
                base_cpi=spec.base_cpi,
                tlb=tlb,
            )
            self.l2.register_upper_level(l1)
            self.l1s.append(l1)
            self.cores.append(core)
        self._benchmarks = placed_benchmarks

        self.tuner: Optional[DynamicMshrTuner] = None
        if config.l2_mshr_dynamic:
            self.tuner = DynamicMshrTuner(
                self.engine,
                self.l2_mshr_files,
                committed_reader=self._total_committed,
            )

        # Run state, all of it checkpointed (repro.system.run): a
        # restored machine re-enters run() at the recorded stage.
        self._driver = RunDriver(self)
        self._pending_restore: Optional[dict] = None
        self.sample_log: Optional[List[List[tuple]]] = None

        # Runtime invariant checkers (opt-in; imported lazily so plain
        # runs never touch the validate package).
        self.checker_set = None
        self._checker_names: Optional[List[str]] = None
        if checkers:
            from ..validate import attach_checkers

            self.checker_set = attach_checkers(self, checkers)
            self._checker_names = sorted(c.name for c in self.checker_set)

    # ------------------------------------------------------------------
    def outstanding_requests(self) -> int:
        """Requests in flight: MSHR occupancy plus MC queue depths.

        A non-zero count while the event queue is empty means the
        simulation is deadlocked (some completion callback was lost);
        the engine watchdog uses this probe to detect that.
        """
        mshr = sum(f.occupancy for f in self.l2_mshr_files)
        mrq = sum(len(mc.mrq) for mc in self.memory.controllers)
        l4 = self.l4.occupancy() if self.l4 is not None else 0
        return mshr + mrq + l4

    def _total_committed(self) -> float:
        """Instructions committed machine-wide (the tuner's epoch clock)."""
        return float(sum(core.committed for core in self.cores))

    def run(
        self,
        warmup_instructions: int = 20_000,
        measure_instructions: int = 80_000,
        max_cycles: int = 500_000_000,
        max_events: Optional[int] = None,
        snapshot=None,
        sampling=None,
    ) -> MachineResult:
        """Warm up, measure, and collect results (paper methodology).

        Args:
            max_cycles: absolute simulated-cycle ceiling; a stage not
                finished by then raises
                :class:`~repro.common.errors.SimulationHang`.
            max_events: optional event budget per engine drive (a stage,
                or one snapshot chunk of it): a watchdog against runaway
                simulations that keep scheduling work without committing
                instructions.
            snapshot: optional :class:`~repro.snapshot.SnapshotPlan`;
                when set, the run checkpoints at every absolute multiple
                of ``plan.every`` cycles (and polls for cooperative
                preemption if the plan is preemptible).  A machine
                primed with :meth:`resume` continues from the recorded
                stage instead of starting over.
            sampling: optional :class:`~repro.sampling.plan.SamplingPlan`.
                The run then alternates functional skips and detailed
                windows instead of simulating every instruction in
                detail; results are estimates with confidence intervals
                recorded in ``MachineResult.extra`` (``sample_*`` keys).

        A machine runs once: a second call after the run completed
        raises :class:`~repro.common.errors.SnapshotError`, and one that
        continues an unfinished run (after a restore or a preemption)
        must repeat its quotas and plan.
        """
        if measure_instructions < 1:
            raise ValueError("measure_instructions must be >= 1")
        args = [warmup_instructions, measure_instructions]
        if sampling is not None:
            args += astuple(sampling)
        driver = self._driver
        if self._pending_restore is not None:
            tree, self._pending_restore = self._pending_restore, None
            self.restore_state(tree)
        if driver.stage == "done":
            raise SnapshotError("this machine's run already completed")
        if driver.stage == "start":
            driver.args = args
        elif driver.args != args:
            raise SnapshotConfigMismatch(
                f"resumed run arguments {args} do not match the snapshot's "
                f"{driver.args} (quotas and sampling plan are part of the "
                "run identity)"
            )
        driver.plan = sampling
        return driver.run(max_cycles, max_events, snapshot)

    # -- snapshot/restore ----------------------------------------------
    def _drive(
        self, watchdog, max_cycles, finished, plan, stop_when=None
    ) -> None:
        """Run the engine until ``finished()``, honoring the snapshot ``plan``.

        Without a plan this is a single ``engine.run`` call (identical
        to the pre-snapshot drive).  With one, the run is chunked at
        absolute multiples of ``plan.every`` cycles; the chunking is
        behaviour-neutral (``engine.run(until=B)`` fires exactly the
        events at time <= B, and the next chunk continues from there),
        so a plan with ``write=False`` is a bit-identical oracle for a
        writing or resumed run.
        """
        engine = self.engine
        if plan is None:
            if not finished():
                engine.run(
                    until=max_cycles, stop_when=stop_when, watchdog=watchdog
                )
            return
        from ..snapshot.preemption import preempt_requested

        while not finished():
            boundary = ((engine.now // plan.every) + 1) * plan.every
            limit = min(boundary, max_cycles)
            before = engine.now
            try:
                engine.run(until=limit, stop_when=stop_when, watchdog=watchdog)
            except (SimulationHang, SimulationDeadlock):
                self._hang_snapshot(plan)
                raise
            if finished() or engine.now >= max_cycles:
                return
            if engine.pending == 0 or engine.now <= before:
                # Queue exhausted (or no progress possible) with work
                # unfinished; the driver's stage check reports the hang.
                return
            if plan.preemptible and preempt_requested():
                cycle = engine.now
                if plan.write:
                    self.snapshot(plan.path, meta={"reason": "preempt"})
                raise SnapshotPreempted(
                    f"run preempted at cycle {cycle} "
                    f"(stage {self._driver.stage})",
                    path=plan.path,
                    cycle=cycle,
                )
            if plan.write:
                self.snapshot(plan.path, meta={"reason": "periodic"})

    def _hang_snapshot(self, plan) -> None:
        """Best-effort checkpoint before a hang/deadlock propagates."""
        if plan is None or not (plan.write and plan.snapshot_on_hang):
            return
        try:
            self.snapshot(plan.path, meta={"reason": "hang"})
        except Exception:  # pragma: no cover - diagnostic path only
            pass

    def fingerprint(self) -> str:
        """Digest of everything that shapes this machine's trajectory.

        Two machines with equal fingerprints are interchangeable for
        resume purposes: same config contents (not just name), same
        benchmark multiset and order, same seed and checkers.  Snapshot
        files record it and refuse to restore onto a machine with a
        different one.
        """
        from ..experiments.spec import canonical_json, config_to_dict

        spec = {
            "config": config_to_dict(self.config),
            "benchmarks": self._requested_benchmarks,
            "seed": self._seed,
            "checkers": self._checker_names,
            "workload": self.workload_name,
        }
        return hashlib.sha256(
            canonical_json(spec).encode("utf-8")
        ).hexdigest()

    def capture_state(self) -> dict:
        """Whole-machine state tree (see :mod:`repro.snapshot.codec`)."""
        from ..snapshot.codec import capture

        return capture(self)

    def restore_state(self, state: dict) -> None:
        """Rewrite this freshly built machine from :meth:`capture_state`."""
        from ..snapshot.codec import restore

        restore(self, state)

    def snapshot(self, path: str, meta: Optional[dict] = None) -> None:
        """Write an atomic whole-machine checkpoint to ``path``."""
        from ..snapshot.format import write_snapshot_file

        tree = self.capture_state()
        file_meta = {
            "cycle": self.engine.now,
            "stage": self._driver.stage,
            "config": self.config.name,
            "workload": self.workload_name,
        }
        if meta:
            file_meta.update(meta)
        write_snapshot_file(
            path, tree, config_fingerprint=self.fingerprint(), meta=file_meta
        )

    def resume(self, path: str, force: bool = False) -> dict:
        """Prime this (freshly built) machine to continue from ``path``.

        Verifies the file's integrity and config fingerprint (``force``
        skips only the fingerprint check, never the checksum), then
        defers the actual state application to the next :meth:`run`
        call, which also checks the run arguments against the
        snapshot's.  Returns the snapshot header (cycle/stage/meta) for
        logging.
        """
        from ..snapshot.format import read_snapshot_file

        header, tree = read_snapshot_file(
            path,
            expected_fingerprint=None if force else self.fingerprint(),
        )
        self._pending_restore = tree
        return header

    def energy_report(self):
        """DRAM energy estimate over the whole simulation so far."""
        from ..dram.power import DramEnergyParams, DramPowerModel

        params = DramEnergyParams()
        if self.config.dram_timing == "true-3d":
            params = params.scaled_for_true_3d()
        model = DramPowerModel(params)
        timing = _timing_for(self.config)
        return model.report_from_registry(
            self.registry,
            elapsed_cycles=self.engine.now,
            refresh_interval=timing.refresh_interval,
        )

    def _build_result(
        self, cores: List[CoreResult], extra: Dict[str, float]
    ) -> MachineResult:
        """Assemble a :class:`MachineResult` around per-core results.

        The run driver supplies the per-core results (a sampled run's
        are extrapolated, with its ``sample_*`` error annotations in
        ``extra``).  ``cores`` arrives in physical slot order (canonical
        placement) and is reported in the order the caller listed the
        benchmarks.
        """
        cores = [cores[slot] for slot in self._slot_of_request]
        total_probes = sum(f.total_probes for f in self.l2_mshr_files)
        total_accesses = sum(f.total_accesses for f in self.l2_mshr_files)
        energy = self.energy_report()
        merged_extra = {
            "dram_dynamic_nj_per_access": energy.nj_per_access,
            "dram_avg_power_mw": energy.avg_power_mw,
        }
        if self.l4 is not None:
            merged_extra.update(self.l4.result_extra())
            merged_extra["l4_tag_shave_bytes"] = float(self._l4_tag_shave)
        merged_extra.update(extra)
        return MachineResult(
            config_name=self.config.name,
            workload=self.workload_name,
            cores=cores,
            total_cycles=self.engine.now,
            l2_stats=self.l2.stats.as_dict(),
            dram_row_hit_rate=self.memory.row_hit_rate(),
            mshr_avg_probes=(total_probes / total_accesses) if total_accesses else 0.0,
            extra=merged_extra,
        )


def run_workload(
    config: SystemConfig,
    benchmarks: Sequence[str],
    warmup_instructions: int = 20_000,
    measure_instructions: int = 80_000,
    seed: int = 42,
    workload_name: str = "",
    checkers=None,
    sampling=None,
    snapshot=None,
    resume_from: Optional[str] = None,
) -> MachineResult:
    """One-call convenience: build a machine, run it and free it.

    ``sampling`` accepts a :class:`~repro.sampling.plan.SamplingPlan`
    (or ``None`` for the default full-detail run).  ``snapshot`` accepts a
    :class:`~repro.snapshot.SnapshotPlan`; ``resume_from`` primes the
    machine from an existing checkpoint before running.
    """
    machine = Machine(
        config,
        benchmarks,
        seed=seed,
        workload_name=workload_name,
        checkers=checkers,
    )
    if resume_from is not None:
        machine.resume(resume_from)
    result = machine.run(
        warmup_instructions,
        measure_instructions,
        snapshot=snapshot,
        sampling=sampling,
    )
    # A machine is full of reference cycles and ``Engine.run`` pauses the
    # cyclic collector while it drains, so a dropped machine would wait
    # for a rare full collection, holding its caches, while the next
    # cell builds its own (docs/performance.md, "Cell lifecycle").
    del machine
    gc.collect()
    return result
