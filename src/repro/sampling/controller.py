"""The sampled-run phase scheduler.

Drives a wired :class:`~repro.system.machine.Machine` through the
SMARTS-style alternation a :class:`~repro.sampling.plan.SamplingPlan`
describes:

1. **Functional warmup** covering the run's warmup quota: every core
   fast-forwards through its trace via the hierarchy's functional
   (state-only) access paths — tags, LRU, dirty bits, TLB entries and
   DRAM open rows move, but no events are scheduled and no statistics
   accumulate.  Cores interleave in small chunks so shared-L2 and
   row-buffer interference is still represented.
2. ``k`` **measurement intervals**, each: functional skip (``warmup``),
   detailed-but-unmeasured execution (``detail_warmup``, re-filling
   pipelines/MSHRs/queues), then a measured detailed window
   (``detailed``) whose per-core (instructions, cycles) sample feeds
   the estimate.
3. Phase switches do **not** drain: cores orphan their in-flight ops
   (see :meth:`Core.skip_ahead`) so MSHR and controller-queue occupancy
   carries across the skip and each detailed interval resumes against
   live memory contention.  A single full drain at the end of the run
   leaves the machine conserved for the runtime checkers.

Per-core CPI samples across intervals are averaged with a Student-t 95%
confidence interval; the returned :class:`MachineResult` carries the
estimates plus ``sample_*`` keys in ``extra`` so saved tables record the
estimated error alongside the speedups.

The alternation lives in :class:`SampledRunController`, an explicit
state machine rather than nested loops, so a whole-machine snapshot can
capture mid-run progress (stage, interval index, accumulated samples)
and a restored run re-enters :meth:`~SampledRunController.run` at the
recorded stage.  The interval callbacks are bound methods of the
controller (the machine's ``_sampler``), which is what makes the cores'
commit watches snapshot-encodable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from ..common.errors import SimulationHang, SnapshotError
from ..engine.simulator import Watchdog
from .estimate import estimate_mean
from .plan import SamplingPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..system.machine import Machine, MachineResult

#: Instructions per functional-skip slice; cores round-robin at this
#: granularity so their references interleave in the shared levels.
FUNCTIONAL_CHUNK = 128

#: Counter-reading tuples (see :meth:`SampledRunController._read_core`)
#: and the per-interval delta tuples share this field order.
_CYCLES, _INSTRUCTIONS, _LOADS, _LOAD_LATENCY, _L2_MISSES = range(5)


def _functional_skip(machine: "Machine", per_core: int) -> None:
    """Fast-forward every core ``per_core`` instructions."""
    if per_core <= 0:
        return
    cores = machine.cores
    remaining = [per_core] * len(cores)
    live = True
    while live:
        live = False
        for idx, core in enumerate(cores):
            if remaining[idx] <= 0:
                continue
            step = FUNCTIONAL_CHUNK if remaining[idx] > FUNCTIONAL_CHUNK else remaining[idx]
            remaining[idx] -= core.skip_ahead(step)
            live = True


class SampledRunController:
    """Resumable driver for one sampled run.

    Stage progression: ``init`` (functional warmup, cores not started)
    -> per interval ``detail-warmup`` -> ``measure`` -> (next interval
    or) ``drain`` -> ``done``.  All stage transitions happen between
    engine drives, so a snapshot boundary always lands with the stage
    fields and the cores' commit watches mutually consistent.
    """

    def __init__(
        self,
        machine: "Machine",
        plan: SamplingPlan,
        warmup_instructions: int = 20_000,
        measure_instructions: int = 80_000,
    ) -> None:
        self.machine = machine
        self.plan = plan
        self.warmup_instructions = warmup_instructions
        self.measure_instructions = measure_instructions
        self.k = plan.intervals_for(measure_instructions)
        self.stage = "init"
        self.interval = 0
        self.waiting = 0
        #: Per-core list of per-interval delta tuples (field order
        #: ``_CYCLES``..``_L2_MISSES``).
        self.samples: List[List[Tuple]] = [[] for _ in machine.cores]
        self.starts: List[Tuple] = []
        self.ends: List[Optional[Tuple]] = []

    # ------------------------------------------------------------------
    def run(
        self,
        max_cycles: int = 500_000_000,
        max_events: Optional[int] = None,
        snapshot=None,
    ) -> "MachineResult":
        """Drive the remaining stages; ``max_cycles``/``max_events``
        bound each engine drive and ``snapshot`` is the machine's
        :class:`~repro.snapshot.SnapshotPlan` (or ``None``)."""
        machine = self.machine
        if self.stage == "done":
            raise SnapshotError("this sampled run already completed")
        watchdog = Watchdog(
            max_events=max_events,
            pending_work=machine.outstanding_requests,
        )
        if self.stage == "init":
            # Phase 0: the entire warmup quota runs functionally.
            _functional_skip(machine, self.warmup_instructions)
            for core in machine.cores:
                core.start()
            if machine.tuner is not None:
                machine.tuner.start()
            self._enter_interval()

        while self.stage in ("detail-warmup", "measure"):
            stage = self.stage
            machine._drive(watchdog, max_cycles, self._stage_done, snapshot)
            if self.waiting:
                if stage == "detail-warmup":
                    message = (
                        "sampled detail-warmup phase did not finish within "
                        f"{max_cycles} cycles "
                        f"(committed: {[c.committed for c in machine.cores]})"
                    )
                else:
                    message = (
                        f"sampled interval {self.interval} did not finish "
                        f"within {max_cycles} cycles "
                        f"(committed: {[c.committed for c in machine.cores]})"
                    )
                machine._hang_snapshot(snapshot)
                raise SimulationHang(
                    message,
                    cycle=machine.engine.now,
                    events_fired=machine.engine.events_fired,
                    queue_depth=machine.engine.pending,
                )
            if stage == "detail-warmup":
                self._begin_measure()
            else:
                self._finish_interval()

        # Leave the machine quiescent: checker finish() then sees a
        # conserved system (no in-flight requests).
        self._do_drain(watchdog, max_cycles, snapshot)
        if machine.checker_set is not None:
            machine.checker_set.finish()
        self.stage = "done"
        return self._build_result()

    # ------------------------------------------------------------------
    # Stage transitions (always between engine drives)
    # ------------------------------------------------------------------
    def _enter_interval(self) -> None:
        machine = self.machine
        if self.interval > 0:
            # No drain: skip_ahead orphans in-flight ops, so MSHR and
            # controller occupancy carries straight across the skip.
            _functional_skip(machine, self.plan.warmup)
        if self.plan.detail_warmup > 0:
            self.stage = "detail-warmup"
            self.waiting = len(machine.cores)
            for core in machine.cores:
                core.watch_commit(
                    core.committed + self.plan.detail_warmup, self._crossed
                )
        else:
            self._begin_measure()

    def _begin_measure(self) -> None:
        machine = self.machine
        self.stage = "measure"
        self.starts = [self._read_core(core) for core in machine.cores]
        self.ends = [None] * len(machine.cores)
        self.waiting = len(machine.cores)
        for core, start in zip(machine.cores, self.starts):
            core.watch_commit(
                start[_INSTRUCTIONS] + self.plan.detailed, self._freeze
            )

    def _finish_interval(self) -> None:
        for idx in range(len(self.machine.cores)):
            start = self.starts[idx]
            end = self.ends[idx]
            self.samples[idx].append(
                tuple(e - s for e, s in zip(end, start))
            )
        self.interval += 1
        self.starts = []
        self.ends = []
        if self.interval >= self.k:
            self.stage = "drain"
        else:
            self._enter_interval()

    def _do_drain(self, watchdog: Watchdog, max_cycles: int, snapshot) -> None:
        """Pause dispatch and run until the whole hierarchy is quiescent.

        Mid-run phase switches deliberately do *not* drain —
        ``skip_ahead`` orphans in-flight ops so queue occupancy survives
        the functional skip; draining between intervals was measured to
        bias the first post-resume interval optimistic on fast-memory
        configs (empty queues underestimate load latency).
        """
        machine = self.machine
        cores = machine.cores
        for core in cores:
            core.pause()

        def drained() -> bool:
            return (
                all(core.drained for core in cores)
                and machine.outstanding_requests() == 0
            )

        machine._drive(watchdog, max_cycles, drained, snapshot, stop_when=drained)
        if not drained():
            machine._hang_snapshot(snapshot)
            raise SimulationHang(
                "hierarchy failed to drain before a functional phase "
                f"(outstanding: {machine.outstanding_requests()})",
                cycle=machine.engine.now,
                events_fired=machine.engine.events_fired,
                queue_depth=machine.engine.pending,
            )

    # ------------------------------------------------------------------
    # Commit-watch callbacks (bound methods, so snapshot-encodable)
    # ------------------------------------------------------------------
    def _crossed(self, _core) -> None:
        self.waiting -= 1
        if not self.waiting:
            self.machine.engine.request_stop()

    def _freeze(self, core) -> None:
        self.ends[core.core_id] = self._read_core(core)
        self.waiting -= 1
        if not self.waiting:
            self.machine.engine.request_stop()

    def _stage_done(self) -> bool:
        return self.waiting == 0

    def _read_core(self, core) -> Tuple:
        """Counter readings for one core at an interval boundary."""
        machine = self.machine
        l2 = machine._l2_core_counters(core.core_id)
        return (
            machine.engine.now,
            core.committed,
            core.stats.get("loads_completed"),
            core.stats.get("load_latency_sum"),
            l2["demand_misses"],
        )

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------
    def _build_result(self) -> "MachineResult":
        from ..system.machine import CoreResult  # local: avoid import cycle

        machine = self.machine
        # Stashed for diagnostics/validation tooling (per-core, per-interval).
        machine.sample_log = [
            [(s[_INSTRUCTIONS], s[_CYCLES]) for s in per_core]
            for per_core in self.samples
        ]

        core_results: List[CoreResult] = []
        rel_cis: List[float] = []
        for idx in range(len(machine.cores)):
            per_interval = self.samples[idx]
            cpis = [
                s[_CYCLES] / s[_INSTRUCTIONS]
                for s in per_interval
                if s[_INSTRUCTIONS]
            ]
            est = estimate_mean(cpis)
            rel_cis.append(est.rel_ci95)
            instructions = float(sum(s[_INSTRUCTIONS] for s in per_interval))
            cycles = float(sum(s[_CYCLES] for s in per_interval))
            misses = sum(s[_L2_MISSES] for s in per_interval)
            loads = sum(s[_LOADS] for s in per_interval)
            latency = sum(s[_LOAD_LATENCY] for s in per_interval)
            core_results.append(
                CoreResult(
                    benchmark=machine._benchmarks[idx],
                    ipc=(1.0 / est.mean) if est.mean else 0.0,
                    instructions=instructions,
                    cycles=cycles,
                    l2_mpki=(
                        (1000.0 * misses / instructions) if instructions else 0.0
                    ),
                    avg_load_latency=(latency / loads) if loads else 0.0,
                )
            )

        plan = self.plan
        extra: Dict[str, float] = {
            "sampled": 1.0,
            "sample_intervals": float(self.k),
            "sample_detailed_per_interval": float(plan.detailed),
            "sample_warmup_per_interval": float(plan.warmup),
            "sample_detail_warmup": float(plan.detail_warmup),
            "sample_rel_ci95_max": max(rel_cis) if rel_cis else 0.0,
            "sample_rel_ci95_mean": (
                sum(rel_cis) / len(rel_cis) if rel_cis else 0.0
            ),
        }
        return machine._build_result(core_results, extra)


def run_sampled(
    machine: "Machine",
    plan: SamplingPlan,
    warmup_instructions: int = 20_000,
    measure_instructions: int = 80_000,
    max_cycles: int = 500_000_000,
    max_events: Optional[int] = None,
) -> "MachineResult":
    """Run ``machine`` under ``plan`` and return extrapolated results.

    Thin compatibility wrapper over :meth:`Machine.run_sampled`, which
    owns the controller.
    """
    return machine.run_sampled(
        plan,
        warmup_instructions=warmup_instructions,
        measure_instructions=measure_instructions,
        max_cycles=max_cycles,
        max_events=max_events,
    )
