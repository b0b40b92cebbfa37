"""The run driver: one resumable schedule for every run.

A run is ``k`` intervals, each three stages long (instructions per
core):

1. **Functional skip**: every core fast-forwards through its trace via
   the hierarchy's functional (state-only) access paths — tags, LRU,
   dirty bits, TLB entries and DRAM open rows move, but no events are
   scheduled and no statistics accumulate.  Cores interleave in small
   chunks so shared-L2 and row-buffer interference is still represented.
2. **Detailed warm-up**: detailed but unmeasured execution (re-filling
   pipelines, MSHRs and queues).
3. **Measured window**: detailed execution whose per-core counter
   readings at its start and end are the interval's sample.

A full-detail run is one interval, ``(0, warmup, measure)``: the paper's
methodology of warming up, then freezing each core's statistics at its
instruction quota while it keeps running and contending.  Under a
:class:`~repro.sampling.plan.SamplingPlan` (SMARTS-style sampling)
interval 0 is ``(warmup, plan.detail_warmup, plan.detailed)``, every
later one ``(plan.warmup, plan.detail_warmup, plan.detailed)``, and
``k = plan.intervals_for(measure)``.

Stage switches do **not** drain: cores orphan their in-flight ops (see
:meth:`Core.skip_ahead`) so MSHR and controller-queue occupancy carries
across a skip and each detailed stage resumes against live memory
contention.  A sampled run ends with one full drain, which leaves the
machine conserved for the runtime checkers.

A full-detail run reports its window (IPC = instructions / cycles); a
sampled one averages per-core CPI samples with a Student-t 95%
confidence interval and records ``sample_*`` keys in
``MachineResult.extra``.

:class:`RunDriver` is an explicit state machine rather than nested
loops, so a whole-machine snapshot captures mid-run progress (stage,
interval index, samples) and a restored run re-enters
:meth:`~RunDriver.run` at the recorded stage.  The commit-watch
callbacks are bound methods of the driver (the machine's ``_driver``),
which is what makes the cores' watches snapshot-encodable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from ..common.errors import SimulationHang
from ..engine.simulator import Watchdog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .machine import Machine, MachineResult

#: Instructions per functional-skip slice; cores round-robin at this
#: granularity so their references interleave in the shared levels.
FUNCTIONAL_CHUNK = 128

#: Counter-reading tuples (see :meth:`RunDriver._read_core`) and the
#: per-interval delta tuples share this field order.
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


class RunDriver:
    """Resumable driver of a machine's one run.

    Stage progression: ``start`` (cores not started) -> per interval
    ``detail-warmup`` -> ``measure`` -> next interval, or (sampled runs
    only) ``drain``, or ``done``.  All stage transitions happen between
    engine drives, so a snapshot boundary always lands with the stage
    fields and the cores' commit watches mutually consistent.
    """

    __slots__ = (
        "machine", "args", "plan", "stage", "interval", "waiting", "samples",
        "starts", "ends",
    )

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        #: The run identity, ``[warmup, measure, *astuple(plan)]``; a
        #: resumed or continued run must repeat it.
        self.args: Optional[List[int]] = None
        #: The :class:`~repro.sampling.plan.SamplingPlan`, ``None`` for
        #: full detail (a snapshot keeps the fresh value; ``args`` pins it).
        self.plan = None
        self.stage = "start"
        self.interval = 0
        self.waiting = 0
        #: Per-core list of per-interval delta tuples (field order
        #: ``_CYCLES``..``_L2_MISSES``).
        self.samples: List[List[Tuple]] = [[] for _ in machine.cores]
        self.starts: List[Tuple] = []
        self.ends: List[Optional[Tuple]] = []

    @property
    def intervals(self) -> int:
        """``k``: 1 in full detail, else the plan's interval count."""
        if self.plan is None:
            return 1
        return self.plan.intervals_for(self.args[1])

    def _lengths(self) -> Tuple[int, int, int]:
        """(functional skip, detailed warm-up, measured window) of the
        current interval."""
        warmup, measure = self.args[0], self.args[1]
        plan = self.plan
        if plan is None:
            return 0, warmup, measure
        skip = warmup if self.interval == 0 else plan.warmup
        return skip, plan.detail_warmup, plan.detailed

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
        watchdog = Watchdog(
            max_events=max_events,
            pending_work=machine.outstanding_requests,
        )
        if self.stage == "start":
            self._enter_interval()

        while self.stage in ("detail-warmup", "measure"):
            stage = self.stage
            machine._drive(watchdog, max_cycles, self._stage_done, snapshot)
            if self.waiting:
                self._hang(
                    max_cycles, snapshot,
                    f"committed: {[c.committed for c in machine.cores]}",
                )
            if stage == "detail-warmup":
                self._begin_measure()
            else:
                self._finish_interval()

        if self.stage == "drain":
            self._drain(watchdog, max_cycles, snapshot)
        if machine.checker_set is not None:
            machine.checker_set.finish()
        self.stage = "done"
        return self._result()

    def _hang(self, max_cycles: int, snapshot, progress: str) -> None:
        """Checkpoint if the plan asks, then raise a hang naming the stage."""
        machine = self.machine
        if self.stage == "drain":
            where = "final drain"
        else:
            where = (
                f"{self.stage} stage of interval "
                f"{self.interval + 1}/{self.intervals}"
            )
        machine._hang_snapshot(snapshot)
        raise SimulationHang(
            f"{where} did not finish within {max_cycles} cycles ({progress})",
            cycle=machine.engine.now,
            events_fired=machine.engine.events_fired,
            queue_depth=machine.engine.pending,
        )

    # ------------------------------------------------------------------
    # Stage transitions (always between engine drives)
    # ------------------------------------------------------------------
    def _enter_interval(self) -> None:
        machine = self.machine
        skip, detail_warmup, _ = self._lengths()
        # No drain: skip_ahead orphans in-flight ops, so MSHR and
        # controller occupancy carries straight across the skip.
        _functional_skip(machine, skip)
        if self.stage == "start":
            for core in machine.cores:
                core.start()
            if machine.tuner is not None:
                machine.tuner.start()
        if detail_warmup > 0:
            self.stage = "detail-warmup"
            self.waiting = len(machine.cores)
            for core in machine.cores:
                core.watch_commit(core.committed + detail_warmup, self._crossed)
        else:
            self._begin_measure()

    def _begin_measure(self) -> None:
        machine = self.machine
        window = self._lengths()[2]
        self.stage = "measure"
        self.starts = [self._read_core(core) for core in machine.cores]
        self.ends = [None] * len(machine.cores)
        self.waiting = len(machine.cores)
        for core, start in zip(machine.cores, self.starts):
            core.watch_commit(start[_INSTRUCTIONS] + window, self._window_end)

    def _finish_interval(self) -> None:
        for idx, (start, end) in enumerate(zip(self.starts, self.ends)):
            self.samples[idx].append(tuple(e - s for e, s in zip(end, start)))
        self.interval += 1
        if self.interval < self.intervals:
            self._enter_interval()
        else:
            self.stage = "drain" if self.plan is not None else "done"

    def _drain(self, watchdog: Watchdog, max_cycles: int, snapshot) -> None:
        """Pause dispatch and run until the whole hierarchy is quiescent.

        Only a sampled run drains, once, after its last interval, so the
        checkers' ``finish()`` sees a conserved system.  Stage switches
        deliberately do *not* drain — ``skip_ahead`` orphans in-flight
        ops so queue occupancy survives the functional skip; draining
        between intervals was measured to bias the first post-resume
        interval optimistic on fast-memory configs (empty queues
        underestimate load latency).
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
            self._hang(
                max_cycles, snapshot,
                f"outstanding: {machine.outstanding_requests()}",
            )

    # ------------------------------------------------------------------
    # Commit-watch callbacks (bound methods, so snapshot-encodable)
    # ------------------------------------------------------------------
    def _crossed(self, _core) -> None:
        self.waiting -= 1
        if not self.waiting:
            self.machine.engine.request_stop()

    def _window_end(self, core) -> None:
        end = self.ends[core.core_id] = self._read_core(core)
        if self.plan is None:
            # The paper's methodology: the core's statistics freeze at
            # its quota while it keeps executing and contending.
            start = self.starts[core.core_id]
            stats = core.stats
            stats.set("measured_instructions", end[_INSTRUCTIONS] - start[_INSTRUCTIONS])
            stats.set("measured_cycles", end[_CYCLES] - start[_CYCLES])
            stats.freeze()
        self.waiting -= 1
        if not self.waiting:
            self.machine.engine.request_stop()

    def _stage_done(self) -> bool:
        return self.waiting == 0

    def _read_core(self, core) -> Tuple:
        """Counter readings for one core at a window boundary."""
        machine = self.machine
        stats = core.stats
        return (
            machine.engine.now,
            core.committed,
            stats.get("loads_completed"),
            stats.get("load_latency_sum"),
            machine.l2.stats.get(f"core{core.core_id}_demand_misses"),
        )

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------
    def _result(self) -> "MachineResult":
        from .machine import CoreResult  # local: avoid import cycle

        machine = self.machine
        plan = self.plan
        # Stashed for diagnostics/validation tooling (per-core, per-interval).
        machine.sample_log = [
            [(s[_INSTRUCTIONS], s[_CYCLES]) for s in per_core]
            for per_core in self.samples
        ]

        core_results: List[CoreResult] = []
        rel_cis: List[float] = []
        for idx, per_interval in enumerate(self.samples):
            instructions = sum(s[_INSTRUCTIONS] for s in per_interval)
            cycles = sum(s[_CYCLES] for s in per_interval)
            if plan is None:
                ipc = instructions / cycles if cycles else 0.0
            else:
                # Imported here: a full-detail run never loads repro.sampling.
                from ..sampling.estimate import estimate_mean

                est = estimate_mean([
                    s[_CYCLES] / s[_INSTRUCTIONS]
                    for s in per_interval
                    if s[_INSTRUCTIONS]
                ])
                rel_cis.append(est.rel_ci95)
                ipc = (1.0 / est.mean) if est.mean else 0.0
                instructions, cycles = float(instructions), float(cycles)
            loads = sum(s[_LOADS] for s in per_interval)
            latency = sum(s[_LOAD_LATENCY] for s in per_interval)
            misses = sum(s[_L2_MISSES] for s in per_interval)
            core_results.append(
                CoreResult(
                    benchmark=machine._benchmarks[idx],
                    ipc=ipc,
                    instructions=instructions,
                    cycles=cycles,
                    l2_mpki=(
                        (1000.0 * misses / instructions) if instructions else 0.0
                    ),
                    avg_load_latency=(latency / loads) if loads else 0.0,
                )
            )

        extra: Dict[str, float] = {}
        if plan is not None:
            extra = {
                "sampled": 1.0,
                "sample_intervals": float(self.intervals),
                "sample_detailed_per_interval": float(plan.detailed),
                "sample_warmup_per_interval": float(plan.warmup),
                "sample_detail_warmup": float(plan.detail_warmup),
                "sample_rel_ci95_max": max(rel_cis),
                "sample_rel_ci95_mean": sum(rel_cis) / len(rel_cis),
            }
        return machine._build_result(core_results, extra)
