"""Differential validation: one workload, two runs.

Run the same workload twice, record the full per-bank command transcript
(:class:`~repro.validate.transcript.TranscriptRecorder`) and the final
stat tables, and diff them; the first differing command (or stat)
localizes a behaviour change to a cycle and a bank.

* :func:`diff_timing_presets` must report **divergent** — every DRAM
  timing preset claims to model the *same* protocol at different
  speeds, and the diff shows *where* an aggressive timing first changes
  behaviour, which is how a surprising speedup is audited back to a
  cause.
* :func:`diff_resume` interrupts the run instead: preempted at a
  snapshot boundary and resumed in a fresh machine, it must be
  **identical** to the uninterrupted run.

``python -m repro validate {timing,resume}`` prints these reports for a
chosen config/mix/scale (:mod:`repro.validate.tools`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..common.errors import SnapshotPreempted
from ..system.config import SystemConfig
from .transcript import CommandRecord, TranscriptRecorder


@dataclass
class TracedRun:
    """One simulation run plus everything needed to diff it."""

    label: str
    config_name: str
    workload: str
    transcript: List[CommandRecord]
    stats: Dict[str, Dict[str, float]]
    result: object  # MachineResult

    @property
    def commands(self) -> int:
        return len(self.transcript)


def run_traced(
    config: SystemConfig,
    benchmarks: Sequence[str],
    *,
    warmup: int,
    measure: int,
    seed: int = 42,
    workload_name: str = "",
    checkers=None,
    sampling=None,
    snapshot=None,
    resume_from: Optional[str] = None,
    label: str = "",
) -> TracedRun:
    """Run one workload and capture its command transcript and stats.

    ``sampling``, ``snapshot`` and ``resume_from`` are those of
    :func:`~repro.system.machine.run_workload`.  A preempted run raises
    :class:`SnapshotPreempted` with its transcript so far as
    ``exc.records``.
    """
    from ..system.machine import Machine
    from .hooks import instrument_banks

    machine = Machine(
        config,
        benchmarks,
        seed=seed,
        workload_name=workload_name,
        checkers=checkers,
    )
    if resume_from is not None:
        machine.resume(resume_from)
    recorder = TranscriptRecorder()
    instrument_banks(machine, recorder)
    try:
        result = machine.run(
            warmup, measure, snapshot=snapshot, sampling=sampling
        )
    except SnapshotPreempted as exc:
        exc.records = recorder.records
        raise
    return TracedRun(
        label=label or config.name,
        config_name=config.name,
        workload=machine.workload_name,
        transcript=recorder.records,
        stats=machine.registry.dump(),
        result=result,
    )


@dataclass
class DiffReport:
    """Outcome of diffing two traced runs."""

    lhs_label: str
    rhs_label: str
    lhs_commands: int
    rhs_commands: int
    #: Index of the first differing transcript record (None = identical
    #: up to the shorter length; a length mismatch still diverges).
    first_divergence: Optional[int] = None
    lhs_record: Optional[CommandRecord] = None
    rhs_record: Optional[CommandRecord] = None
    #: Records around the divergence, for context ([(side, record), ...]).
    context: List[Tuple[str, CommandRecord]] = field(default_factory=list)
    #: (group, key, lhs value, rhs value) for every differing stat.
    stat_diffs: List[Tuple[str, str, Optional[float], Optional[float]]] = field(
        default_factory=list
    )

    @property
    def transcripts_identical(self) -> bool:
        return (
            self.first_divergence is None
            and self.lhs_commands == self.rhs_commands
        )

    @property
    def stats_identical(self) -> bool:
        return not self.stat_diffs

    @property
    def identical(self) -> bool:
        return self.transcripts_identical and self.stats_identical

    def format(self, max_stat_lines: int = 20) -> str:
        lines = [f"diff {self.lhs_label} vs {self.rhs_label}:"]
        if self.identical:
            lines.append(
                f"  IDENTICAL — {self.lhs_commands} DRAM commands, "
                "same transcript, same stat tables"
            )
            return "\n".join(lines)
        if self.transcripts_identical:
            lines.append(
                f"  transcripts identical ({self.lhs_commands} commands)"
            )
        else:
            lines.append(
                f"  TRANSCRIPTS DIVERGE "
                f"({self.lhs_commands} vs {self.rhs_commands} commands)"
            )
            if self.first_divergence is not None:
                lines.append(
                    f"  first divergence at command #{self.first_divergence}:"
                )
                lines.append(
                    "    lhs: "
                    + (self.lhs_record.describe() if self.lhs_record else "<absent>")
                )
                lines.append(
                    "    rhs: "
                    + (self.rhs_record.describe() if self.rhs_record else "<absent>")
                )
                if self.context:
                    lines.append("  context:")
                    for side, record in self.context:
                        lines.append(f"    {side} {record.describe()}")
            else:
                lines.append(
                    "  common prefix identical; one transcript is a strict "
                    "prefix of the other"
                )
        if self.stat_diffs:
            lines.append(f"  {len(self.stat_diffs)} stat differences:")
            for group, key, lhs, rhs in self.stat_diffs[:max_stat_lines]:
                lines.append(f"    {group}.{key}: {lhs} vs {rhs}")
            if len(self.stat_diffs) > max_stat_lines:
                lines.append(
                    f"    ... and {len(self.stat_diffs) - max_stat_lines} more"
                )
        return "\n".join(lines)


def _diff_stats(
    lhs: Dict[str, Dict[str, float]], rhs: Dict[str, Dict[str, float]]
) -> List[Tuple[str, str, Optional[float], Optional[float]]]:
    diffs = []
    for group in sorted(set(lhs) | set(rhs)):
        lgroup = lhs.get(group, {})
        rgroup = rhs.get(group, {})
        for key in sorted(set(lgroup) | set(rgroup)):
            lval = lgroup.get(key)
            rval = rgroup.get(key)
            if lval != rval:
                diffs.append((group, key, lval, rval))
    return diffs


def diff_runs(lhs: TracedRun, rhs: TracedRun, context: int = 2) -> DiffReport:
    """Diff two traced runs; first transcript divergence wins the report."""
    report = DiffReport(
        lhs_label=lhs.label,
        rhs_label=rhs.label,
        lhs_commands=lhs.commands,
        rhs_commands=rhs.commands,
    )
    common = min(lhs.commands, rhs.commands)
    for index in range(common):
        if lhs.transcript[index] != rhs.transcript[index]:
            report.first_divergence = index
            report.lhs_record = lhs.transcript[index]
            report.rhs_record = rhs.transcript[index]
            lo = max(0, index - context)
            for record in lhs.transcript[lo:index]:
                report.context.append(("  =", record))
            break
    else:
        if lhs.commands != rhs.commands:
            # Strict-prefix divergence: point at the first extra record.
            report.first_divergence = common
            if lhs.commands > common:
                report.lhs_record = lhs.transcript[common]
            if rhs.commands > common:
                report.rhs_record = rhs.transcript[common]
    report.stat_diffs = _diff_stats(lhs.stats, rhs.stats)
    return report


def filter_run(
    run: TracedRun,
    *,
    max_mc: Optional[int] = None,
    drop_stat_prefixes: Sequence[str] = (),
) -> TracedRun:
    """Project a traced run onto a sub-system before diffing.

    Used by the stack-mode equivalence check: cache mode adds an
    off-chip channel (MC ids >= the stack's ``num_mcs``) and new stat
    groups (``l4``, ``offchip.*``), but its *stack* traffic is the part
    a memory-mode run must be compared against.  ``max_mc`` keeps only
    transcript records from MCs below it; ``drop_stat_prefixes`` removes
    whole stat groups by name prefix.
    """
    transcript = run.transcript
    if max_mc is not None:
        transcript = [r for r in transcript if r.mc < max_mc]
    stats = {
        group: values
        for group, values in run.stats.items()
        if not any(group.startswith(p) for p in drop_stat_prefixes)
    }
    return TracedRun(
        label=f"{run.label}[filtered]",
        config_name=run.config_name,
        workload=run.workload,
        transcript=transcript,
        stats=stats,
        result=run.result,
    )


#: Stat-group prefixes that exist only in cache mode.
MODE_ONLY_STAT_PREFIXES: Tuple[str, ...] = ("l4", "offchip.")


def diff_timing_presets(
    config: SystemConfig,
    benchmarks: Sequence[str],
    *,
    preset_a: str = "2d",
    preset_b: str = "true-3d",
    warmup: int,
    measure: int,
    seed: int = 42,
    workload_name: str = "",
) -> Tuple[DiffReport, TracedRun, TracedRun]:
    """Same workload under two DRAM timing presets (expected to diverge).

    The report's first divergence shows the first command whose timing
    (or row-buffer outcome) the aggressive preset changes — the starting
    point for auditing a speedup.
    """
    lhs = run_traced(
        config.derive(dram_timing=preset_a),
        benchmarks, warmup=warmup, measure=measure, seed=seed,
        workload_name=workload_name, label=f"{config.name}/{preset_a}",
    )
    rhs = run_traced(
        config.derive(dram_timing=preset_b),
        benchmarks, warmup=warmup, measure=measure, seed=seed,
        workload_name=workload_name, label=f"{config.name}/{preset_b}",
    )
    return diff_runs(lhs, rhs), lhs, rhs


def resume_shapes(
    fast: Optional[SystemConfig] = None,
    baseline: Optional[SystemConfig] = None,
) -> Dict[str, Tuple[SystemConfig, Optional[str], object]]:
    """The machine shapes the snapshot layer must round-trip.

    ``name -> (config, checkers, sampling plan)``, one per subsystem
    with restore-sensitive state: the plain path, the runtime checkers,
    the sampled schedule, a saturated MRQ under miss-heavy traffic
    and the stack as an L4 cache.  Built on
    ``fast`` (default 3D-fast) and, for the checker shape, ``baseline``
    (default 2D); tests pass cut-down bases.
    """
    from ..common.units import KIB
    from ..sampling.plan import SamplingPlan
    from ..system.config import config_2d, config_3d_fast, config_l4_cache

    fast = fast if fast is not None else config_3d_fast()
    baseline = baseline if baseline is not None else config_2d()
    miss_heavy = fast.derive(name="3d-fast-mh", l2_size=64 * KIB, l2_assoc=8)
    return {
        "plain": (fast, None, None),
        "checkers": (baseline, "all", None),
        "sampled": (fast, None, SamplingPlan()),
        "miss-heavy": (miss_heavy, None, None),
        "l4-cache": (config_l4_cache(base=fast), None, None),
    }


def diff_resume(
    config: SystemConfig,
    benchmarks: Sequence[str],
    *,
    every: int,
    snapshot_path: str,
    label: str = "",
    **run_kwargs,
) -> Tuple[DiffReport, TracedRun, TracedRun]:
    """An uninterrupted run vs the same run preempted and resumed.

    The victim is preempted at its first snapshot boundary (``every``
    cycles), writing ``snapshot_path``; a *fresh* machine resumes from
    that file.  The two transcripts stitched, the final stat tables and
    the final :class:`MachineResult` must equal the oracle's, which is
    driven in the same chunked cadence (``write=False``) so that only
    the capture/restore round trip is under test.  ``run_kwargs`` go to
    :func:`run_traced`; the rhs label ends in the preemption cycle.
    """
    from ..snapshot import SnapshotPlan, preemption

    label = label or config.name
    chunked = SnapshotPlan(every=every, write=False)
    oracle = run_traced(
        config, benchmarks, snapshot=chunked, label=f"{label}/oracle",
        **run_kwargs,
    )
    preemption.clear()
    preemption.request_preemption()
    try:
        run_traced(
            config, benchmarks, **run_kwargs,
            snapshot=SnapshotPlan(
                path=snapshot_path, every=every, preemptible=True
            ),
        )
    except SnapshotPreempted as exc:
        prefix, cycle = exc.records, exc.cycle
    else:
        raise ValueError(
            f"{label}: run finished before its first snapshot boundary "
            f"(every={every}); nothing was preempted"
        )
    finally:
        preemption.clear()
    resumed = run_traced(
        config, benchmarks, snapshot=chunked, resume_from=snapshot_path,
        **run_kwargs,
    )
    # The resumed run's fresh recorder numbers its commands from zero;
    # rebase them the way one uninterrupted recorder would have.
    stitched = replace(
        resumed,
        label=f"{label}/preempted+resumed@{cycle}",
        transcript=prefix + [
            record._replace(index=record.index + len(prefix))
            for record in resumed.transcript
        ],
    )
    report = diff_runs(oracle, stitched)
    if asdict(oracle.result) != asdict(stitched.result):
        report.stat_diffs.append(("result", "machine-result", None, None))
    return report, oracle, stitched
