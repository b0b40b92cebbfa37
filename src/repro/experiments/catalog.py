"""Experiments as data: every table, figure, ablation and study, once.

Every result of the paper is the same object — a (configuration x
workload-mix) matrix reduced to speedups or %-improvements over one
baseline column, reported per mix plus GM footers (Figures 4, 7, 9) or
as one GM per configuration (Figure 6, the ablations, the stack study).
An :class:`Experiment` declares one such matrix; :data:`CATALOG` lists
them in ``repro report`` order; :func:`run_experiment` runs any of them
through :func:`~repro.experiments.runner.run_matrix` and returns the one
:class:`ExperimentResult`.

The catalog name is the experiment's only name: it is what ``repro
report --only`` takes, the stem of ``<name>.txt`` and of the default
``results/<name>.journal.jsonl``, and what the CLI subcommands resolve
to (``figure 7 --panel dual-mc`` -> ``figure7_dual``, ``ablation
prefetch`` -> ``ablation_prefetch``).

The studies whose metric is not a speedup table (Table 2's MPKI and
HMIPC, the RAS error rates, the stack-mode capacity pivot) keep their
own result classes and name them in ``Experiment.result``.

Importing this module builds no :class:`SystemConfig`: ``configs`` is a
callable, evaluated when the experiment runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..common.errors import CellFailedError
from ..common.units import KIB, MIB
from ..system.config import (
    SystemConfig,
    config_2d,
    config_3d,
    config_3d_fast,
    config_3d_wide,
    config_dual_mc,
    config_quad_mc,
    with_mshr,
)
from ..system.scale import DEFAULT, ExperimentScale
from ..workloads.mixes import MIX_ORDER, MIXES, WorkloadMix, mixes_in_groups
from . import ras_study, stack_modes, table2
from .charts import grouped_bars, speedup_chart
from .report import format_table, with_sampling_note
from .runner import ResultTable, RunPolicy, run_matrix

#: The mix groups the paper's headline geometric means are taken over.
HEADLINE_GROUPS = ("H", "VH")


@dataclass(frozen=True)
class Experiment:
    """One (configuration x mix) matrix and how its report reads.

    Attributes:
        name: the catalog name (see module docstring).
        configs: returns the matrix's configurations; names are unique
            and the first one is the baseline every value is relative to.
        title: heading of the report and of the chart (studies with
            their own ``result`` class print their own).
        groups: mix groups run when no mixes are given (empty: all
            twelve mixes in the paper's order).
        per_mix: layout — True reports one row per mix plus GM(H,VH) /
            GM(all) footers with one column per config; False reports
            one GM row per config.
        percent: report ``(speedup - 1) * 100`` instead of the speedup.
        show_baseline: whether the baseline config gets a column / row.
        column: label of the measured column of the GM-row layout.
        show_probes: add the measured MSHR probes/access column.
        paper: the paper's reference value per config, in the report's
            unit; a "paper" column in the GM-row layout, else for notes.
        paper_probes: the paper's MSHR probes/access per config.
        note: trailing note, or a callable computing it from the result.
        in_suite: whether ``repro report`` runs it by default.
        result: for studies with their own metric — builds the result
            from the :class:`ResultTable` in place of
            :class:`ExperimentResult`; needs ``format()`` and ``table``.
        run: for a study that is no config x mix matrix (Table 2a) —
            called with ``scale, seed, checkers, sampling`` in place of
            the matrix run.
    """

    name: str
    configs: Callable[[], Sequence[SystemConfig]]
    title: str = ""
    groups: Tuple[str, ...] = ()
    per_mix: bool = False
    percent: bool = False
    show_baseline: bool = True
    column: str = "GM speedup"
    show_probes: bool = False
    paper: Mapping[str, float] = field(default_factory=dict)
    paper_probes: Mapping[str, float] = field(default_factory=dict)
    note: Union[str, Callable[["ExperimentResult"], str]] = ""
    in_suite: bool = True
    result: Optional[Callable[..., Any]] = None
    run: Optional[Callable[..., Any]] = None

    def default_mixes(self) -> List[WorkloadMix]:
        if self.groups:
            return list(mixes_in_groups(*self.groups))
        return [MIXES[name] for name in MIX_ORDER]


@dataclass
class ExperimentResult:
    """A finished :class:`Experiment`: the raw table plus its reading."""

    experiment: Experiment
    table: ResultTable

    @property
    def baseline(self) -> str:
        return self.table.configs[0]

    @property
    def shown(self) -> List[str]:
        """Config names that get a column / row, in matrix order."""
        if self.experiment.show_baseline:
            return list(self.table.configs)
        return [c for c in self.table.configs if c != self.baseline]

    def _unit(self, speedup: float) -> float:
        return (speedup - 1.0) * 100.0 if self.experiment.percent else speedup

    def value(self, config: str, mix: str) -> float:
        """Speedup (or % improvement) of ``config`` over the baseline."""
        return self._unit(self.table.speedup(config, mix, self.baseline))

    def gm(self, config: str, groups: Optional[Sequence[str]] = None) -> float:
        """Geometric mean of :meth:`value` over ``groups`` (or all mixes)."""
        return self._unit(self.table.gm_speedup(config, self.baseline, groups))

    def probes(self, config: str, groups: Optional[Sequence[str]] = None) -> float:
        """Mean MSHR probes per access over the mixes in ``groups``
        (all mixes when ``groups`` is None or selects none of them)."""
        selected = [
            m for m in self.table.mixes if groups and MIXES[m].group in groups
        ] or self.table.mixes
        return sum(
            self.table.result(config, m).mshr_avg_probes for m in selected
        ) / len(selected)

    def format(self) -> str:
        exp = self.experiment
        columns: Dict[str, List[float]]
        if exp.per_mix:
            rows = list(self.table.mixes)
            columns = {c: [self.value(c, m) for m in rows] for c in self.shown}
            footers: List[Tuple[str, Optional[Sequence[str]]]] = []
            if set(HEADLINE_GROUPS) <= {MIXES[m].group for m in self.table.mixes}:
                footers.append(("GM(H,VH)", HEADLINE_GROUPS))
            footers.append(("GM(all)", None))
            for label, groups in footers:
                rows.append(label)
                for c in self.shown:
                    columns[c].append(self.gm(c, groups))
        else:
            rows = self.shown
            columns = {exp.column: [self.gm(c) for c in rows]}
            if exp.show_probes:
                columns["probes/access"] = [self.probes(c) for c in rows]
            if exp.paper:
                columns["paper"] = [exp.paper[c] for c in rows]
        note = exp.note(self) if callable(exp.note) else exp.note
        return format_table(
            exp.title,
            rows,
            columns,
            value_format="{:+.1f}" if exp.percent else "{:.3f}",
            note=with_sampling_note(note, self.table),
        )

    def chart(self, width: int = 40) -> str:
        """ASCII bars in the paper's figure layout."""
        exp = self.experiment
        if exp.per_mix:
            groups = self.table.mixes
            variants = [c for c in self.table.configs if c != self.baseline]
            series = {c: [self.value(c, m) for m in groups] for c in variants}
        else:
            groups = [f"GM({','.join(exp.groups) or 'all'})"]
            series = {c: [self.gm(c)] for c in self.shown}
        if not exp.percent:
            return speedup_chart(exp.title, groups, series, width=width)
        clamped = {c: [max(0.0, v) for v in vs] for c, vs in series.items()}
        return grouped_bars(
            exp.title, groups, clamped, width=width, value_format="{:+.1f}"
        )


# ---------------------------------------------------------------------------
# The declarations.  Notes that quote the paper derive the numbers from
# the entry's ``paper`` mapping, so each reference value is typed once.
# ---------------------------------------------------------------------------

def _figure4_note(result: ExperimentResult) -> str:
    paper = ", ".join(
        f"{config} {value:.2f}x"
        for config, value in result.experiment.paper.items()
    )
    ordering = " < ".join(result.table.configs)
    return f"paper GM(H,VH): {paper}; ordering {ordering}"


def _extra_l2_config(extra: int, label: str) -> SystemConfig:
    base = config_3d_fast()
    # Keep the set count unchanged by growing associativity: 12 MiB
    # 24-way 64 B lines -> 8192 sets; +512 KiB = +1 way, +1 MiB = +2.
    sets = base.l2_size // (base.l2_assoc * base.line_size)
    extra_ways, remainder = divmod(extra, sets * base.line_size)
    if remainder:
        raise ValueError(f"extra L2 {extra} is not a whole number of ways")
    return base.derive(
        name=label,
        l2_size=base.l2_size + extra,
        l2_assoc=base.l2_assoc + extra_ways,
    )


def _figure6a_configs() -> List[SystemConfig]:
    """{1,2,4} MCs x {8,16} ranks, or the same transistors as extra L2."""
    return [
        config_3d_fast().derive(name=f"{mcs}MC-{ranks}R", num_mcs=mcs, total_ranks=ranks)
        for ranks in (8, 16)
        for mcs in (1, 2, 4)
    ] + [
        _extra_l2_config(512 * KIB, "+512K-L2"),
        _extra_l2_config(1 * MIB, "+1M-L2"),
    ]


def _figure6b_configs() -> List[SystemConfig]:
    """Row-buffer entries 1..4 for the two highlighted organizations."""
    return [config_3d_fast().derive(name="3D-fast-1MC-8R-1RB")] + [
        config_3d_fast().derive(
            name=f"{mcs}MC-{ranks}R-{entries}RB",
            num_mcs=mcs,
            total_ranks=ranks,
            row_buffer_entries=entries,
        )
        for mcs, ranks in ((2, 8), (4, 16))
        for entries in range(1, 5)
    ]


#: Figures 7 and 9 have one panel per aggressive organization
#: ("dual" = panel (a), "quad" = panel (b)).
_PANELS: Dict[str, Callable[[], SystemConfig]] = {
    "dual": config_dual_mc,
    "quad": config_quad_mc,
}


def _mha_experiment(
    figure: int, panel: str, title: str, variants, **fields: Any
) -> Experiment:
    """One panel of Figure 7 / 9: L2 MHA variants as % over the first.

    ``variants`` are ``(name, with_mshr arguments)`` over the panel's
    organization (MSHR organization, capacity scale, dynamic tuning).
    """
    return Experiment(
        name=f"figure{figure}_{panel}",
        title=f"Figure {figure} ({panel}-mc): % improvement {title}",
        configs=lambda: [
            with_mshr(_PANELS[panel](), *mha).derive(name=name)
            for name, mha in variants
        ],
        per_mix=True,
        percent=True,
        show_baseline=False,
        **fields,
    )


def _figure7(panel: str) -> Experiment:
    # The ideal single-cycle CAM throughout, so the effect isolated is
    # pure *capacity*; HM2/M2 lose from extra misses churning the L2.
    return _mha_experiment(
        7, panel, "from larger L2 MSHRs",
        [
            ("1x", ()),
            ("2xMSHR", ("conventional", 2)),
            ("4xMSHR", ("conventional", 4)),
            ("8xMSHR", ("conventional", 8)),
            ("Dynamic", ("conventional", 8, True)),
        ],
        note=(
            "shape: 2x/4x help memory-intensive mixes, 8x saturates, "
            "Dynamic avoids the losses on low-traffic mixes"
        ),
    )


def _figure9_note(result: ExperimentResult) -> str:
    exp = result.experiment
    parts = [
        f"paper GM(H,VH) for {config}: {value:+.1f}%"
        for config, value in exp.paper.items()
    ] + [
        f"{config} probes/access measured "
        f"{result.probes(config, HEADLINE_GROUPS):.2f} (paper {value:.2f})"
        for config, value in exp.paper_probes.items()
    ]
    return "; ".join(parts)


def _figure9(panel: str, paper_vd: float, paper_probes: float) -> Experiment:
    # 8xMSHR is the ideal 64-entry CAM (the impractical yardstick), VBF
    # the practical direct-mapped file (probe latency modelled), V+D the
    # paper's proposal.  Probe counts include the mandatory first probe.
    return _mha_experiment(
        9, panel, "of the scalable L2 MHA",
        [
            ("baseline", ()),
            ("8xMSHR", ("conventional", 8)),
            ("VBF", ("vbf", 8)),
            ("Dynamic", ("conventional", 8, True)),
            ("V+D", ("vbf", 8, True)),
        ],
        paper={"V+D": paper_vd},
        paper_probes={"VBF": paper_probes},
        note=_figure9_note,
    )


def _ablation(name: str, title: str, variants, **fields: Any) -> Experiment:
    """A design choice DESIGN.md calls out: quad-MC with one knob turned.

    Not a paper figure — it quantifies an assumption the paper bakes in,
    as GM(H,VH) over the first of the ``(name, changes)`` variants.
    """
    return Experiment(
        name=f"ablation_{name}",
        title=f"Ablation: {title}",
        configs=lambda: [
            config_quad_mc().derive(name=label, **changes)
            for label, changes in variants
        ],
        groups=HEADLINE_GROUPS,
        **fields,
    )


def ras_study_experiment(
    rates: Sequence[float] = ras_study.DEFAULT_RATES,
    eccs: Sequence[str] = ras_study.DEFAULT_ECCS,
) -> Experiment:
    """The fault-rate x ECC sweep over the given grid (docs/ras.md)."""
    return Experiment(
        name="ras_study",
        configs=partial(ras_study.build_ras_matrix, rates, eccs),
        groups=("H",),
        in_suite=False,
        result=lambda table: ras_study.RasStudyResult(
            table, table.mixes, tuple(rates), tuple(eccs)
        ),
    )


def stack_modes_experiment(
    capacities: Sequence[int] = stack_modes.DEFAULT_CAPACITIES,
) -> Experiment:
    """The stack usage-mode x capacity sweep (docs/stack_modes.md)."""
    return Experiment(
        name="stack_modes",
        configs=partial(stack_modes.build_mode_matrix, capacities),
        groups=HEADLINE_GROUPS,
        in_suite=False,
        result=lambda table: stack_modes.StackModesResult(
            table, list(capacities), table.mixes
        ),
    )


#: Every experiment by name, in ``repro report`` order.
CATALOG: Dict[str, Experiment] = {
    exp.name: exp
    for exp in (
        # One benchmark per run on one core: no mixes, matrix or journal.
        Experiment(
            name="table2a",
            configs=lambda: [table2.single_core_config()],
            run=table2.run_table2a,
        ),
        Experiment(
            name="table2b",
            configs=lambda: [config_2d()],
            result=table2.Table2bResult,
        ),
        # 2D < 3D < 3D-wide < 3D-fast on every workload, each step a
        # roughly equal boost; the moderate (M) mixes benefit much less.
        Experiment(
            name="figure4",
            title="Figure 4: speedup over 2D (off-chip DRAM)",
            configs=lambda: [
                config_2d(), config_3d(), config_3d_wide(), config_3d_fast()
            ],
            per_mix=True,
            paper={"3D": 1.347, "3D-wide": 1.718, "3D-fast": 2.168},
            note=_figure4_note,
        ),
        Experiment(
            name="figure6a",
            title="Figure 6(a): GM(H,VH) speedup over 3D-fast (1MC, 8 ranks)",
            configs=_figure6a_configs,
            groups=HEADLINE_GROUPS,
            column="measured",
            paper={
                "1MC-8R": 1.0, "2MC-8R": 1.132, "4MC-8R": 1.324,
                "1MC-16R": 1.004, "2MC-16R": 1.143, "4MC-16R": 1.338,
                "+512K-L2": 1.001, "+1M-L2": 1.004,
            },
            note="shape: MC scaling >> rank scaling >> extra L2",
        ),
        # 1.75x in total over 3D-fast at (4MC, 16R, 4RB).
        Experiment(
            name="figure6b",
            title="Figure 6(b): GM(H,VH) speedup over 3D-fast vs row-buffer entries",
            configs=_figure6b_configs,
            groups=HEADLINE_GROUPS,
            show_baseline=False,
            column="measured",
            paper={
                "2MC-8R-1RB": 1.132, "2MC-8R-2RB": 1.408,
                "2MC-8R-3RB": 1.507, "2MC-8R-4RB": 1.547,
                "4MC-16R-1RB": 1.338, "4MC-16R-2RB": 1.671,
                "4MC-16R-3RB": 1.731, "4MC-16R-4RB": 1.747,
            },
            note="shape: first extra row-buffer entry gives most of the gain",
        ),
        _figure7("dual"),
        _figure7("quad"),
        _figure9("dual", paper_vd=23.0, paper_probes=2.31),
        _figure9("quad", paper_vd=17.8, paper_probes=2.21),
        _ablation(
            "scheduler", "memory scheduler (over fr-fcfs)",
            [
                ("fr-fcfs", {}),
                ("fcfs", {"scheduler": "fcfs"}),
                ("writedrain", {"scheduler": "frfcfs-writedrain"}),
            ],
        ),
        _ablation(
            "interleave", "L2 bank interleaving (over page/streamlined)",
            [
                ("page-interleaved", {}),
                ("line-interleaved", {"l2_interleave": "line"}),
            ],
        ),
        _ablation(
            "prefetch", "prefetching (over prefetch on)",
            [
                ("prefetch-on", {}),
                ("prefetch-off", {"l1_prefetch": False, "l2_prefetch": False}),
            ],
        ),
        _ablation(
            "replacement", "L2 replacement policy (over LRU)",
            [
                ("lru", {}),
                ("random", {"l2_replacement": "random"}),
                ("srrip", {"l2_replacement": "srrip"}),
            ],
        ),
        _ablation(
            "page_policy", "DRAM page policy (over open-page)",
            [
                ("open-page", {}),
                ("closed-page", {"dram_page_policy": "closed"}),
            ],
        ),
        _ablation(
            "mapping", "DRAM address interleaving (over plain page)",
            [
                ("modulo", {}),
                ("xor-permuted", {"dram_mapping_scheme": "xor"}),
            ],
        ),
        # At the 8x point; the probes/access column is the paper's
        # headline argument for the VBF over plain linear probing.
        _ablation(
            "mshr_org", "MSHR search organization at 8x capacity",
            [
                ("ideal-cam", {"l2_mshr_per_bank": 32}),
                ("vbf", {"l2_mshr_per_bank": 32, "l2_mshr_organization": "vbf"}),
                ("linear-probe",
                 {"l2_mshr_per_bank": 32,
                  "l2_mshr_organization": "direct-mapped"}),
            ],
            column="GM speedup vs ideal",
            show_probes=True,
            note="shape: vbf ~= ideal CAM; linear probing pays many probes",
        ),
        # The paper's Section 6 ranking as an experiment: "2D+L3" spends
        # the stack on a 64 MiB L3 with the DRAM still off-chip.
        Experiment(
            name="study_stack",
            title="Study: spend the 3D stack on cache vs memory "
            "(GM speedup over 2D)",
            configs=lambda: [
                config_2d(),
                config_2d().derive(name="2D+L3", l3_enabled=True, l3_size=64 * MIB),
                config_3d(),
                config_3d_fast(),
                config_quad_mc().derive(name="quad-MC"),
            ],
            groups=HEADLINE_GROUPS,
            note=(
                "expected: stacked cache < any stacked memory; "
                "re-architected memory widens the gap (paper Section 6)"
            ),
        ),
        ras_study_experiment(),
        stack_modes_experiment(),
    )
}


def run_experiment(
    experiment: Union[str, Experiment],
    scale: ExperimentScale = DEFAULT,
    mixes: Optional[Sequence[WorkloadMix]] = None,
    seed: int = 42,
    workers: Optional[int] = None,
    policy: Optional[RunPolicy] = None,
    checkers: Optional[str] = None,
    sampling: Optional[str] = None,
):
    """Run one experiment (a catalog name or an :class:`Experiment`).

    ``mixes`` defaults to the experiment's own groups; everything else
    is forwarded to :func:`run_matrix` unchanged.  Returns an
    :class:`ExperimentResult`, or the study's own result class for the
    entries that declare one.
    """
    if isinstance(experiment, str):
        if experiment not in CATALOG:
            raise ValueError(
                f"unknown experiment {experiment!r}; known: {', '.join(CATALOG)}"
            )
        experiment = CATALOG[experiment]
    if experiment.run is not None:
        return experiment.run(
            scale=scale, seed=seed, checkers=checkers, sampling=sampling
        )
    if mixes is None:
        mixes = experiment.default_mixes()
    table = run_matrix(
        experiment.configs(), mixes, scale, seed=seed, workers=workers,
        policy=policy, checkers=checkers, sampling=sampling,
    )
    if experiment.result is not None:
        return experiment.result(table)
    return ExperimentResult(experiment, table)


def render(result) -> str:
    """A result's report text; a degraded run renders what it can.

    A report over a failed cell reads "report incomplete" with the
    cell's post-mortem; any recorded failures are listed below it.
    """
    try:
        text = result.format()
    except CellFailedError as exc:
        text = f"report incomplete — {exc}"
    failures = result.table.failures
    if failures:
        lines = [f"\nWARNING: {len(failures)} cell(s) failed:"]
        lines += [f"  {f.describe()}" for _, f in sorted(failures.items())]
        lines.append("re-run with --resume to retry only the failed cells")
        text = "\n".join([text, *lines])
    return text
