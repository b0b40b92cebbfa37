"""Experiments as data: every table, figure, ablation and study, once.

Every result of the paper is the same object — a (configuration x
workload-mix) matrix reduced to speedups or %-improvements over one
baseline column, reported per mix plus GM footers (Figures 4, 7, 9) or
as one GM per configuration (Figure 6, the ablations, the stack study).
An :class:`Experiment` declares one such matrix; :data:`CATALOG` lists
them in the order ``repro validate fidelity`` runs and prints them;
:func:`run_experiment` runs any of them through
:func:`~repro.experiments.runner.run_matrix` and returns the one
:class:`ExperimentResult`.

The catalog name is the experiment's only name: it is the stem of the
default ``results/<name>.journal.jsonl``, and what the CLI subcommands
resolve to (``figure 7 --panel dual-mc`` -> ``figure7_dual``,
``ablation prefetch`` -> ``ablation_prefetch``).

The studies whose metric is not a speedup table (Table 2's MPKI and
HMIPC) keep their own result classes and name them in
``Experiment.result``.

Importing this module builds no :class:`SystemConfig`: ``configs`` is a
callable, evaluated when the experiment runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..common.errors import CellFailedError
from ..common.units import KIB, MIB
from ..system.config import (
    SystemConfig,
    config_2d,
    config_3d,
    config_3d_fast,
    config_3d_wide,
    config_dual_mc,
    config_l4_cache,
    config_quad_mc,
    with_mshr,
)
from ..system.scale import DEFAULT, ExperimentScale
from ..workloads.benchmarks import BENCHMARKS
from ..workloads.mixes import MIX_ORDER, MIXES, WorkloadMix, mixes_in_groups
from . import table2
from .fidelity import Band, Expectation, Ordering, claims_note, paper_column
from .report import format_table
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
        title: heading of the report; a degraded report keeps it above
            its "report incomplete" line.
        groups: mix groups run when no mixes are given (empty: all
            twelve mixes in the paper's order).
        per_mix: layout — True reports one row per mix plus GM(H,VH) /
            GM(all) footers with one column per config; False reports
            one GM row per config.
        percent: report ``(speedup - 1) * 100`` instead of the speedup.
        show_baseline: whether the baseline config gets a column / row.
        column: label of the measured column of the GM-row layout.
        show_probes: add the measured MSHR probes/access column.
        expect: the paper's claims about this matrix, as
            :class:`~repro.experiments.fidelity.Band` /
            :class:`~repro.experiments.fidelity.Ordering` data; they
            make the report's note, the GM-row layout's "paper" column
            and this entry's ``FIDELITY.json`` rows.
        result: for studies with their own metric — builds the result
            from the :class:`ResultTable` in place of
            :class:`ExperimentResult`; needs ``format()`` and ``table``.
        run: for a study whose cells are not the catalog's mixes
            (Table 2a: one cell per benchmark) — called with ``scale,
            seed, workers, policy, checkers, sampling`` in place of the
            matrix run; ``mixes`` is ignored.
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
    expect: Tuple[Expectation, ...] = ()
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

    def probes(self, config: str) -> float:
        """Mean MSHR probes per access over the run's mixes."""
        mixes = self.table.mixes
        return sum(self.table.result(config, m).mshr_avg_probes for m in mixes) / len(mixes)

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
            paper = paper_column(exp.expect)
            if paper:
                columns["paper"] = [paper[c] for c in rows]
        return format_table(
            exp.title,
            rows,
            columns,
            value_format="{:+.1f}" if exp.percent else "{:.3f}",
            note=self.table.sampling_note(),
        )


# ---------------------------------------------------------------------------
# The declarations.  Each paper value is typed once, in a claim of an
# entry's ``expect``.  A claim is MET when the default-scale value is
# within tolerance of the paper's (10 % of a speedup; Table 2: a factor
# of 1.15 of an MPKI, of 1.6 of an HMIPC, absolute IPC being no target);
# its band then holds the paper's value and both measured columns.
# Otherwise it DEVIATES, with a reason, and its band holds the measured
# columns only.
# ---------------------------------------------------------------------------

_UNTESTED = "unexplained — ROADMAP item 3"
_HOT_MC = ("MC scaling runs hot; the replicated MC front end (mc_transaction_overhead, "
           f"DESIGN.md 2b.4) is the suspected serializer, {_UNTESTED}")
_FLAT_ROW_BUFFERS = ("first-touch allocation de-conflicts concurrent streams, so one row-buffer "
                     "entry already hits and more add next to nothing (DESIGN.md 2b.6)")
_HOT_LADDER = ("every step of the ladder runs hot; synthetic workloads being more "
               f"bandwidth-hungry than SimPoint samples is untested, {_UNTESTED}")
_VBF_PROBES = f"the VBF ends most searches at the first or second probe, {_UNTESTED}"


def _table2_bands(metric, config, paper, deviations, factor):
    """One Band per ``(name, paper value)``: within ``factor`` of the
    paper, unless ``deviations`` gives its ``(lo, hi, reason)``."""
    bands = []
    for name, value in paper:
        lo, hi, reason = deviations.get(
            name, (float(f"{value / factor:.3g}"), float(f"{value * factor:.3g}"), "")
        )
        bands.append(Band(f"{metric} {config} @{name}", lo, hi, value, reason))
    return tuple(bands)


_STREAM_MPKI = (120.0, 130.0, "one miss per 64 B line every 8 instructions caps a stream at "
                "125 MPKI; the paper's 250-327 needs ~3 instructions per miss, which line "
                "granularity cannot reach (docs/workloads.md)")


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
        expect=(
            Band("gm 4xMSHR @H,VH", 5.0, 100.0),  # bigger MSHRs clearly help
            Band("gm 8xMSHR - 4xMSHR @H,VH", -3.0, 3.0),  # 8x saturates
            Band("gm Dynamic - 8xMSHR", -2.0, 2.0),  # Dynamic never loses
            # ... and avoids the losses of 8x on the low-traffic mixes.
            Ordering(
                ("gm 8xMSHR @HM,M", "gm Dynamic @HM,M"), per_mix=True,
                reason="the tuner trains each of its three sizes for 50,000 cycles before "
                "choosing one, and a low-traffic mix's whole run barely outlasts the "
                "first sample, which runs the full 8x file",
            ),
        ),
    )


def _figure9(panel: str, vd: Band, probes: Band) -> Experiment:
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
        # The practical VBF tracks the impractical ideal CAM.
        expect=(vd, probes, Band("gm VBF - 8xMSHR @H,VH", -6.0, 10.0)),
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


#: Every experiment by name, in the order ``repro validate fidelity`` runs them.
CATALOG: Dict[str, Experiment] = {
    exp.name: exp
    for exp in (
        # One benchmark per cell on one core; --mixes is ignored.
        # Benchmarks under 5 MPKI get no band: at smoke scale their MPKI
        # is the cold-miss floor (~14), not their stream's.
        Experiment(
            name="table2a",
            title=table2.TITLE_2A,
            configs=lambda: [table2.single_core_config()],
            run=table2.run_table2a,
            expect=_table2_bands(
                "mpki", "table2a",
                [(n, b.paper_mpki) for n, b in BENCHMARKS.items() if b.paper_mpki >= 5],
                {n: _STREAM_MPKI for n in BENCHMARKS if n.startswith("S.")},
                factor=1.15,
            ) + (
                Ordering(("mpki table2a @namd", "mpki table2a @milc", "mpki table2a @S.copy")),
                Ordering(("mpki table2a @mcf", "mpki table2a @tigr")),
            ),
        ),
        Experiment(
            name="table2b",
            title=table2.TITLE_2B,
            configs=lambda: [config_2d()],
            result=table2.Table2bResult,
            expect=_table2_bands(
                "hmipc", "2D", [(m, MIXES[m].paper_hmipc) for m in MIX_ORDER],
                {"H3": (0.16, 0.19, "qsort is modelled as purely random "
                        "read-modify-write, harsher on row locality than "
                        "the real program")},
                factor=1.6,
            ) + (Ordering(("hmipc 2D @VH", "hmipc 2D @H", "hmipc 2D @HM", "hmipc 2D @M")),),
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
            expect=(
                Band("gm 3D @H,VH", 1.5, 1.7, paper=1.347, reason=_HOT_LADDER),
                Band("gm 3D-wide @H,VH", 1.9, 2.3, paper=1.718, reason=_HOT_LADDER),
                Band("gm 3D-fast @H,VH", 2.5, 3.0, paper=2.168, reason=_HOT_LADDER),
                Ordering(
                    ("gm 2D @H,VH", "gm 3D @H,VH", "gm 3D-wide @H,VH",
                     "gm 3D-fast @H,VH"),
                    per_mix=True,
                ),
                Ordering(("gm 3D-fast @M", "gm 3D-fast @H,VH")),
                Band("gm 3D-fast @M", 1.0, 1.5),
            ),
        ),
        # MC scaling >> rank scaling >> extra L2.
        Experiment(
            name="figure6a",
            title="Figure 6(a): GM(H,VH) speedup over 3D-fast (1MC, 8 ranks)",
            configs=_figure6a_configs,
            groups=HEADLINE_GROUPS,
            column="measured",
            expect=(
                Band("gm 1MC-8R", 1.0, 1.0, paper=1.0),
                Band("gm 2MC-8R", 1.45, 1.7, paper=1.132, reason=_HOT_MC),
                Band("gm 4MC-8R", 1.65, 2.1, paper=1.324, reason=_HOT_MC),
                Band("gm 1MC-16R", 0.9, 1.1, paper=1.004),
                Band("gm 2MC-16R", 1.5, 1.75, paper=1.143, reason=_HOT_MC),
                Band("gm 4MC-16R", 1.7, 2.2, paper=1.338, reason=_HOT_MC),
                Band("gm +512K-L2", 0.9, 1.1, paper=1.001),
                Band("gm +1M-L2", 0.9, 1.1, paper=1.004),
                Ordering(("gm +1M-L2", "gm 1MC-16R", "gm 4MC-16R")),
            ),
        ),
        # 1.75x in total over 3D-fast at (4MC, 16R, 4RB); the first
        # extra entry gives most of the row-buffer gain.
        Experiment(
            name="figure6b",
            title="Figure 6(b): GM(H,VH) speedup over 3D-fast vs row-buffer entries",
            configs=_figure6b_configs,
            groups=HEADLINE_GROUPS,
            show_baseline=False,
            column="measured",
            expect=(
                Band("gm 2MC-8R-1RB", 1.45, 1.7, paper=1.132, reason=_HOT_MC),
                Band("gm 2MC-8R-2RB", 1.4, 1.7, paper=1.408),
                Band("gm 2MC-8R-3RB", 1.45, 1.7, paper=1.507),
                Band("gm 2MC-8R-4RB", 1.45, 1.7, paper=1.547),
                Band("gm 4MC-16R-1RB", 1.7, 2.2, paper=1.338, reason=_HOT_MC),
                Band("gm 4MC-16R-2RB", 1.65, 2.2, paper=1.671),
                Band("gm 4MC-16R-3RB", 1.7, 2.2, paper=1.731),
                Band("gm 4MC-16R-4RB", 1.7, 2.2, paper=1.747),
                Band("gm 2MC-8R-2RB / 2MC-8R-1RB", 0.97, 1.05,
                     paper=1.408 / 1.132, reason=_FLAT_ROW_BUFFERS),
                Band("gm 2MC-8R-4RB / 2MC-8R-1RB", 0.97, 1.05,
                     paper=1.547 / 1.132, reason=_FLAT_ROW_BUFFERS),
                Band("gm 4MC-16R-2RB / 4MC-16R-1RB", 0.97, 1.05,
                     paper=1.671 / 1.338, reason=_FLAT_ROW_BUFFERS),
                Band("gm 4MC-16R-4RB / 4MC-16R-1RB", 0.97, 1.05,
                     paper=1.747 / 1.338, reason=_FLAT_ROW_BUFFERS),
            ),
        ),
        _figure7("dual"),
        _figure7("quad"),
        _figure9(
            "dual",
            Band("gm V+D @H,VH", 50.0, 85.0, paper=23.0,
                 reason=f"the gain is 8xMSHR's, capacity alone, {_UNTESTED}"),
            Band("probes VBF @H,VH", 1.3, 1.5, paper=2.31, reason=_VBF_PROBES),
        ),
        _figure9(
            "quad",
            Band("gm V+D @H,VH", 17.0, 50.0, paper=17.8),
            Band("probes VBF @H,VH", 1.15, 1.3, paper=2.21, reason=_VBF_PROBES),
        ),
        _ablation(
            "scheduler", "memory scheduler (over fr-fcfs)",
            [
                ("fr-fcfs", {}),
                ("fcfs", {"scheduler": "fcfs"}),
                ("writedrain", {"scheduler": "frfcfs-writedrain"}),
            ],
            expect=(
                # The paper's row-hit-first scheduling beats FIFO...
                Ordering(("gm fcfs", "gm fr-fcfs"),
                         reason=f"FCFS is no slower than FR-FCFS here, {_UNTESTED}"),
                Band("gm writedrain", 0.98, 1.02),  # ... and write drain ties it
            ),
        ),
        _ablation(
            "interleave", "L2 bank interleaving (over page/streamlined)",
            [
                ("page-interleaved", {}),
                ("line-interleaved", {"l2_interleave": "line"}),
            ],
            # The shared request bus of line interleaving should cost
            # performance; it costs nothing measurable here.
            expect=(Band("gm line-interleaved", 0.99, 1.07,
                         reason=f"the shared bus costs nothing measurable, {_UNTESTED}"),),
        ),
        _ablation(
            "prefetch", "prefetching (over prefetch on)",
            [
                ("prefetch-on", {}),
                ("prefetch-off", {"l1_prefetch": False, "l2_prefetch": False}),
            ],
            # Prefetching costs on the bandwidth-saturated H/VH mixes.
            expect=(Band("gm prefetch-off", 1.0, 1.3),),
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
            # vbf ~= ideal CAM; linear probing pays many probes.
            expect=(
                Band("gm vbf", 0.95, 1.05),
                Ordering(("gm linear-probe", "gm vbf")),
                Ordering(("probes vbf", "probes linear-probe"), per_mix=True),
                Band("probes linear-probe", 10.0, 15.0),
            ),
        ),
        # The paper's Section 6 ranking as an experiment: "2D+L3" spends
        # the stack on a 64 MiB L3 with the DRAM still off-chip, and
        # "L4-sram-64M" spends the 3D-fast stack on a 64 MiB L4 in front
        # of the off-chip channel.
        Experiment(
            name="study_stack",
            title="Study: spend the 3D stack on cache vs memory "
            "(GM speedup over 2D)",
            configs=lambda: [
                config_2d(),
                config_2d().derive(name="2D+L3", l3_enabled=True, l3_size=64 * MIB),
                config_l4_cache(),
                config_3d(),
                config_3d_fast(),
                config_quad_mc().derive(name="quad-MC"),
            ],
            groups=HEADLINE_GROUPS,
            # Stacked cache < any stacked memory; re-architected memory
            # widens the gap.
            expect=(
                Ordering(("gm 2D", "gm 2D+L3", "gm 3D", "gm 3D-fast", "gm quad-MC")),
                # Stacked memory beats the same stack spent as an L4.
                Ordering(("gm 2D", "gm L4-sram-64M", "gm 3D-fast")),
            ),
        ),
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
            scale=scale, seed=seed, workers=workers, policy=policy,
            checkers=checkers, sampling=sampling,
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


def render(experiment: Experiment, result) -> str:
    """A result's report text plus its claims, measured on it (the
    note); a degraded run renders what it can.

    A report over a failed cell reads "report incomplete" with the
    cell's post-mortem, under the entry's title; any recorded failures
    are listed below it.
    """
    try:
        text = result.format()
    except CellFailedError as exc:
        title = experiment.title
        text = f"{title}\n{'=' * len(title)}\nreport incomplete — {exc}"
    note = claims_note(experiment, result.table)
    if note:
        text = f"{text}\n{note}"
    failures = result.table.failures
    if failures:
        lines = [f"\nWARNING: {len(failures)} cell(s) failed:"]
        lines += [f"  {f.describe()}" for _, f in sorted(failures.items())]
        lines.append("re-run with --resume to retry only the failed cells")
        text = "\n".join([text, *lines])
    return text
