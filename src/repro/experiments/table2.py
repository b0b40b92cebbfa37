"""Table 2: benchmark characterization.

(a) Stand-alone L2 MPKI for all 28 benchmarks on a single core with a
6 MiB L2 — this is the calibration target for the synthetic traces.

(b) Baseline HMIPC per four-program mix on the 2D (off-chip) machine.

The catalog's ``table2a`` / ``table2b`` entries run them; their
``expect`` declares the paper's bands and orderings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..common.units import MIB
from ..system.config import config_2d
from ..system.scale import DEFAULT, ExperimentScale
from ..workloads.benchmarks import BENCHMARKS
from ..workloads.mixes import MIX_ORDER, MIXES, WorkloadMix
from .report import format_table
from .runner import ResultTable, RunPolicy, run_matrix


def single_core_config():
    """One core, 6 MiB L2, off-chip memory (Table 2a's measurement rig).

    Prefetchers are disabled for this characterization: the table
    describes each benchmark's *address stream* (what pressure it puts
    on the memory system), independent of how much of it a particular
    prefetcher configuration can cover.
    """
    return config_2d().derive(
        name="table2a",
        num_cores=1,
        l2_size=6 * MIB,
        l2_banks=16,
        l1_prefetch=False,
        l2_prefetch=False,
    )


#: The two reports' headings (also their catalog entries' titles).
TITLE_2A = "Table 2(a): stand-alone L2 MPKI (6 MiB L2, single core)"
TITLE_2B = "Table 2(b): baseline HMIPC on the 2D (off-chip) machine"


@dataclass
class Table2aResult:
    """Measured vs paper MPKI, in paper (descending-MPKI) order.

    ``table`` holds the raw single-core runs, one "mix" per benchmark.
    """

    table: ResultTable

    @property
    def mpki(self) -> Dict[str, float]:
        (config,) = self.table.configs
        return {
            name: self.table.result(config, name).cores[0].l2_mpki
            for name in self.table.mixes
        }

    def format(self) -> str:
        mpki = self.mpki
        names = sorted(mpki, key=lambda n: BENCHMARKS[n].paper_mpki, reverse=True)
        return format_table(
            TITLE_2A,
            names,
            {
                "paper": [BENCHMARKS[n].paper_mpki for n in names],
                "measured": [mpki[n] for n in names],
            },
            value_format="{:.1f}",
            note=self.table.sampling_note(),
        )


def run_table2a(
    scale: ExperimentScale = DEFAULT,
    benchmarks: Optional[Sequence[str]] = None,
    seed: int = 42,
    workers: Optional[int] = None,
    policy: Optional[RunPolicy] = None,
    checkers: Optional[str] = None,
    sampling: Optional[str] = None,
) -> Table2aResult:
    """Measure stand-alone MPKI for each benchmark.

    One cell per benchmark, each its own one-benchmark "mix", through
    :func:`~repro.experiments.runner.run_matrix`; every other argument
    is forwarded to it unchanged.
    """
    names = list(benchmarks) if benchmarks is not None else sorted(BENCHMARKS)
    mixes = [WorkloadMix(name, "", (name,), 0.0) for name in names]
    table = run_matrix(
        [single_core_config()], mixes, scale, seed=seed, workers=workers,
        policy=policy, checkers=checkers, sampling=sampling,
    )
    return Table2aResult(table)


@dataclass
class Table2bResult:
    """Baseline (2D) HMIPC per mix, vs the paper's Table 2(b)."""

    table: ResultTable

    def format(self) -> str:
        names = [n for n in MIX_ORDER if n in self.table.mixes]
        return format_table(
            TITLE_2B,
            names,
            {
                "paper": [MIXES[n].paper_hmipc for n in names],
                "measured": [self.table.hmipc("2D", n) for n in names],
            },
            note=self.table.sampling_note(),
        )
