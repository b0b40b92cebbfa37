"""RAS study: what reliability costs under DRAM fault injection.

Sweeps fault rate x ECC scheme across the paper's 2D / 3D / 3D-fast
organizations (:mod:`repro.ras` supplies the injection, ECC pipeline and
degradation machinery) and reports, per variant:

* **IPC overhead** attributed by cycle accounting: the cycles each read
  spent in the RAS pipeline (correction latency, retry backoff and
  re-reads) as a fraction of total execution cycles;
* **measured ΔIPC** vs the zero-rate cell of the same organization +
  ECC scheme (so the constant ECC capacity tax cancels out);
* **corrected / uncorrected / silent errors per thousand reads**.

Because the injector draws every fault from a counter-based PRNG keyed
by stable request coordinates, the fault set at a lower rate is a subset
of the fault set at a higher rate for the same seed; the *attributed*
overhead and the uncorrected-error rate are therefore monotonically
non-decreasing in the injected rate
(:meth:`RasStudyResult.check_monotone` asserts this).  The catalog's
``ras_study`` entry (:func:`~repro.experiments.catalog.ras_study_experiment`)
runs the sweep on the H mixes.  The *measured*
ΔIPC column is reported for context only: in a closed-loop simulator a
few delayed reads perturb the whole downstream schedule, and at small
scales that perturbation (row-buffer locality shifting by a percent or
two) can outweigh — in either direction — the handful of cycles the ECC
machinery actually added.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..ras.config import RasConfig
from ..system.config import SystemConfig, config_2d, config_3d, config_3d_fast
from .report import format_table, with_sampling_note
from .runner import ResultTable

#: Organizations the study sweeps (Figure 4's endpoints plus the middle).
BASE_ORDER = ("2D", "3D", "3D-fast")

#: Per-read transient fault probabilities swept by default.  Retention
#: faults are injected at rate/4 alongside (scaled further by stack
#: temperature on the 3D organizations).
DEFAULT_RATES = (0.0, 1e-4, 1e-3)

#: ECC schemes swept by default (``none`` shows the silent-corruption
#: baseline; ``secded`` is the classic server configuration).
DEFAULT_ECCS = ("none", "secded")


def variant_name(base: str, ecc: str, rate: float) -> str:
    """Config name of one swept cell, e.g. ``3D/secded@0.0001``."""
    return f"{base}/{ecc}@{rate:g}"


def build_ras_matrix(
    rates: Sequence[float] = DEFAULT_RATES,
    eccs: Sequence[str] = DEFAULT_ECCS,
) -> List[SystemConfig]:
    """All swept configurations: every base x ECC scheme x fault rate."""
    if not rates or not eccs:
        raise ValueError("ras study needs at least one rate and one scheme")
    if sorted(rates) != list(rates) or len(set(rates)) != len(rates):
        raise ValueError(f"fault rates must be strictly increasing: {rates}")
    configs: List[SystemConfig] = []
    for factory in (config_2d, config_3d, config_3d_fast):
        base = factory()
        for ecc in eccs:
            for rate in rates:
                configs.append(
                    base.derive(
                        name=variant_name(base.name, ecc, rate),
                        ras=RasConfig(
                            ecc=ecc,
                            transient_rate=rate,
                            retention_rate=rate / 4,
                        ),
                    )
                )
    return configs


@dataclass
class RasStudyResult:
    """Fault-rate sweep results for every organization x ECC scheme."""

    table: ResultTable
    mixes: List[str]
    rates: Tuple[float, ...]
    eccs: Tuple[str, ...]

    def ipc_overhead(self, base: str, ecc: str, rate: float) -> float:
        """Attributed overhead: RAS pipeline cycles / total cycles.

        Counts only cycles the RAS machinery demonstrably added to read
        service (correction latency, retry backoff, retry re-reads),
        summed across the study's mixes.  Deterministically monotone in
        the fault rate; queueing amplification downstream of a delayed
        read is *not* counted, so this is a lower bound on the true
        slowdown.
        """
        config = variant_name(base, ecc, rate)
        cycles = sum(
            self.table.result(config, mix).total_cycles for mix in self.mixes
        )
        if cycles == 0:
            return 0.0
        return self._extra_sum(config, "ras_penalty_cycles") / cycles

    def measured_dipc(self, base: str, ecc: str, rate: float) -> float:
        """Measured GM IPC change vs the zero-rate cell (noisy; context)."""
        gm = self.table.gm_speedup(
            variant_name(base, ecc, rate),
            variant_name(base, ecc, self.rates[0]),
        )
        return gm - 1.0

    def _extra_sum(self, config: str, key: str) -> float:
        return sum(
            self.table.result(config, mix).extra.get(key, 0.0)
            for mix in self.mixes
        )

    def error_rate(self, base: str, ecc: str, rate: float, kind: str) -> float:
        """Errors of ``kind`` per read, summed over the study's mixes.

        ``kind`` is one of ``corrected``, ``uncorrected``, ``silent``.
        """
        config = variant_name(base, ecc, rate)
        reads = self._extra_sum(config, "ras_reads")
        if reads == 0.0:
            return 0.0
        return self._extra_sum(config, f"ras_{kind}") / reads

    def check_monotone(self, tolerance: float = 1e-9) -> List[str]:
        """Acceptance check: overhead and uncorrected rate vs fault rate.

        For every base x ECC scheme, both the IPC overhead and the
        uncorrected-error rate must be non-decreasing as the injected
        fault rate grows (the keyed PRNG makes lower-rate fault sets
        subsets of higher-rate ones).  Returns a list of violation
        descriptions — empty means the property holds everywhere.
        """
        violations: List[str] = []
        for base in BASE_ORDER:
            for ecc in self.eccs:
                for metric, series in (
                    ("attributed IPC overhead",
                     [self.ipc_overhead(base, ecc, r) for r in self.rates]),
                    ("uncorrected rate",
                     [self.error_rate(base, ecc, r, "uncorrected")
                      for r in self.rates]),
                ):
                    for lo, hi in zip(series, series[1:]):
                        if hi < lo - tolerance:
                            violations.append(
                                f"{base}/{ecc}: {metric} not monotone in "
                                f"fault rate: {series}"
                            )
                            break
        return violations

    def format(self) -> str:
        rows: List[str] = []
        columns: Dict[str, List[float]] = {
            "IPC ovh%": [],
            "dIPC%": [],
            "corr/kRd": [],
            "uncorr/kRd": [],
            "silent/kRd": [],
            "retired": [],
        }
        for base in BASE_ORDER:
            for ecc in self.eccs:
                for rate in self.rates:
                    rows.append(variant_name(base, ecc, rate))
                    columns["IPC ovh%"].append(
                        100.0 * self.ipc_overhead(base, ecc, rate)
                    )
                    columns["dIPC%"].append(
                        100.0 * self.measured_dipc(base, ecc, rate)
                    )
                    for label, kind in (
                        ("corr/kRd", "corrected"),
                        ("uncorr/kRd", "uncorrected"),
                        ("silent/kRd", "silent"),
                    ):
                        columns[label].append(
                            1000.0 * self.error_rate(base, ecc, rate, kind)
                        )
                    columns["retired"].append(
                        self._extra_sum(
                            variant_name(base, ecc, rate), "ras_banks_retired"
                        )
                    )
        note = (
            "IPC ovh% attributes RAS pipeline cycles (correction, retry) "
            "against total cycles and is monotone in fault rate; dIPC% is "
            "the measured GM IPC change vs the rate-0 cell of the same "
            "organization+scheme (schedule-perturbation noise included); "
            "error columns are per thousand DRAM reads across the mixes"
        )
        return format_table(
            "RAS study: fault rate x ECC scheme",
            rows,
            columns,
            note=with_sampling_note(note, self.table),
        )
