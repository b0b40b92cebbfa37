"""One-shot regeneration of every table, figure, and ablation.

``run_full_suite`` runs the catalog's suite and returns the rendered
report per experiment; with ``output_dir`` each report is also written
to ``<name>.txt``.  (The numbers EXPERIMENTS.md quotes are the
``default`` column of ``FIDELITY.json``, written by ``python -m repro
validate fidelity``.)
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Optional, Sequence

from ..system.scale import DEFAULT, ExperimentScale
from ..workloads.mixes import WorkloadMix
from .catalog import CATALOG, render, run_experiment
from .runner import RunPolicy


def run_full_suite(
    scale: ExperimentScale = DEFAULT,
    mixes: Optional[Sequence[WorkloadMix]] = None,
    seed: int = 42,
    workers: Optional[int] = None,
    output_dir: Optional[str] = None,
    only: Optional[Sequence[str]] = None,
    progress: bool = True,
    policy: Optional[RunPolicy] = None,
    journal_dir: Optional[str] = None,
    checkers: Optional[str] = None,
    sampling: Optional[str] = None,
) -> Dict[str, str]:
    """Run the suite; returns {experiment name: rendered report}.

    An experiment with failed cells is recorded as its incomplete text
    plus the failure list (see :func:`~repro.experiments.catalog.render`)
    and the suite goes on to the next one.

    Args:
        only: restrict to these catalog names (default: every
            entry); run in catalog order either way.
        output_dir: when set, write each report to ``<name>.txt`` there.
        policy: resilience knobs (timeouts/retries/resume) applied to
            every matrix in the suite.
        journal_dir: when set, each experiment checkpoints its cells to
            ``<journal_dir>/<name>.journal.jsonl`` (enables resume).
        checkers, sampling: forwarded to every experiment.
    """
    if only is None:
        names = list(CATALOG)
    else:
        unknown = set(only) - set(CATALOG)
        if unknown:
            raise ValueError(
                f"unknown experiments {sorted(unknown)}; known: {list(CATALOG)}"
            )
        names = [name for name in CATALOG if name in only]
    directory = Path(output_dir) if output_dir else None
    if directory is not None:
        directory.mkdir(parents=True, exist_ok=True)
    reports: Dict[str, str] = {}
    for name in names:
        start = time.time()
        job_policy = policy
        if journal_dir is not None:
            job_policy = (policy or RunPolicy()).with_journal(
                Path(journal_dir) / f"{name}.journal.jsonl"
            )
        result = run_experiment(
            name, scale, mixes, seed=seed, workers=workers, policy=job_policy,
            checkers=checkers, sampling=sampling,
        )
        reports[name] = render(CATALOG[name], result)
        if directory is not None:
            (directory / f"{name}.txt").write_text(reports[name] + "\n")
        if progress:
            print(f"[{time.time() - start:7.1f}s] {name} done", flush=True)
    return reports
