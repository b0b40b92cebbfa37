"""Experiment harness: regenerates every table and figure of the paper."""

from .analysis import BottleneckReport, analyze, compare_reports
from .catalog import CATALOG, Experiment, ExperimentResult, run_experiment
from .persistence import CellJournal
from .report import format_table
from .runner import (
    CellFailure,
    ResultTable,
    RunPolicy,
    geometric_mean,
    harmonic_mean,
    parallelism_from_env,
    run_matrix,
)
from .spec import SweepSpec
from .table2 import Table2aResult, Table2bResult, run_table2a

__all__ = [
    "BottleneckReport",
    "CATALOG",
    "CellFailure",
    "CellJournal",
    "Experiment",
    "ExperimentResult",
    "RunPolicy",
    "SweepSpec",
    "parallelism_from_env",
    "analyze",
    "compare_reports",
    "ResultTable",
    "Table2aResult",
    "Table2bResult",
    "format_table",
    "geometric_mean",
    "harmonic_mean",
    "run_experiment",
    "run_matrix",
    "run_table2a",
]
