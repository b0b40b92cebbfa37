"""Experiment harness: regenerates every table and figure of the paper."""

from .analysis import BottleneckReport, analyze, compare_reports
from .catalog import CATALOG, Experiment, ExperimentResult, run_experiment
from .charts import bar, grouped_bars, speedup_chart
from .full_run import run_full_suite
from .persistence import CellJournal, load_table, save_table
from .stack_modes import StackModesResult
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
    "bar",
    "compare_reports",
    "grouped_bars",
    "speedup_chart",
    "ResultTable",
    "Table2aResult",
    "Table2bResult",
    "format_table",
    "geometric_mean",
    "harmonic_mean",
    "load_table",
    "run_experiment",
    "run_full_suite",
    "run_matrix",
    "run_table2a",
    "StackModesResult",
    "save_table",
]
