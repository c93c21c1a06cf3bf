"""Experiment framework: convergence, metrics, memory, orchestration."""

from repro.experiments.convergence import (
    ConvergenceCriterion,
    ConvergenceResult,
    SamplePoint,
    evaluate_at_k,
    run_convergence,
)
from repro.experiments.metrics import relative_error
from repro.experiments.memory import format_bytes, traced_peak_bytes
from repro.experiments.runner import StudyConfig, StudyResult, run_study
from repro.experiments.report import (
    format_dict_rows,
    format_series,
    format_table,
    stars,
)

__all__ = [
    "ConvergenceCriterion",
    "ConvergenceResult",
    "SamplePoint",
    "evaluate_at_k",
    "run_convergence",
    "relative_error",
    "format_bytes",
    "traced_peak_bytes",
    "StudyConfig",
    "StudyResult",
    "run_study",
    "format_dict_rows",
    "format_series",
    "format_table",
    "stars",
]
