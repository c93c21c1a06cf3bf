"""Shared infrastructure for the benchmark suite.

Every benchmark file reproduces one table or figure of the paper, named
in its docstring.  Most of them read off a per-dataset *study* (full
convergence grid for all six estimators), which is expensive — so studies
are memoised here and shared across benchmark files within one pytest run.

Environment knobs (all optional):

=====================  =======  ==================================
variable               default  meaning
=====================  =======  ==================================
REPRO_BENCH_SCALE      small    dataset scale (tiny/small/medium)
REPRO_BENCH_PAIRS      5        s-t pairs per workload
REPRO_BENCH_REPEATS    4        repeats T per (pair, K)
REPRO_BENCH_KMAX       1000     largest sample size on the K grid
REPRO_BENCH_DATASETS   all six  comma-separated dataset subset
=====================  =======  ==================================

The paper's full protocol is 100 pairs x 100 repeats on million-edge
graphs; the defaults here keep the whole suite around tens of minutes in
pure Python while preserving every comparative shape.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List

from repro.datasets.suite import DATASET_KEYS
from repro.experiments.convergence import ConvergenceCriterion
from repro.experiments.runner import StudyConfig, StudyResult, run_study

OUTPUT_DIRECTORY = Path(__file__).resolve().parent / "output"

BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")
BENCH_PAIRS = int(os.environ.get("REPRO_BENCH_PAIRS", "5"))
BENCH_REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "4"))
BENCH_K_MAX = int(os.environ.get("REPRO_BENCH_KMAX", "1000"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))

_dataset_env = os.environ.get("REPRO_BENCH_DATASETS", "")
BENCH_DATASETS: List[str] = (
    [key.strip() for key in _dataset_env.split(",") if key.strip()]
    if _dataset_env
    else list(DATASET_KEYS)
)

BENCH_CRITERION = ConvergenceCriterion(k_start=250, k_step=250, k_max=BENCH_K_MAX)

_STUDIES: Dict[str, StudyResult] = {}


def bench_config(dataset_key: str) -> StudyConfig:
    """The standard study configuration for one dataset."""
    return StudyConfig(
        dataset=dataset_key,
        scale=BENCH_SCALE,
        pair_count=BENCH_PAIRS,
        repeats=BENCH_REPEATS,
        criterion=BENCH_CRITERION,
        seed=BENCH_SEED,
    )


def get_study(dataset_key: str) -> StudyResult:
    """Memoised full study (all estimators, full K grid) for a dataset."""
    if dataset_key not in _STUDIES:
        emit(f"[study] running full convergence study on {dataset_key} "
             f"(scale={BENCH_SCALE}, pairs={BENCH_PAIRS}, T={BENCH_REPEATS})")
        _STUDIES[dataset_key] = run_study(bench_config(dataset_key))
    return _STUDIES[dataset_key]


_OPENED_OUTPUTS: set = set()

#: Everything emitted during the run; the benchmarks conftest replays this
#: in the terminal summary so tables survive pytest's output capture.
EMITTED: List[str] = []


def emit(text: str, filename: str | None = None) -> None:
    """Record a result table: terminal summary + archive file.

    pytest captures file-descriptor output during tests, so tables are (a)
    buffered in :data:`EMITTED` and replayed by ``pytest_terminal_summary``
    (visible in ``tee`` logs), and (b) written to ``benchmarks/output/``
    immediately.  The first write of a run truncates each file.
    """
    EMITTED.append(text)
    print(text, flush=True)  # shown with -s / on failure
    if filename:
        OUTPUT_DIRECTORY.mkdir(exist_ok=True)
        mode = "a" if filename in _OPENED_OUTPUTS else "w"
        _OPENED_OUTPUTS.add(filename)
        with open(OUTPUT_DIRECTORY / filename, mode, encoding="utf-8") as handle:
            handle.write(text + "\n")


def paper_note(text: str) -> str:
    """Format a paper-reference footnote under a table."""
    return f"  [paper] {text}"
