"""Summaries, the metric contract, and how a run is printed.

``BENCHMARK.json`` at the repository root is the one declaration of
metric names, units and bounds; this module reads it, so a metric the
harness emits under another name or unit is an error here, not a
silently new column.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence

from benchmarks.ledger.deploy import REPO_ROOT

BENCHMARK_PATH = REPO_ROOT / "BENCHMARK.json"

#: Percentiles a timing may be summarised at, lowest first.
_TAILS = (90.0, 95.0, 99.0, 99.9)
#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


@lru_cache(maxsize=1)
def contract() -> dict:
    return json.loads(BENCHMARK_PATH.read_text())


def declared(kind: str) -> Dict[str, dict]:
    """``end_to_end`` or ``per_layer`` metric declarations by name."""
    return {entry["name"]: entry for entry in contract()[kind]}


def percentile(ordered: Sequence[float], percent: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def smoothed_percentile(
    ordered: Sequence[float], percent: float, halfwidth: float = 2.5
) -> float:
    """Mean of the order statistics within ``halfwidth`` points of ``percent``.

    The gated latencies use this in place of a single order statistic.
    Round trips at the baseline commit are quantised to the kernel's
    4 ms timer tick (every keep-alive reply waits for a delayed ACK), so
    one order statistic sits on one tick or the next and flips between
    them from run to run — a 5 % move in an 80 ms median that no layer
    caused.  Averaging the ten or so order statistics around the
    percentile reports where in that step the percentile falls.  On
    unquantised data it agrees with the plain percentile.
    """
    count = len(ordered)
    if not count:
        return 0.0
    low = max(0, math.ceil((percent - halfwidth) / 100.0 * count) - 1)
    high = min(count, math.ceil((percent + halfwidth) / 100.0 * count))
    window = ordered[low:max(high, low + 1)]
    return sum(window) / len(window)


@dataclass
class Summary:
    """A timing as the ledger reports one: median, tail, sample count."""

    count: int
    median: float
    tail_percent: Optional[float]  # highest percentile with >= 10 beyond
    tail: Optional[float]
    maximum: float


def summarize(samples: Sequence[float]) -> Summary:
    ordered = sorted(samples)
    if not ordered:
        return Summary(0, 0.0, None, None, 0.0)
    tail_percent = None
    for candidate in _TAILS:
        if len(ordered) * (1.0 - candidate / 100.0) >= MIN_BEYOND:
            tail_percent = candidate
    return Summary(
        count=len(ordered),
        median=statistics.median(ordered),
        tail_percent=tail_percent,
        tail=None if tail_percent is None else percentile(ordered, tail_percent),
        maximum=ordered[-1],
    )


@dataclass
class PhaseCount:
    name: str
    attempted: int
    failed: int

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed


@dataclass
class RunResult:
    """Everything one ``(workload, seed, trace)`` run produced."""

    workload: str
    seed: int
    trace: bool
    metrics: Dict[str, float]
    phases: List[PhaseCount]
    failures: List[str]
    #: Ungated context: sample counts, tails, ratio bases, cpu count.
    detail: Dict[str, object] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(phase.attempted for phase in self.phases)

    @property
    def failed(self) -> int:
        return sum(phase.failed for phase in self.phases)

    def final_line(self) -> str:
        """The one-line JSON object the benchmark contract asks for."""
        kind = "per_layer" if self.trace else "end_to_end"
        units = declared(kind)
        if set(self.metrics) != set(units):
            missing = sorted(set(units) - set(self.metrics))
            extra = sorted(set(self.metrics) - set(units))
            raise RuntimeError(
                f"{kind} metrics differ from BENCHMARK.json: "
                f"missing {missing}, undeclared {extra}"
            )
        return json.dumps(
            {
                "correct": not self.failures,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {
                        "value": float(self.metrics[name]),
                        "unit": units[name]["unit"],
                    }
                    for name in units
                },
            }
        )


def environment_header() -> dict:
    """What a ledger row must be keyed by to be comparable."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # a plain checkout, not a git repository
    return {
        "commit": commit,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def format_run(result: RunResult) -> str:
    """The human-readable block printed above the final JSON line."""
    kind = "per_layer" if result.trace else "end_to_end"
    units = declared(kind)
    lines = [
        f"== {result.workload}  seed={result.seed}  "
        f"{'traced (per-layer)' if result.trace else 'untraced (end-to-end)'}"
    ]
    for phase in result.phases:
        lines.append(
            f"   phase {phase.name:<8} attempted={phase.attempted} "
            f"succeeded={phase.succeeded} failed={phase.failed}"
        )
    error_rate = result.failed / max(result.attempted, 1)
    lines.append(f"   error_rate = {error_rate:.6f} ratio")
    for name in units:
        value = result.metrics.get(name)
        shown = "missing" if value is None else f"{value:.6g}"
        note = result.detail.get(name)
        suffix = "" if note is None else f"   [{note}]"
        lines.append(f"   {name} = {shown} {units[name]['unit']}{suffix}")
    for key, value in result.detail.items():
        if key not in units:
            lines.append(f"   ({key}: {value})")
    for failure in result.failures[:10]:
        lines.append(f"   FAILED {failure}")
    if len(result.failures) > 10:
        lines.append(f"   ... and {len(result.failures) - 10} more failures")
    return "\n".join(lines)


def describe(summary: Summary, scale: float = 1.0, unit: str = "") -> str:
    """``n=…, p95=…, max=…`` — the context printed beside a median."""
    parts = [f"n={summary.count}"]
    if summary.tail is not None:
        parts.append(f"p{summary.tail_percent:g}={summary.tail * scale:.4g}{unit}")
    parts.append(f"max={summary.maximum * scale:.4g}{unit}")
    return ", ".join(parts)
