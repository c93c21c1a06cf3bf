"""Command line of the ledger.

``--workload NAME`` runs one workload and ends with the one-line JSON
result the benchmark contract asks for; without it all four run in
turn.  ``--trace`` (or ``--trace 1``) runs the traced, per-layer variant
instead of the end-to-end one.  ``--aa`` runs the end-to-end suite twice
on this checkout and fails if the two disagree by more than a metric's
own bound.
"""

from __future__ import annotations

import argparse
import json
import signal
from typing import List, Optional, Sequence

from benchmarks.ledger import report, traffic


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks/ledger",
        description="The performance ledger: served workloads, measured "
        "end to end and layer by layer.",
    )
    parser.add_argument(
        "--workload", choices=traffic.WORKLOADS, default=None,
        help="run one workload (default: all four in turn)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="traffic seed; 0 is the gated stream, any other the held-out one",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="length of the timed phase (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced per-layer run; 0 (default): the end-to-end run",
    )
    parser.add_argument(
        "--aa", action="store_true",
        help="run the end-to-end suite twice and compare against the bounds",
    )
    return parser


def _terminate(signum, frame) -> None:
    # Turn SIGTERM into an exception so every ``finally`` that kills a
    # server process group runs, exactly as it does for Ctrl-C.
    raise KeyboardInterrupt(f"signal {signum}")


def run_one(workload: str, seed: int, seconds: float, trace: bool):
    if trace:
        from benchmarks.ledger.layers import run_traced

        return run_traced(workload, seed, seconds)
    from benchmarks.ledger.harness import run_untraced

    return run_untraced(workload, seed, seconds)


def run_suite(
    workloads: Sequence[str], seed: int, seconds: float, trace: bool
) -> List[report.RunResult]:
    results = []
    for workload in workloads:
        result = run_one(workload, seed, seconds, trace)
        print(report.format_run(result), flush=True)
        results.append(result)
    return results


def compare_aa(
    first: Sequence[report.RunResult], second: Sequence[report.RunResult]
) -> List[str]:
    """Per (workload, metric): relative A/A difference against the bound."""
    declared = report.declared("end_to_end")
    breaches = []
    print("== A/A: two runs of the same code")
    for run_a, run_b in zip(first, second):
        for name, entry in declared.items():
            a, b = run_a.metrics[name], run_b.metrics[name]
            relative = abs(b - a) / abs(a) if a else float("inf")
            verdict = "ok" if relative <= entry["bound"] else "EXCEEDS"
            print(
                f"   {run_a.workload:<13} {name:<16} A={a:.6g} B={b:.6g} "
                f"diff={relative:.2%} bound={entry['bound']:.0%} {verdict}"
            )
            if verdict != "ok":
                breaches.append(f"{run_a.workload}/{name}")
        if run_a.failed or run_b.failed:
            breaches.append(f"{run_a.workload}/error_rate")
    return breaches


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    seconds = (
        float(report.contract()["run_seconds"])
        if args.seconds is None
        else args.seconds
    )
    if seconds <= 0:
        raise SystemExit("--seconds must be positive")
    if args.aa and args.trace:
        raise SystemExit("--aa compares end-to-end runs; drop --trace")
    workloads = (
        traffic.WORKLOADS if args.workload is None else (args.workload,)
    )
    header = report.environment_header()
    print("== ledger " + json.dumps(header), flush=True)

    results = run_suite(workloads, args.seed, seconds, bool(args.trace))
    breaches: List[str] = []
    if args.aa:
        again = run_suite(workloads, args.seed, seconds, bool(args.trace))
        breaches = compare_aa(results, again)
        results = results + again
    correct = all(not result.failures for result in results) and not breaches
    if breaches:
        print("A/A disagreement beyond the bound: " + ", ".join(breaches))
    if args.workload is not None and not args.aa:
        print(results[0].final_line(), flush=True)
    else:
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": sum(result.attempted for result in results),
                    "failed": sum(result.failed for result in results),
                    "runs": [
                        {
                            "workload": result.workload,
                            "seed": result.seed,
                            "trace": result.trace,
                            "metrics": result.metrics,
                        }
                        for result in results
                    ],
                }
            ),
            flush=True,
        )
    return 0 if correct else 1
