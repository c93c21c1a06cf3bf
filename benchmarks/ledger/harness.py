"""The untraced run: real servers, closed-loop traffic, end-to-end numbers.

One run of one workload is::

    set-up (x3: spawn -> healthy -> warm-up prefix answered; median kept)
    probes        fixed accuracy queries, answered before anything is timed
    timed phase   closed loop for --seconds; nothing else runs meanwhile
    memory        VmHWM of every server process, then the servers are killed
    checks        echo on every reply, replica replay of a sample, MAE

Everything a steady state presupposes is paid inside set-up and reported
as ``setup_s``, so work moved out of the request path into start-up
still shows.  The checks run after the servers are gone: no correctness
work ever shares a core with a timed request.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import List, Tuple

from benchmarks.ledger import check, traffic
from benchmarks.ledger.deploy import Deployment
from benchmarks.ledger.loadgen import Client, Exchange, run_phase
from benchmarks.ledger.report import (
    PhaseCount,
    RunResult,
    describe,
    percentile,
    smoothed_percentile,
    summarize,
)

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Set-ups per run; the median is reported, the last one is measured on.
SETUP_ROUNDS = 3


#: One waiting client.  Two clients on this system's single-process
#: servers contend for one interpreter lock, and which thread wins is
#: decided run by run: throughput then moves by +-5 % between runs of
#: identical work, more than any bound here could absorb.  One client
#: measures service time; what a second client does to it is reported,
#: ungated, by the traced run (``serve.throughput_ratio_c2``).
CLIENTS = 1


def make_workdir() -> Path:
    """A scratch directory for sidecars and server logs, inside ``out/``."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))


def send_all(url: str, requests) -> List[Exchange]:
    """Send ``requests`` one after another on one connection."""
    client = Client(url)
    try:
        return [client.send(request) for request in requests]
    finally:
        client.close()


def set_up(workload: str, workdir: Path) -> Tuple[Deployment, List[Exchange], float]:
    """Spawn the deployment and answer its warm-up prefix; time both."""
    workdir.mkdir(parents=True, exist_ok=True)
    deployment = Deployment(workload, workdir)
    try:
        warmed = send_all(deployment.url, traffic.warmup(workload))
    except BaseException:
        deployment.close()
        raise
    return deployment, warmed, time.perf_counter() - deployment.spawned_at


def run_untraced(workload: str, seed: int, seconds: float) -> RunResult:
    workdir = make_workdir()
    deployment = None
    started = time.perf_counter()
    try:
        setup_seconds = []
        for round_index in range(SETUP_ROUNDS):
            if deployment is not None:
                deployment.close()
            deployment, warmed, elapsed = set_up(
                workload, workdir / f"setup{round_index}"
            )
            setup_seconds.append(elapsed)
        probed = send_all(deployment.url, traffic.probes(workload))
        phase_started = time.perf_counter()
        phase = run_phase(
            deployment.url,
            traffic.iter_stream(workload, seed),
            clients=CLIENTS,
            seconds=seconds,
            start_version=sum(r.is_update for r in traffic.warmup(workload)),
        )
        rss_peak = deployment.rss_peak_mib()
        server_logs = deployment.logs()
        deployment.close()
        deployment = None
        checks_started = time.perf_counter()

        replica = check.Replica(workload, workdir)
        # The replica has applied the warm-up prefix and nothing since:
        # it holds the graph version the probes were answered at.  Graphs
        # are copy-on-write, so the reference outlives the replayed updates.
        probe_graph = replica.service.graph
        try:
            warm_failures = check.check_exchanges(warmed, None)
            probe_failures = check.check_exchanges(probed, None)
            phase_failures = check.check_exchanges(phase.exchanges, replica)
            mae = float("nan")
            if not probe_failures:
                reference = check.reference_estimates(
                    probe_graph, traffic.probe_pairs(workload)
                )
                mae = check.mean_absolute_error(
                    check.probe_estimates(probed), reference
                )
        finally:
            replica.close()
    finally:
        if deployment is not None:
            deployment.close()
        shutil.rmtree(workdir, ignore_errors=True)

    good = [exchange.seconds for exchange in phase.exchanges if exchange.ok]
    latency = summarize(good)
    ordered = sorted(good)
    failures = warm_failures + probe_failures + phase_failures
    if failures and server_logs:
        failures.append("server logs:\n" + server_logs[-4000:])
    metrics = {
        "setup_s": statistics.median(setup_seconds),
        "requests_per_s": len(good) / phase.wall_seconds,
        "latency_p50_ms": smoothed_percentile(ordered, 50.0) * 1e3,
        "latency_p95_ms": smoothed_percentile(ordered, 95.0) * 1e3,
        "rss_peak_mb": rss_peak,
        "estimate_mae": mae,
    }
    queries = sum(
        len(exchange.request.payload.get("queries", ())) or 1
        for exchange in phase.exchanges
        if exchange.ok
    )
    return RunResult(
        workload=workload,
        seed=seed,
        trace=False,
        metrics=metrics,
        phases=[
            PhaseCount("warm-up", len(warmed), len(warm_failures)),
            PhaseCount("probes", len(probed), len(probe_failures)),
            PhaseCount("measured", len(phase.exchanges), len(phase_failures)),
        ],
        failures=failures,
        detail={
            "setup_s": "median of "
            + ", ".join(f"{value:.3f}" for value in setup_seconds),
            "requests_per_s": (
                f"{len(good)} requests in {phase.wall_seconds:.2f} s; "
                f"{queries / max(len(good), 1):.2f} queries per request"
            ),
            "latency_p50_ms": (
                f"plain median {latency.median * 1e3:.4g}ms, "
                + describe(latency, 1e3, "ms")
            ),
            "latency_p95_ms": (
                f"plain p95 {percentile(ordered, 95.0) * 1e3:.4g}ms with "
                f"{sum(1 for value in ordered if value > percentile(ordered, 95.0))}"
                " samples beyond it"
            ),
            "rss_peak_mb": "sum of VmHWM over every server process",
            "estimate_mae": (
                f"{len(traffic.probes(workload))} probe requests against "
                f"K={check.REFERENCE_SAMPLES}"
            ),
            "clients": phase.clients,
            "cpu_count": os.cpu_count(),
            "harness_seconds": (
                f"set-up and probes {phase_started - started:.1f}, timed phase "
                f"{checks_started - phase_started:.1f}, checks "
                f"{time.perf_counter() - checks_started:.1f}"
            ),
            **(
                {"server_stderr": server_logs.strip().splitlines()[-1][:200]}
                if server_logs.strip()
                else {}
            ),
        },
    )
