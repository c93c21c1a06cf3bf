"""The distributed tier's acceptance test: real processes, real kills.

Two shard workers and one coordinator, each a separate ``repro serve``
process on localhost.  The coordinator's ``/v1/batch`` must be
byte-compatible with a single-process server answering the identical
request (a shard worker *is* one — it serves the reference document),
normalising only ``engine.mode``, ``engine.workers``, and
``engine.seconds``.

The hard part is the SIGKILL scenario: one worker is frozen with
``SIGSTOP`` before the coordinated batch is sent, so its range is
reliably in flight (the batch is checked to be still pending half a
second later) when the worker is killed with ``SIGKILL`` — no shutdown
hooks, the socket just dies.  The coordinator must re-dispatch the dead
worker's range and return a document bit-identical to the healthy run,
with the casualty visible in ``/v1/stats``.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.suite import load_dataset
from repro.engine.batch import BatchEngine

REPO_ROOT = Path(__file__).resolve().parents[2]

SEED = 3

BATCH_BODY = {
    "queries": [[0, 5, 400], [3, 9, 250], [0, 5, 400], [1, 7, 150, 2]],
    "samples": 400,
}


def spawn_serve(extra_args=(), extra_env=None):
    """Start a ``repro serve`` subprocess; return ``(process, url)``."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + environment["PYTHONPATH"]
        if environment.get("PYTHONPATH")
        else ""
    )
    environment.update(extra_env or {})
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--dataset", "lastfm", "--scale", "tiny",
            "--seed", str(SEED), "--port", "0",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=environment,
    )
    banner = process.stdout.readline()
    match = re.search(r"http://\S+", banner)
    assert match, f"no URL in serve banner: {banner!r}"
    return process, match.group(0)


def terminate(process):
    if process.poll() is None:
        process.send_signal(signal.SIGCONT)  # a stopped process ignores TERM
        process.terminate()
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:  # pragma: no cover - diagnostics
        process.kill()
        process.wait(timeout=10)


def http_post(url, path, body, timeout=120):
    request = urllib.request.Request(
        url + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def http_get(url, path, timeout=120):
    with urllib.request.urlopen(url + path, timeout=timeout) as response:
        return json.loads(response.read())


def normalized(document):
    document = json.loads(json.dumps(document))
    for field in ("mode", "workers", "seconds"):
        document["engine"].pop(field, None)
    return document


def coordinator_env():
    """Tight robustness knobs so failover is fast under test."""
    return {
        "REPRO_SHARD_TIMEOUT": "15",
        "REPRO_SHARD_RETRIES": "0",
        "REPRO_SHARD_BACKOFF": "0",
        "REPRO_SHARD_COOLDOWN": "300",
    }


def sequential_oracle():
    """The engine's per-query loop — the paper-faithful reference."""
    graph = load_dataset("lastfm", "tiny", SEED).graph
    result = BatchEngine(graph, seed=SEED).run_sequential(
        [tuple(query) for query in BATCH_BODY["queries"]]
    )
    return [float(estimate) for estimate in result.estimates]


class TestTwoProcessTier:
    def test_coordinated_batch_is_byte_compatible(self):
        processes = []
        try:
            worker_a, url_a = spawn_serve()
            processes.append(worker_a)
            worker_b, url_b = spawn_serve()
            processes.append(worker_b)
            shards = ",".join(
                url.replace("http://", "") for url in (url_a, url_b)
            )
            coordinator, url_c = spawn_serve(
                ("--coordinator", "--shards", shards),
                extra_env=coordinator_env(),
            )
            processes.append(coordinator)

            # Worker A is a plain single-process serve: its document is
            # the wire-compatibility reference.
            reference = http_post(url_a, "/v1/batch", BATCH_BODY)
            distributed = http_post(url_c, "/v1/batch", BATCH_BODY)
            assert normalized(distributed) == normalized(reference)
            assert distributed["engine"]["mode"] == "distributed"
            assert distributed["engine"]["workers"] == 2

            # And both agree with the sequential per-query oracle.
            estimates = [row["estimate"] for row in distributed["results"]]
            assert estimates == sequential_oracle()

            stats = http_get(url_c, "/v1/stats")
            assert stats["shards"]["total"] == 2
            assert stats["shards"]["healthy"] == 2
            assert stats["shards"]["batches"] == 1
        finally:
            for process in processes:
                terminate(process)

    def test_sigkilled_worker_mid_batch_is_bit_identical(self):
        processes = []
        try:
            worker_a, url_a = spawn_serve()
            processes.append(worker_a)
            worker_b, url_b = spawn_serve()
            processes.append(worker_b)
            shards = ",".join(
                url.replace("http://", "") for url in (url_a, url_b)
            )
            coordinator, url_c = spawn_serve(
                ("--coordinator", "--shards", shards),
                extra_env=coordinator_env(),
            )
            processes.append(coordinator)

            # Worker B's own /v1/batch is the reference document.
            reference = http_post(url_b, "/v1/batch", BATCH_BODY)

            # Freeze worker A: its kernel still accepts the coordinator's
            # connection, but no reply can come until it is killed, so
            # the dispatch to it is in flight however fast B answers.
            os.kill(worker_a.pid, signal.SIGSTOP)

            outcome = {}

            def client():
                outcome["document"] = http_post(
                    url_c, "/v1/batch", BATCH_BODY
                )

            thread = threading.Thread(target=client)
            thread.start()
            thread.join(timeout=0.5)
            assert thread.is_alive(), "batch returned past a stopped worker"
            # SIGKILL worker A mid-request — its socket dies with no
            # goodbye.
            os.kill(worker_a.pid, signal.SIGKILL)
            worker_a.wait(timeout=10)
            thread.join(timeout=120)
            assert "document" in outcome, "coordinated batch never returned"

            distributed = outcome["document"]
            assert normalized(distributed) == normalized(reference)
            estimates = [row["estimate"] for row in distributed["results"]]
            assert estimates == sequential_oracle()

            stats = http_get(url_c, "/v1/stats")
            assert stats["shards"]["healthy"] == 1
            assert stats["shards"]["redispatches"] >= 1
            casualties = [
                member
                for member in stats["shards"]["members"]
                if not member["healthy"]
            ]
            assert len(casualties) == 1
            assert casualties[0]["failures"] >= 1
        finally:
            for process in processes:
                terminate(process)

    def test_counts_merge_exactly_across_processes(self):
        # Belt and braces for the merge arithmetic over real HTTP: the
        # two shard sub-ranges must sum to the full-range hit counts.
        processes = []
        try:
            worker, url = spawn_serve()
            processes.append(worker)
            fingerprint = http_get(url, "/v1/stats")["graph"]["fingerprint"]
            body = {
                "queries": BATCH_BODY["queries"],
                "seed": SEED,
                "fingerprint": fingerprint,
            }
            low = http_post(
                url, "/v1/shard/run", {**body, "start": 0, "stop": 256}
            )
            high = http_post(
                url, "/v1/shard/run", {**body, "start": 256, "stop": 400}
            )
            full = http_post(
                url, "/v1/shard/run", {**body, "start": 0, "stop": 400}
            )
            merged = np.asarray(low["hits"]) + np.asarray(high["hits"])
            np.testing.assert_array_equal(merged, np.asarray(full["hits"]))
            assert low["sweeps"] + high["sweeps"] == full["sweeps"]
        finally:
            for process in processes:
                terminate(process)

    def test_stale_shard_rejection_reaches_the_client_as_409(self):
        processes = []
        try:
            worker, url_w = spawn_serve()
            processes.append(worker)
            coordinator, url_c = spawn_serve(
                ("--coordinator", "--shards", url_w.replace("http://", "")),
                extra_env={
                    **coordinator_env(),
                    "REPRO_SHARD_LOCAL_FALLBACK": "off",
                },
            )
            processes.append(coordinator)
            # Update the coordinator's graph only; the worker is stale.
            http_post(url_c, "/v1/update", {"set_edges": [[0, 1, 0.5]]})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                http_post(url_c, "/v1/batch", BATCH_BODY)
            assert excinfo.value.code == 409
            body = json.loads(excinfo.value.read())
            assert body["error"]["type"] == "FingerprintMismatchError"
        finally:
            for process in processes:
                terminate(process)
