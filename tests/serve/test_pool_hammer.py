"""The worker-pool serving hammer (PR 6 acceptance).

One ``repro serve --workers 2`` process owns one shared
:class:`~repro.engine.pool.WorkerPool`; N concurrent batch clients must
all be served from it — no per-request pool forking — and every response
must be **bit-identical** to the engine's sequential per-query oracle at
the same seed.  Each round uses a fresh seed so requests genuinely sweep
worlds through the pooled workers instead of replaying the result cache.
"""

import json
import os
import re
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import pytest

from repro.datasets.suite import load_dataset
from repro.engine.batch import BatchEngine

REPO_ROOT = Path(__file__).resolve().parents[2]

SEED = 3
ROUNDS = 3
CLIENTS = 4

#: Workloads big enough to fan out: at the default 256-world chunk
#: size, every budget spans two chunks, one per pool worker.
BATCH_BODIES = (
    {"queries": [[0, 5, 300], [3, 9, 300], [0, 7, 260, 2]]},
    {"queries": [[1, 6, 300], [2, 8, 280]]},
)


def round_seed(round_index):
    return SEED + 50 + round_index


def http_post(url, path, body):
    request = urllib.request.Request(
        url + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.loads(response.read())


def http_get(url, path):
    with urllib.request.urlopen(url + path, timeout=120) as response:
        return json.loads(response.read())


def sequential_oracles(graph):
    """``oracle[(body_index, round)]`` from the per-query sequential loop."""
    oracles = {}
    for body_index, body in enumerate(BATCH_BODIES):
        for round_index in range(ROUNDS):
            result = BatchEngine(
                graph, seed=round_seed(round_index)
            ).run_sequential([tuple(query) for query in body["queries"]])
            oracles[(body_index, round_index)] = [
                float(estimate) for estimate in result.estimates
            ]
    return oracles


class TestServePoolHammer:
    @pytest.fixture(scope="class")
    def served(self):
        environment = dict(os.environ)
        environment["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + environment["PYTHONPATH"]
            if environment.get("PYTHONPATH")
            else ""
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--dataset", "lastfm",
             "--scale", "tiny", "--seed", str(SEED), "--port", "0",
             "--workers", "2"],
            stdout=subprocess.PIPE,
            text=True,
            env=environment,
        )
        try:
            banner = process.stdout.readline()
            match = re.search(r"http://\S+", banner)
            assert match, f"no URL in serve banner: {banner!r}"
            yield match.group(0)
        finally:
            process.terminate()
            process.wait(timeout=30)

    def test_concurrent_batches_share_pool_bit_identically(self, served):
        graph = load_dataset("lastfm", "tiny", SEED).graph
        oracles = sequential_oracles(graph)
        failures = []
        barrier = threading.Barrier(CLIENTS)

        def batch_client(slot):
            barrier.wait(timeout=60)
            body_index = slot % len(BATCH_BODIES)
            for round_index in range(ROUNDS):
                body = dict(BATCH_BODIES[body_index])
                body["seed"] = round_seed(round_index)
                payload = http_post(served, "/v1/batch", body)
                got = [row["estimate"] for row in payload["results"]]
                expected = oracles[(body_index, round_index)]
                if got != expected:
                    failures.append((slot, round_index, got, expected))

        clients = [
            threading.Thread(target=batch_client, args=(slot,))
            for slot in range(CLIENTS)
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=300)
        stuck = [client for client in clients if client.is_alive()]
        if stuck:  # pragma: no cover - deadlock diagnostics
            failures.append(("deadlock", f"{len(stuck)} clients never finished"))
        assert not failures

        # The shared pool — not per-request forking — served the sweeps:
        # one long-lived pool, started, sized by the serve flag, with at
        # least one pooled run per fresh-seed round.
        stats = http_get(served, "/v1/stats")
        pool = stats["pool"]
        assert pool is not None
        assert pool["workers"] == 2
        assert pool["started"] is True
        assert pool["closed"] is False
        assert pool["runs"] >= ROUNDS
        assert stats["requests"]["batch"] == CLIENTS * ROUNDS
