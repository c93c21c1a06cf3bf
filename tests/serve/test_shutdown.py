"""``repro serve`` under SIGTERM: the same clean exit as Ctrl-C.

A real server subprocess with a forked worker pool and a persistent
sidecar is sent SIGTERM *mid-request*.  It must leave through
``serve()``'s shutdown path — ``server_close()`` → ``service.close()`` →
pools closed — so that no pool worker outlives it (they used to: orphans
holding the graph) and the sidecar's deferred disk-hit recency ticks
reach the file.

Why mid-request: every persistent reply reports cache statistics, which
flushes the ticks as a side effect, so ticks are only ever *pending*
while a run that hit the disk is still sweeping its other queries.  The
test therefore sends one batch of warmed queries plus a long cold one
and signals once the pool's workers are visibly busy with it — by then
the cache lookups (the disk hits) are behind the run.
"""

import contextlib
import http.client
import json
import os
import re
import signal
import sqlite3
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.api import ReliabilityService, WarmRequest, coerce_query_specs
from repro.engine.cache import RESULT_CACHE_FILENAME

REPO_ROOT = Path(__file__).resolve().parents[2]

SEED = 3

#: Pre-warmed into the sidecar, so the server answers them as disk hits.
HOT = [[0, 5, 200], [3, 9, 200]]
#: Never warmed, five 64-world chunks wide: this one forks the pool.
COLD = [[1, 6, 300], [2, 8, 300]]
#: Never warmed and seconds long: what the workers chew on at SIGTERM.
LONG = [[1, 7, 100_000]]

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="needs /proc to find children"
)


def post_batch(url, queries):
    request = urllib.request.Request(
        url + "/v1/batch",
        data=json.dumps({"queries": queries}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.loads(response.read())


def post_ignoring_the_outcome(url, queries):
    with contextlib.suppress(OSError, http.client.HTTPException):
        post_batch(url, queries)


def process_state(pid):
    """The one-letter state of ``pid``, or ``None`` once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


def children_of(parent):
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == parent:
            pids.append(int(entry))
    return pids


def wait_until(condition, patience):
    deadline = time.monotonic() + patience
    while not condition():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)
    return True


def still_running(pids, patience):
    """The ``pids`` not gone (or zombies) after up to ``patience`` seconds."""

    def alive():
        return [pid for pid in pids if process_state(pid) not in (None, "Z")]

    wait_until(lambda: not alive(), patience)
    return alive()


def newest_tick(sidecar):
    connection = sqlite3.connect(sidecar)
    try:
        hot_targets = ", ".join(str(target) for _, target, _ in HOT)
        return connection.execute(
            "SELECT MIN(touched), MAX(touched) FROM results "
            f"WHERE samples = 200 AND target IN ({hot_targets})"
        ).fetchone()
    finally:
        connection.close()


def test_sigterm_closes_the_pool_and_flushes_the_sidecar(tmp_path):
    cache_dir = tmp_path / "cache"
    with ReliabilityService.from_dataset(
        "lastfm", "tiny", seed=SEED, cache_dir=str(cache_dir)
    ) as warmer:
        warmer.warm(WarmRequest(queries=coerce_query_specs(HOT)))
    sidecar = cache_dir / RESULT_CACHE_FILENAME
    _, warmed_tick = newest_tick(sidecar)

    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + environment["PYTHONPATH"]
        if environment.get("PYTHONPATH")
        else ""
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--dataset", "lastfm",
         "--scale", "tiny", "--seed", str(SEED), "--port", "0",
         "--workers", "2", "--chunk-size", "64",
         "--cache-dir", str(cache_dir)],
        stdout=subprocess.PIPE,
        text=True,
        env=environment,
    )
    workers = []
    try:
        match = re.search(r"http://\S+", process.stdout.readline())
        assert match, "no URL in the serve banner"
        url = match.group(0)
        assert post_batch(url, COLD)["engine"]["workers"] == 2
        workers = children_of(process.pid)
        assert len(workers) >= 2, "the batch did not fork a pool"
        # Disk hits for HOT, then the pool sweeps LONG; the reply (or
        # the reset the shutdown causes) is beside the point.
        threading.Thread(
            target=post_ignoring_the_outcome, args=(url, HOT + LONG),
            daemon=True,
        ).start()
        assert wait_until(
            lambda: any(process_state(pid) == "R" for pid in workers), 30
        ), "the pool never picked the long batch up"
        assert newest_tick(sidecar)[1] == warmed_tick  # still deferred
        process.terminate()
        status = process.wait(timeout=30)
    finally:
        if process.poll() is None:
            workers = children_of(process.pid)
            process.kill()
            process.wait(timeout=30)
        process.stdout.close()
        survivors = still_running(workers, patience=10)
        for pid in survivors:  # a failing run must not leave orphans
            os.kill(pid, signal.SIGKILL)

    assert status == 0  # left by the front door, not killed by the signal
    assert survivors == []
    flushed_tick, _ = newest_tick(sidecar)
    assert flushed_tick > warmed_tick  # every hot row's tick reached disk
