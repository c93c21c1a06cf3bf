"""Real ``repro serve`` subprocesses: spawn, discover, measure, kill.

A deployment is what an operator would start by hand: ``python -m repro
serve`` with the dataset flags and nothing else (plus ``--cache-dir`` on
the hot workload, and ``--coordinator --shards`` on the shard tier).
Every tuning knob the environment could carry is scrubbed, so the
defaults are what gets measured.  Each server runs in its own session;
:meth:`Deployment.close` kills the whole process group, and the harness
calls it from ``finally`` blocks and signal handlers alike.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.ledger import traffic

REPO_ROOT = Path(__file__).resolve().parents[2]
SOURCE_ROOT = REPO_ROOT / "src"

#: Environment prefixes that select engine, shard, server or benchmark
#: behaviour; none may leak from the caller's shell into a measured server.
SCRUBBED_PREFIXES = (
    "REPRO_ENGINE_", "REPRO_SHARD_", "REPRO_SERVE_", "REPRO_BENCH_",
)

STARTUP_TIMEOUT = 60.0
REQUEST_TIMEOUT = 120.0


def server_environment() -> Dict[str, str]:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(SCRUBBED_PREFIXES)
    }
    env["PYTHONPATH"] = str(SOURCE_ROOT)
    return env


class Server:
    """One ``repro serve`` process, discovered from its banner line."""

    def __init__(self, extra_args: List[str], log_path: Path) -> None:
        self._log = open(log_path, "wb")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--dataset", traffic.DATASET,
                "--scale", traffic.SCALE,
                "--seed", str(traffic.DATASET_SEED),
                "--port", "0",
                *extra_args,
            ],
            cwd=REPO_ROOT,
            env=server_environment(),
            stdout=subprocess.PIPE,
            stderr=self._log,
            start_new_session=True,  # own process group: killable as a tree
        )
        self.url: Optional[str] = None
        self.log_path = log_path

    def await_banner(self) -> str:
        """Block until the server prints ``... on http://HOST:PORT``."""
        assert self.process.stdout is not None
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            text = line.decode("utf-8", "replace")
            if " on http://" in text:
                self.url = text.rsplit(" on ", 1)[1].strip()
                return self.url
        raise RuntimeError(
            f"server did not announce a URL (exit code "
            f"{self.process.poll()}); see {self.log_path}"
        )

    def await_healthy(self) -> None:
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while True:
            try:
                if get_json(self.url + "/v1/health")["status"] == "ok":
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError(f"{self.url} never became healthy")
            time.sleep(0.01)

    def pids(self) -> List[int]:
        """The server and anything it forked (its whole process group)."""
        group = self.process.pid
        members = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                if os.getpgid(int(entry)) == group:
                    members.append(int(entry))
            except OSError:
                continue  # exited between listdir and getpgid
        return members

    def close(self) -> None:
        if self.process.poll() is None:
            for sig in (signal.SIGTERM, signal.SIGKILL):
                try:
                    os.killpg(self.process.pid, sig)
                except ProcessLookupError:
                    break
                try:
                    self.process.wait(timeout=5)
                    break
                except subprocess.TimeoutExpired:
                    continue
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=REQUEST_TIMEOUT) as response:
        return json.loads(response.read())


def peak_rss_mib(pid: int) -> float:
    """``VmHWM`` of one process in MiB (0 if it is already gone)."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Deployment:
    """The servers of one workload; ``front`` is where clients connect."""

    def __init__(self, workload: str, workdir: Path) -> None:
        self.workload = workload
        self.servers: List[Server] = []
        self.spawned_at = time.perf_counter()
        try:
            if workload == "shard_cold":
                shards = [
                    self._spawn([], workdir / f"shard{slot}.log")
                    for slot in range(2)
                ]
                addresses = [
                    shard.await_banner().split("//", 1)[1] for shard in shards
                ]
                front = self._spawn(
                    ["--coordinator", "--shards", ",".join(addresses)],
                    workdir / "coordinator.log",
                )
            elif workload == "hot_zipf":
                front = self._spawn(
                    ["--cache-dir", str(workdir / "sidecar")],
                    workdir / "server.log",
                )
            else:
                front = self._spawn([], workdir / "server.log")
            front.await_banner()
            for server in self.servers:
                server.await_healthy()
        except BaseException:
            self.close()
            raise
        self.front = front

    def _spawn(self, extra_args: List[str], log_path: Path) -> Server:
        server = Server(extra_args, log_path)
        self.servers.append(server)
        return server

    @property
    def url(self) -> str:
        return self.front.url

    def stats(self) -> dict:
        return get_json(self.url + "/v1/stats")

    def rss_peak_mib(self) -> float:
        return sum(
            peak_rss_mib(pid)
            for server in self.servers
            for pid in server.pids()
        )

    def logs(self) -> str:
        """Whatever the servers wrote to stderr (tracebacks of 500s)."""
        chunks = []
        for server in self.servers:
            text = server.log_path.read_text(errors="replace").strip()
            if text:
                chunks.append(f"--- {server.log_path.name}\n{text}")
        return "\n".join(chunks)

    def close(self) -> None:
        for server in self.servers:
            server.close()
