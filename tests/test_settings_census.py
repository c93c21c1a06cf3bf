"""The settings census: what a deployment can set, counted from the code.

Every value that only tests or CI ever set is a module constant in the
module that reads it; tests monkeypatch the constant.  This file pins
the count from the outside:

* an AST scan of ``src/repro`` finds exactly one environment read, the
  engine's ``REPRO_ENGINE_WORKERS``;
* the constructor and function parameters that used to carry the shard
  tier's patience, the served chunk size and the re-warm depth are gone
  (``inspect.signature``), and so is the shard request's wire field;
* the CLI rejects the retired flags the way argparse rejects any
  unknown flag: exit status 2.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import repro
from repro.api import ReliabilityService, ShardRunRequest
from repro.cli import main
from repro.distributed import (
    CoordinatedReliabilityService,
    ShardClient,
    ShardCoordinator,
)
from repro.engine.batch import WORKERS_ENV_VAR
from repro.serve import ReliabilityHTTPServer, create_server, serve

SOURCE_ROOT = Path(repro.__file__).resolve().parent


def environment_reads():
    """``(module path, line)`` of every ``os.environ`` / ``os.getenv`` use."""
    found = []
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in (
                "environ",
                "getenv",
                "environb",
                "putenv",
            ):
                found.append((path.relative_to(SOURCE_ROOT).as_posix(), node))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
                assert not names & {"environ", "getenv"}, path
    return found


def test_exactly_one_environment_read():
    reads = environment_reads()
    assert [path for path, _ in reads] == ["engine/batch.py"]
    [(_, node)] = reads
    # The one read is `os.environ.get(WORKERS_ENV_VAR, ...)`.
    source = (SOURCE_ROOT / "engine" / "batch.py").read_text(encoding="utf-8")
    line = source.splitlines()[node.lineno - 1]
    assert "os.environ.get(WORKERS_ENV_VAR" in line
    assert WORKERS_ENV_VAR == "REPRO_ENGINE_WORKERS"


@pytest.mark.parametrize(
    "callable_,removed",
    [
        (ReliabilityService.__init__, "chunk_size"),
        (CoordinatedReliabilityService.__init__, "shard_config"),
        (ShardCoordinator.__init__, "config"),
        (ShardClient.__init__, "timeout"),
        (ReliabilityHTTPServer.__init__, "rewarm_top"),
        (create_server, "rewarm_top"),
        (serve, "rewarm_top"),
    ],
    ids=lambda value: getattr(value, "__qualname__", value),
)
def test_the_parameter_is_gone(callable_, removed):
    assert removed not in inspect.signature(callable_).parameters


def test_the_shard_request_carries_no_chunk_size():
    fields = {field.name for field in dataclasses.fields(ShardRunRequest)}
    assert "chunk_size" not in fields


@pytest.mark.parametrize(
    "module,name",
    [
        ("repro.serve", "max_body_bytes"),
        ("repro.serve", "MAX_BODY_ENV_VAR"),
        ("repro.distributed", "ShardTierConfig"),
        ("repro.api", "ShardUnavailableError"),
    ],
)
def test_the_name_is_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)


def test_the_shard_config_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.distributed.config")


@pytest.mark.parametrize(
    "arguments",
    [
        ["batch", "--queries", "q.txt", "--chunk-size", "64"],
        ["warm", "--queries", "q.txt", "--cache-dir", "c", "--chunk-size", "64"],
        ["serve", "--port", "0", "--chunk-size", "64"],
        ["serve", "--port", "0", "--rewarm-top", "1"],
    ],
    ids=["batch-chunk-size", "warm-chunk-size", "serve-chunk-size", "rewarm-top"],
)
def test_the_retired_flag_is_an_argparse_error(arguments, capsys):
    with pytest.raises(SystemExit) as failure:
        main(arguments)
    assert failure.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
