"""The CLI is a pure adapter over `ReliabilityService` — pinned here.

Two guarantees:

* **Behavioural**: for the same inputs, ``repro batch`` / ``repro
  estimate`` print exactly what the facade returns — byte-identical
  JSON modulo the wall-clock ``seconds`` field.
* **Structural**: ``cli.py`` performs no estimator/engine/cache
  construction of its own; every command routes through the facade.
  A source scan enforces it so a future command cannot quietly regress
  the single-surface design.
"""

import inspect
import json

import pytest

import repro.cli as cli_module
from repro.api import (
    BatchRequest,
    EstimateRequest,
    QuerySpec,
    ReliabilityService,
)
from repro.cli import main


def _strip_volatile(report):
    """Drop wall-clock fields that legitimately differ between runs."""
    report = json.loads(json.dumps(report))  # deep copy
    report.get("engine", {}).pop("seconds", None)
    return report


@pytest.fixture
def query_file(tmp_path):
    path = tmp_path / "queries.txt"
    path.write_text("0 5 200\n3 9 150\n0 7 100 2\n", encoding="utf-8")
    return str(path)


class TestCliFacadeParity:
    WORKLOAD = (
        QuerySpec(0, 5, 200),
        QuerySpec(3, 9, 150),
        QuerySpec(0, 7, 100, 2),
    )

    def _cli_report(self, capsys, query_file, *extra):
        assert main(
            ["batch", "--queries", query_file, "--dataset", "lastfm",
             "--scale", "tiny", "--seed", "3", *extra]
        ) == 0
        return json.loads(capsys.readouterr().out)

    def _facade_report(self, request, cache_dir=None):
        with ReliabilityService.from_dataset(
            "lastfm", "tiny", seed=3, cache_dir=cache_dir
        ) as service:
            return service.estimate_batch(request).to_dict()

    def test_batch_mc_identical_json(self, capsys, query_file):
        cli = self._cli_report(capsys, query_file)
        facade = self._facade_report(BatchRequest(queries=self.WORKLOAD))
        assert _strip_volatile(cli) == _strip_volatile(facade)

    def test_batch_bfs_sharing_identical_json(self, capsys, query_file):
        cli = self._cli_report(capsys, query_file, "--method", "bfs_sharing")
        facade = self._facade_report(
            BatchRequest(queries=self.WORKLOAD, method="bfs_sharing")
        )
        assert _strip_volatile(cli) == _strip_volatile(facade)

    def test_batch_prob_tree_identical_json(self, capsys, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("0 5 200\n3 9 150\n", encoding="utf-8")
        cli = self._cli_report(capsys, str(path), "--method", "prob_tree")
        facade = self._facade_report(
            BatchRequest(
                queries=(QuerySpec(0, 5, 200), QuerySpec(3, 9, 150)),
                method="prob_tree",
            )
        )
        assert _strip_volatile(cli) == _strip_volatile(facade)

    def test_batch_fallback_identical_json(self, capsys, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("0 5 100\n", encoding="utf-8")
        cli = self._cli_report(capsys, str(path), "--method", "rhh")
        facade = self._facade_report(
            BatchRequest(queries=(QuerySpec(0, 5, 100),), method="rhh")
        )
        assert _strip_volatile(cli) == _strip_volatile(facade)

    def test_batch_cached_identical_json(self, capsys, query_file, tmp_path):
        cache_a = str(tmp_path / "a")
        cache_b = str(tmp_path / "b")
        request = BatchRequest(queries=self.WORKLOAD)
        # Cold pass each (separate sidecars), then compare the
        # deterministic warm passes.
        self._cli_report(capsys, query_file, "--cache-dir", cache_a)
        self._facade_report(request, cache_dir=cache_b)
        cli = self._cli_report(capsys, query_file, "--cache-dir", cache_a)
        facade = self._facade_report(request, cache_dir=cache_b)
        assert _strip_volatile(cli) == _strip_volatile(facade)
        assert cli["engine"]["worlds_sampled"] == 0

    def test_estimate_prints_the_facade_value(self, capsys):
        assert main(
            ["estimate", "--dataset", "lastfm", "--scale", "tiny",
             "--source", "0", "--target", "5", "--samples", "200",
             "--seed", "3"]
        ) == 0
        printed = capsys.readouterr().out
        with ReliabilityService.from_dataset(
            "lastfm", "tiny", seed=3
        ) as service:
            response = service.estimate(
                EstimateRequest(source=0, target=5, samples=200)
            )
        assert f"{response.estimate:.6f}" in printed


class TestCliPurity:
    """`cli.py` may parse, route, and print — never construct."""

    FORBIDDEN = (
        # estimator construction / registry lookups beyond key metadata
        "create_estimator",
        "estimator_class",
        "BFSSharingEstimator",
        "MonteCarloEstimator",
        "ProbTreeEstimator",
        # engine / cache construction
        "BatchEngine",
        "ResultCache",
        "open_result_cache",
        "PersistentResultCache",
        # query/bounds/recommend internals the facade owns
        "top_k_reliable_targets",
        "reliability_bounds",
        "recommend_estimator",
        "run_study(",
        "run_convergence",
        "stable_substream",
    )

    def test_no_direct_construction_in_cli_source(self):
        source = inspect.getsource(cli_module)
        offenders = [name for name in self.FORBIDDEN if name in source]
        assert not offenders, (
            f"cli.py must route through ReliabilityService; found direct "
            f"use of: {', '.join(offenders)}"
        )

    def test_cli_does_not_import_engine_or_estimators(self):
        source = inspect.getsource(cli_module)
        assert "from repro.engine" not in source
        assert "from repro.core.estimators" not in source

    def test_every_command_is_registered(self):
        import argparse

        parser = cli_module._build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert set(cli_module._COMMANDS) == set(subparsers.choices)
