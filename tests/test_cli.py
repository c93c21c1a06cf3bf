"""Tests for the command-line interface."""

import json
import subprocess
import sys

import pytest

from repro.api import service as service_module
from repro.cli import main


def assert_rejected(failure, *fields):
    """A `repro batch` run that exited non-zero, naming every ``fields``.

    The rules and their wording are the service's
    (``ReliabilityService.check_batch_request``), phrased in request-field
    terms; the CLI only prefixes them.  ``SystemExit`` carrying a message
    is exit status 1.
    """
    message = failure.value.code
    assert isinstance(message, str) and message.startswith("repro batch: ")
    for field in fields:
        assert field in message, message


class TestEstimate:
    def test_basic_query(self, capsys):
        code = main(
            [
                "estimate",
                "--dataset", "lastfm",
                "--scale", "tiny",
                "--source", "0",
                "--target", "5",
                "--samples", "200",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "R(0, 5)" in out
        assert "MC" in out

    def test_method_selection(self, capsys):
        code = main(
            [
                "estimate",
                "--dataset", "lastfm",
                "--scale", "tiny",
                "--source", "0",
                "--target", "5",
                "--method", "rhh",
                "--samples", "200",
            ]
        )
        assert code == 0
        assert "RHH" in capsys.readouterr().out

    def test_deterministic_under_seed(self, capsys):
        args = [
            "estimate", "--dataset", "lastfm", "--scale", "tiny",
            "--source", "0", "--target", "5", "--samples", "200",
            "--seed", "3",
        ]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_a_negative_seed_is_one_line_and_no_traceback(self):
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "estimate",
                "--dataset", "lastfm", "--scale", "tiny",
                "--source", "0", "--target", "5", "--seed", "-1",
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode != 0
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "repro estimate: seed must be a non-negative integer, got -1"
        ]


class TestDatasets:
    def test_table(self, capsys):
        assert main(["datasets", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "LastFM" in out
        assert "BioMine" in out

    def test_a_negative_seed_is_one_line_and_no_traceback(self):
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "datasets",
                "--scale", "tiny", "--seed", "-1",
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode != 0
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "repro datasets: seed must be a non-negative integer, got -1"
        ]


class TestTopK:
    def test_ranking(self, capsys):
        code = main(
            [
                "topk",
                "--dataset", "lastfm",
                "--scale", "tiny",
                "--source", "0",
                "-k", "3",
                "--samples", "200",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Top-3" in out
        assert "rank" in out

    def test_method_flag_is_gone(self, capsys):
        # Both of its values named the one sweep the ranking comes from.
        with pytest.raises(SystemExit) as failure:
            main(["topk", "--source", "0", "--method", "mc"])
        assert failure.value.code == 2  # argparse: unrecognized arguments
        assert "unrecognized arguments" in capsys.readouterr().err


class TestBounds:
    def test_bracket(self, capsys):
        code = main(
            [
                "bounds",
                "--dataset", "lastfm",
                "--scale", "tiny",
                "--source", "0",
                "--target", "5",
            ]
        )
        assert code == 0
        assert "<=" in capsys.readouterr().out


class TestRecommend:
    def test_memory_limited(self, capsys):
        assert main(["recommend", "--memory-limited"]) == 0
        out = capsys.readouterr().out
        assert "ProbTree" in out

    def test_large_memory_low_variance(self, capsys):
        assert main(["recommend", "--lowest-variance"]) == 0
        out = capsys.readouterr().out
        assert "RSS" in out

    def test_non_positive_max_hops_is_the_services_message(self):
        with pytest.raises(
            SystemExit,
            match="repro recommend: max_hops must be a positive integer",
        ):
            main(["recommend", "--max-hops", "0"])


class TestServe:
    def test_non_positive_engine_default_is_the_services_message(self):
        # Rejected while the service is built, before anything binds.
        with pytest.raises(SystemExit) as failure:
            main(["serve", "--dataset", "lastfm", "--scale", "tiny",
                  "--port", "0", "--workers", "0"])
        assert failure.value.code == (
            "repro serve: workers must be a positive integer, got 0"
        )


class TestStudy:
    def test_mini_study(self, capsys):
        code = main(
            [
                "study",
                "--dataset", "lastfm",
                "--scale", "tiny",
                "--pairs", "2",
                "--repeats", "2",
                "--kmax", "500",
                "--estimators", "mc", "rhh",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Accuracy" in out
        assert "Running time" in out

    STUDY = [
        "study", "--dataset", "lastfm", "--scale", "tiny",
        "--pairs", "2", "--repeats", "2", "--kmax", "250",
        "--estimators", "mc",
    ]

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--kmax", "100"], "K grid is empty"),
            (["--repeats", "0"], "repeats must be a positive integer"),
            (["--pairs", "0"], "pair_count must be a positive integer"),
            (["--pairs", "-1"], "pair_count must be a positive integer"),
        ],
        ids=["empty-grid", "no-repeats", "no-pairs", "negative-pairs"],
    )
    def test_a_study_without_work_is_a_clean_error(self, flags, message):
        # Later flags win, so each case overrides one field of STUDY.
        with pytest.raises(SystemExit) as failure:
            main(self.STUDY + flags)
        code = failure.value.code
        assert isinstance(code, str) and code.startswith("repro study: ")
        assert message in code, code

    def test_study_replays_identically(self, capsys):
        assert main(self.STUDY) == 0
        first = capsys.readouterr().out
        assert main(self.STUDY) == 0
        second = capsys.readouterr().out
        # Estimates are seeded per (pair, repeat, K); wall-clock rows
        # differ between runs, so compare the accuracy table.
        assert "Accuracy" in first
        assert first.split("Running time")[0] == (
            second.split("Running time")[0]
        )

    @pytest.mark.parametrize(
        "flags", [["--batch"], ["--workers", "2"], ["--cache-dir", "x"]]
    )
    def test_batch_study_flags_are_gone(self, flags, capsys):
        with pytest.raises(SystemExit) as failure:
            main(self.STUDY + flags)
        assert failure.value.code == 2  # argparse: unrecognized arguments
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["batch", "--queries", "QUERIES"],
        ["warm", "--queries", "QUERIES", "--cache-dir", "CACHE"],
        ["topk", "--source", "0"],
        ["bounds", "--source", "0", "--target", "5"],
        ["serve", "--port", "0"],
        ["study", "--pairs", "2", "--repeats", "2", "--kmax", "500"],
    ],
    ids=lambda command: command[0],
)
def test_every_service_command_refuses_a_negative_seed(command, tmp_path):
    queries = tmp_path / "queries.txt"
    queries.write_text("0 5 100\n")
    paths = {"QUERIES": str(queries), "CACHE": str(tmp_path / "cache")}
    argv = [paths.get(part, part) for part in command]
    with pytest.raises(SystemExit) as failure:
        main(argv + ["--dataset", "lastfm", "--scale", "tiny", "--seed", "-1"])
    assert failure.value.code == (
        f"repro {command[0]}: seed must be a non-negative integer, got -1"
    )


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["teleport"])


class TestBatch:
    def _write_queries(self, tmp_path, text):
        path = tmp_path / "queries.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_text_workload(self, capsys, tmp_path):
        path = self._write_queries(tmp_path, "0 5 200\n0 7\n# comment\n3 9 100\n")
        code = main(
            ["batch", "--queries", path, "--dataset", "lastfm",
             "--scale", "tiny", "--samples", "150"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["query_count"] == 3
        assert report["engine"]["mode"] == "shared_worlds"
        assert report["engine"]["worlds_sampled"] == 200  # max K once
        assert report["results"][1]["samples"] == 150  # default K applied
        for row in report["results"]:
            assert 0.0 <= row["estimate"] <= 1.0

    def test_json_workload(self, capsys, tmp_path):
        path = self._write_queries(
            tmp_path,
            '[[0, 5, 200], {"source": 0, "target": 7}, [3, 9]]',
        )
        code = main(
            ["batch", "--queries", path, "--dataset", "lastfm",
             "--scale", "tiny"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["query_count"] == 3
        assert report["results"][1]["samples"] == 1000  # CLI default K

    def test_sequential_flag_is_gone(self, capsys, tmp_path):
        # The per-query oracle is BatchEngine.run_sequential, in process.
        path = self._write_queries(tmp_path, "0 5 100\n")
        with pytest.raises(SystemExit) as failure:
            main(["batch", "--queries", path, "--sequential"])
        assert failure.value.code == 2  # argparse: unrecognized arguments
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_fallback_method_loops_per_query(self, capsys, tmp_path):
        path = self._write_queries(tmp_path, "0 5 100\n")
        code = main(
            ["batch", "--queries", path, "--dataset", "lastfm",
             "--scale", "tiny", "--method", "rhh"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["engine"]["mode"] == "per_query_loop"

    def test_output_file(self, capsys, tmp_path):
        path = self._write_queries(tmp_path, "0 5 100\n")
        out = tmp_path / "report.json"
        code = main(
            ["batch", "--queries", path, "--dataset", "lastfm",
             "--scale", "tiny", "--output", str(out)]
        )
        assert code == 0
        assert "wrote 1 results" in capsys.readouterr().out
        assert json.loads(out.read_text())["query_count"] == 1

    def test_malformed_line_rejected(self, tmp_path):
        path = self._write_queries(tmp_path, "0 5 100 7 9\n")
        with pytest.raises(ValueError):
            main(
                ["batch", "--queries", path, "--dataset", "lastfm",
                 "--scale", "tiny"]
            )

    def test_workers_runs_and_agrees_with_serial(
        self, capsys, tmp_path, monkeypatch
    ):
        # 64-world chunks: both budgets span several, so two workers
        # both get a range.
        monkeypatch.setattr(service_module, "DEFAULT_CHUNK_SIZE", 64)
        path = self._write_queries(tmp_path, "0 5 200\n3 9 150\n")
        args = ["batch", "--queries", path, "--dataset", "lastfm",
                "--scale", "tiny", "--seed", "3"]
        main(args + ["--workers", "1"])
        serial = json.loads(capsys.readouterr().out)
        main(args + ["--workers", "2"])
        parallel = json.loads(capsys.readouterr().out)
        assert serial["engine"]["workers"] == 1
        assert parallel["engine"]["workers"] == 2
        assert [r["estimate"] for r in serial["results"]] == [
            r["estimate"] for r in parallel["results"]
        ]

    def test_max_hops_bounds_all_queries(self, capsys, tmp_path):
        path = self._write_queries(tmp_path, "0 5 200\n3 9 150\n")
        code = main(
            ["batch", "--queries", path, "--dataset", "lastfm",
             "--scale", "tiny", "--max-hops", "3"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert [r["max_hops"] for r in report["results"]] == [3, 3]

    def test_per_query_hop_bound_beats_global_default(self, capsys, tmp_path):
        path = self._write_queries(tmp_path, "0 5 200 1\n3 9 150\n")
        code = main(
            ["batch", "--queries", path, "--dataset", "lastfm",
             "--scale", "tiny", "--max-hops", "4"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert [r["max_hops"] for r in report["results"]] == [1, 4]

    def test_json_object_carries_max_hops(self, capsys, tmp_path):
        path = self._write_queries(
            tmp_path,
            '[{"source": 0, "target": 5, "samples": 100, "max_hops": 2}]',
        )
        code = main(
            ["batch", "--queries", path, "--dataset", "lastfm",
             "--scale", "tiny"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"][0]["max_hops"] == 2


class TestBatchFastPaths:
    """CLI dispatch of the estimator batch fast paths (PR 3)."""

    def _write_queries(self, tmp_path, text):
        path = tmp_path / "queries.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _run(self, path, *extra):
        return main(
            ["batch", "--queries", path, "--dataset", "lastfm",
             "--scale", "tiny", "--seed", "3", *extra]
        )

    def test_bfs_sharing_served_by_the_engine(self, capsys, tmp_path):
        path = self._write_queries(tmp_path, "0 5 200\n3 9 150\n")
        assert self._run(path) == 0
        mc = json.loads(capsys.readouterr().out)
        assert self._run(path, "--method", "bfs_sharing") == 0
        bfs = json.loads(capsys.readouterr().out)
        assert bfs["engine"]["mode"] == "shared_worlds"
        assert bfs["engine"]["worlds_sampled"] == 200
        # Same seed, same engine world stream: bit-identical to mc.
        assert [r["estimate"] for r in bfs["results"]] == [
            r["estimate"] for r in mc["results"]
        ]

    def test_bfs_sharing_serves_hop_bounded_queries(self, capsys, tmp_path):
        path = self._write_queries(tmp_path, "0 5 200 2\n")
        assert self._run(path, "--method", "bfs_sharing") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"][0]["max_hops"] == 2

    def test_bfs_sharing_ignores_the_chunk_size(
        self, capsys, tmp_path, monkeypatch
    ):
        path = self._write_queries(tmp_path, "0 5 200\n")
        assert self._run(path, "--method", "bfs_sharing") == 0
        default = json.loads(capsys.readouterr().out)
        monkeypatch.setattr(service_module, "DEFAULT_CHUNK_SIZE", 64)
        assert self._run(path, "--method", "bfs_sharing") == 0
        chunked = json.loads(capsys.readouterr().out)
        assert [r["estimate"] for r in default["results"]] == [
            r["estimate"] for r in chunked["results"]
        ]

    def test_prob_tree_bag_grouped_mode(self, capsys, tmp_path):
        path = self._write_queries(tmp_path, "0 5 200\n0 7 200\n3 9 150\n")
        assert self._run(path, "--method", "prob_tree") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["engine"]["mode"] == "bag_grouped"
        for row in report["results"]:
            assert 0.0 <= row["estimate"] <= 1.0

    def test_cache_dir_warm_starts_within_a_process(self, capsys, tmp_path):
        path = self._write_queries(tmp_path, "0 5 200\n3 9 150\n")
        cache_dir = str(tmp_path / "cache")
        assert self._run(path, "--cache-dir", cache_dir) == 0
        cold = json.loads(capsys.readouterr().out)
        assert self._run(path, "--cache-dir", cache_dir) == 0
        warm = json.loads(capsys.readouterr().out)
        assert cold["engine"]["worlds_sampled"] == 200
        assert warm["engine"]["worlds_sampled"] == 0
        assert warm["engine"]["cache"]["disk_hits"] == 2
        assert [r["estimate"] for r in warm["results"]] == [
            r["estimate"] for r in cold["results"]
        ]

    def test_bfs_sharing_reports_cache_statistics(self, capsys, tmp_path):
        path = self._write_queries(tmp_path, "0 5 200\n3 9 150\n")
        cache_dir = str(tmp_path / "cache")
        assert self._run(
            path, "--method", "bfs_sharing", "--cache-dir", cache_dir
        ) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["engine"]["cache"]["persistent"] is True
        assert self._run(
            path, "--method", "bfs_sharing", "--cache-dir", cache_dir
        ) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["engine"]["worlds_sampled"] == 0
        assert warm["engine"]["cache"]["disk_hits"] == 2

    def test_prob_tree_accepts_cache_dir(self, capsys, tmp_path):
        path = self._write_queries(tmp_path, "0 5 200\n")
        cache_dir = str(tmp_path / "cache")
        assert self._run(
            path, "--method", "prob_tree", "--cache-dir", cache_dir
        ) == 0
        first = json.loads(capsys.readouterr().out)
        assert self._run(
            path, "--method", "prob_tree", "--cache-dir", cache_dir
        ) == 0
        second = json.loads(capsys.readouterr().out)
        # Inner engine results are cached under the lifted graph's own
        # fingerprint, so the re-run replays identical estimates.
        assert [r["estimate"] for r in first["results"]] == [
            r["estimate"] for r in second["results"]
        ]


class TestBatchValidation:
    def _write(self, tmp_path, text):
        path = tmp_path / "queries.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_short_json_entry_rejected_with_context(self, tmp_path):
        path = self._write(tmp_path, "[[5]]")
        with pytest.raises(ValueError, match="entry 0"):
            main(["batch", "--queries", path, "--dataset", "lastfm",
                  "--scale", "tiny"])

    def test_long_json_entry_rejected(self, tmp_path):
        path = self._write(tmp_path, "[[0, 5, 100, 2, 999]]")
        with pytest.raises(ValueError, match="entry 0"):
            main(["batch", "--queries", path, "--dataset", "lastfm",
                  "--scale", "tiny"])

    def test_object_missing_target_rejected(self, tmp_path):
        path = self._write(tmp_path, '[{"source": 0}]')
        with pytest.raises(ValueError, match="'source' and 'target'"):
            main(["batch", "--queries", path, "--dataset", "lastfm",
                  "--scale", "tiny"])


class TestBatchFailurePaths:
    """Malformed workload files fail *early*, with entry-level context."""

    def _write(self, tmp_path, text):
        path = tmp_path / "queries.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _run(self, path, *extra):
        return main(
            ["batch", "--queries", path, "--dataset", "lastfm",
             "--scale", "tiny", *extra]
        )

    def test_out_of_range_source_names_the_query(self, tmp_path):
        path = self._write(tmp_path, "0 5 100\n999 5 100\n")
        with pytest.raises(SystemExit, match="query 1.*source 999 out of range"):
            self._run(path)

    def test_out_of_range_target_names_the_query(self, tmp_path):
        path = self._write(tmp_path, "0 12345 100\n")
        with pytest.raises(SystemExit, match="query 0.*target 12345 out of range"):
            self._run(path)

    def test_negative_samples_rejected(self, tmp_path):
        path = self._write(tmp_path, "0 5 -100\n")
        with pytest.raises(SystemExit, match="samples must be a positive integer"):
            self._run(path)

    def test_zero_samples_rejected(self, tmp_path):
        path = self._write(tmp_path, "0 5 0\n")
        with pytest.raises(SystemExit, match="samples must be a positive integer"):
            self._run(path)

    def test_nonpositive_hop_bound_in_file_rejected(self, tmp_path):
        path = self._write(tmp_path, "0 5 100 0\n")
        with pytest.raises(SystemExit, match="max_hops must be a positive integer"):
            self._run(path)

    def test_nonpositive_max_hops_flag_rejected(self, tmp_path):
        path = self._write(tmp_path, "0 5 100\n")
        with pytest.raises(SystemExit) as failure:
            self._run(path, "--max-hops", "0")
        assert_rejected(failure, "max_hops must be a positive integer")

    def test_nonpositive_workers_flag_rejected(self, tmp_path):
        path = self._write(tmp_path, "0 5 100\n")
        with pytest.raises(SystemExit) as failure:
            self._run(path, "--workers", "0")
        assert_rejected(failure, "workers must be a positive integer")

    def test_validation_precedes_sampling_for_fallback_methods(self, tmp_path):
        # The per-query loop would only hit the bad entry after answering
        # the good ones; early validation fails before any sampling.
        path = self._write(tmp_path, "0 5 100\n0 99999 100\n")
        with pytest.raises(SystemExit, match="query 1"):
            self._run(path, "--method", "rhh")

    def test_cache_dir_requires_a_fast_path(self, tmp_path):
        path = self._write(tmp_path, "0 5 100\n")
        with pytest.raises(SystemExit, match="--cache-dir rides on a batch fast path"):
            self._run(path, "--method", "rhh", "--cache-dir", str(tmp_path))

    def test_hop_bounded_queries_require_the_engine(self, tmp_path):
        path = self._write(tmp_path, "0 5 100 2\n")
        with pytest.raises(SystemExit, match="shared-world engine"):
            self._run(path, "--method", "rhh")

    def test_hop_bounded_queries_reject_prob_tree(self, tmp_path):
        # ProbTree's lifted graph does not preserve hop counts; the CLI
        # rejects the combination before any index is built.
        path = self._write(tmp_path, "0 5 100 2\n")
        with pytest.raises(SystemExit, match="shared-world engine"):
            self._run(path, "--method", "prob_tree")


class TestBatchJsonForms:
    def _write(self, tmp_path, text):
        path = tmp_path / "queries.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_unwrapped_single_object_accepted(self, capsys, tmp_path):
        path = self._write(tmp_path, '{"source": 0, "target": 5}')
        code = main(["batch", "--queries", path, "--dataset", "lastfm",
                     "--scale", "tiny", "--samples", "120"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["query_count"] == 1
        assert report["results"][0]["samples"] == 120

    def test_scalar_entry_rejected_with_context(self, tmp_path):
        path = self._write(tmp_path, "[5, 7]")
        with pytest.raises(ValueError, match="entry 0"):
            main(["batch", "--queries", path, "--dataset", "lastfm",
                  "--scale", "tiny"])

    def test_null_hop_bound_in_list_entry_means_unbounded(
        self, capsys, tmp_path
    ):
        path = self._write(tmp_path, "[[0, 5, 100, null]]")
        code = main(["batch", "--queries", path, "--dataset", "lastfm",
                     "--scale", "tiny"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"][0]["max_hops"] is None

    def test_null_in_required_position_rejected_with_context(self, tmp_path):
        path = self._write(tmp_path, "[[null, 5, 100]]")
        with pytest.raises(ValueError, match="entry 0.*non-numeric"):
            main(["batch", "--queries", path, "--dataset", "lastfm",
                  "--scale", "tiny"])


class TestWarm:
    """`repro warm`: speculative evaluation into the persistent sidecar."""

    def _write_queries(self, tmp_path, text):
        path = tmp_path / "queries.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _warm(self, path, cache_dir, *extra):
        return main(
            ["warm", "--queries", path, "--dataset", "lastfm",
             "--scale", "tiny", "--seed", "3", "--cache-dir", cache_dir,
             *extra]
        )

    def test_first_pass_writes_second_is_already_warm(self, capsys, tmp_path):
        path = self._write_queries(tmp_path, "0 5 200\n3 9 150\n0 5 200\n")
        cache_dir = str(tmp_path / "cache")
        assert self._warm(path, cache_dir) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["query_count"] == 3
        assert cold["unique_queries"] == 2  # the duplicate collapses
        assert cold["newly_written"] == 2
        assert cold["already_warm"] == 0
        assert cold["persistent"] is True
        assert self._warm(path, cache_dir) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["newly_written"] == 0
        assert warm["already_warm"] == 2
        assert warm["worlds_sampled"] == 0

    def test_warmed_sidecar_serves_repro_batch(self, capsys, tmp_path):
        path = self._write_queries(tmp_path, "0 5 200\n3 9 150\n")
        cache_dir = str(tmp_path / "cache")
        assert self._warm(path, cache_dir) == 0
        capsys.readouterr()
        assert main(
            ["batch", "--queries", path, "--dataset", "lastfm",
             "--scale", "tiny", "--seed", "3", "--cache-dir", cache_dir]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["engine"]["worlds_sampled"] == 0
        assert [row["cached"] for row in report["results"]] == [True, True]

    def test_warm_is_method_agnostic(self, capsys, tmp_path):
        # The cache key carries no estimator: a warm pass serves
        # bfs_sharing batches just as well as mc ones.
        path = self._write_queries(tmp_path, "0 5 200\n")
        cache_dir = str(tmp_path / "cache")
        assert self._warm(path, cache_dir) == 0
        capsys.readouterr()
        assert main(
            ["batch", "--queries", path, "--dataset", "lastfm",
             "--scale", "tiny", "--seed", "3", "--cache-dir", cache_dir,
             "--method", "bfs_sharing"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["engine"]["worlds_sampled"] == 0

    def test_warm_accepts_hop_bounded_queries(self, capsys, tmp_path):
        path = self._write_queries(tmp_path, "0 5 100 2\n0 5 100\n")
        cache_dir = str(tmp_path / "cache")
        assert self._warm(path, cache_dir) == 0
        report = json.loads(capsys.readouterr().out)
        # A d-hop query and its unbounded twin are distinct cache keys.
        assert report["unique_queries"] == 2

    def test_warm_requires_cache_dir(self, tmp_path):
        path = self._write_queries(tmp_path, "0 5 100\n")
        with pytest.raises(SystemExit):
            main(
                ["warm", "--queries", path, "--dataset", "lastfm",
                 "--scale", "tiny"]
            )

    def test_warm_validates_queries_with_context(self, tmp_path):
        path = self._write_queries(tmp_path, "0 5 100\n0 99999 100\n")
        with pytest.raises(SystemExit, match="query 1"):
            self._warm(path, str(tmp_path / "cache"))

    def test_warm_output_file(self, capsys, tmp_path):
        path = self._write_queries(tmp_path, "0 5 100\n")
        out = tmp_path / "warm.json"
        assert self._warm(
            path, str(tmp_path / "cache"), "--output", str(out)
        ) == 0
        assert "warmed 1 of 1" in capsys.readouterr().out
        assert json.loads(out.read_text())["newly_written"] == 1
