"""The analyzer as a gate: tree-clean, CLI contract, suppressions.

``test_full_tree_is_clean`` is the same check CI runs (`repro lint`
exits 0): any regression against the determinism or lock-discipline
rules fails the suite locally before it fails the CI job.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze_repo, find_repo_root
from repro.analysis.cli import main, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


def requires_src_tree():
    if not (REPO_ROOT / "src" / "repro").is_dir():
        pytest.skip("analyzer gate needs the src/ tree (repo checkout)")


class TestTreeClean:
    def test_full_tree_is_clean(self):
        requires_src_tree()
        findings = analyze_repo(REPO_ROOT)
        rendered = "\n".join(finding.render() for finding in findings)
        assert findings == [], f"repro lint must stay clean:\n{rendered}"

    def test_find_repo_root_locates_checkout(self):
        requires_src_tree()
        assert find_repo_root(REPO_ROOT / "src" / "repro") == REPO_ROOT

    def test_module_entry_point_exits_zero(self):
        requires_src_tree()
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean" in result.stdout


class TestCliContract:
    def test_exit_one_and_text_rendering_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n", encoding="utf-8")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "D101" in out
        assert "bad.py:1:" in out
        assert "1 finding" in out

    def test_exit_zero_and_json_on_clean_file(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("VALUE = 1\n", encoding="utf-8")
        assert main([str(good), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_json_findings_are_structured(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n", encoding="utf-8")
        assert main([str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule"] == "D101"
        assert payload[0]["line"] == 1

    def test_paths_and_changed_are_mutually_exclusive(self, tmp_path):
        assert run_lint(paths=[tmp_path], changed=True) == 2

    def test_syntax_errors_are_findings_not_crashes(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n", encoding="utf-8")
        assert main([str(broken)]) == 1
        assert "E000" in capsys.readouterr().out

    def test_directory_scan_skips_pycache(self, tmp_path, capsys):
        package = tmp_path / "pkg"
        (package / "__pycache__").mkdir(parents=True)
        (package / "__pycache__" / "stale.py").write_text(
            "import random\n", encoding="utf-8"
        )
        (package / "ok.py").write_text("VALUE = 1\n", encoding="utf-8")
        assert main([str(package)]) == 0
        capsys.readouterr()


class TestSuppressions:
    def test_previous_line_comment_suppresses_next_line(self, tmp_path, capsys):
        fixture = tmp_path / "fixture.py"
        fixture.write_text(
            textwrap.dedent(
                """
                def total(extra):
                    out = 0.0
                    # lint: ok[D103] fixture: order-insensitive sum
                    for value in {1.0, 2.0, extra}:
                        out += value
                    return out
                """
            ),
            encoding="utf-8",
        )
        assert main([str(fixture)]) == 0
        capsys.readouterr()

    def test_suppression_is_rule_specific(self, tmp_path, capsys):
        fixture = tmp_path / "fixture.py"
        fixture.write_text(
            "import random  # lint: ok[D102] wrong rule id\n", encoding="utf-8"
        )
        assert main([str(fixture)]) == 1
        assert "D101" in capsys.readouterr().out

    def test_suppression_covers_multiple_rules(self, tmp_path, capsys):
        fixture = tmp_path / "fixture.py"
        fixture.write_text(
            "import random  # lint: ok[D101, D103] fixture\n", encoding="utf-8"
        )
        assert main([str(fixture)]) == 0
        capsys.readouterr()
