"""Smoke test for the ``python -m repro`` entry point."""

import importlib.metadata
import re
import subprocess
import sys
from pathlib import Path

import repro


class TestMainModule:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "recommend", "--memory-limited"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "ProbTree" in result.stdout

    def test_help_exits_cleanly(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "estimate" in result.stdout
        assert "topk" in result.stdout


def test_the_version_is_stated_once():
    """`repro.__version__` is the packaged version: pyproject only points."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    text = pyproject.read_text(encoding="utf-8")
    project = text.split("[project]\n")[1].split("\n[")[0]
    assert 'dynamic = ["version"]' in project
    assert not re.search(r"^version\s*=", project, flags=re.MULTILINE)
    assert 'version = { attr = "repro.__version__" }' in text
    try:
        packaged = importlib.metadata.version("repro-st-reliability")
    except importlib.metadata.PackageNotFoundError:
        return  # running from a source tree (PYTHONPATH=src): nothing packaged
    assert packaged == repro.__version__
