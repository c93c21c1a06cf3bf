"""Every ``examples/*.py`` script runs to completion.

The examples are executable documentation of the public API; the CI
``examples`` job smoke-runs them, but only after a push.  Running each
``main()`` here puts the same check in tier 1, so an API move that
breaks an example fails the suite that moved it.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_are_discovered():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_main_runs(script, capsys):
    namespace = runpy.run_path(str(script), run_name="example")
    namespace["main"]()
    assert capsys.readouterr().out  # every example reports something
