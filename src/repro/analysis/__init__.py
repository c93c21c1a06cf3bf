"""``repro.analysis`` — the AST-based invariant analyzer behind
``repro lint``.

Two rule families keep the reproduction's contracts honest at review
time instead of at test time:

* determinism (``D101``-``D103``): no global-state RNG, no wall-clock
  values in results or cache keys, no unordered iteration feeding
  result-bearing folds;
* lock discipline (``L201``-``L203``): ``# guarded-by:`` annotated
  attributes are only written under their lock, acquisitions respect
  the declared ``# lock-order:``, and locked writes are annotated.

See ``docs/analysis.md`` for the catalog, the annotation grammar, and
the suppression syntax (``# lint: ok[RULE] reason``).
"""

from .base import Finding
from .runner import (
    analyze_file,
    analyze_files,
    analyze_repo,
    find_repo_root,
)

__all__ = [
    "Finding",
    "analyze_file",
    "analyze_files",
    "analyze_repo",
    "find_repo_root",
]
