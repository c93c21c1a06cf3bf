"""Drives the rule families over files and over the repository.

Every rule (determinism, locks) is per-file: it runs on any ``.py`` file
handed to it, and a repository run hands it the ``src/repro`` tree.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, List, Optional

from . import determinism, locks
from .base import Finding, SourceFile

#: Directories never scanned, wherever they appear.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist"}


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            for child in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(child.parts):
                    yield child
        elif path.suffix == ".py":
            yield path


def analyze_file(path: Path, text: Optional[str] = None) -> List[Finding]:
    """Run the per-file rule families on one module."""

    try:
        source = SourceFile.parse(path, text=text)
    except SyntaxError as error:
        return [
            Finding(
                path=str(path),
                line=error.lineno or 1,
                col=error.offset or 0,
                rule="E000",
                message=f"syntax error: {error.msg}",
            )
        ]
    findings = determinism.check(source)
    findings.extend(locks.check(source))
    return sorted(findings)


def analyze_files(paths: Iterable[Path]) -> List[Finding]:
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(analyze_file(path))
    return sorted(findings)


def find_repo_root(start: Optional[Path] = None) -> Optional[Path]:
    """Nearest ancestor holding ``src/repro`` (falls back to the package)."""

    candidates = [start or Path.cwd()]
    package_root = Path(__file__).resolve().parents[3]
    candidates.append(package_root)
    for candidate in candidates:
        current = candidate.resolve()
        while True:
            if (current / "src" / "repro").is_dir():
                return current
            if current.parent == current:
                break
            current = current.parent
    return None


def analyze_repo(
    root: Path, files: Optional[Iterable[Path]] = None
) -> List[Finding]:
    """Full analysis: the per-file rules over ``src/repro``.

    ``files`` restricts the pass to those of them under ``src/repro``
    (the ``--changed`` mode).
    """

    if files is None:
        scan: List[Path] = [root / "src" / "repro"]
    else:
        src_root = (root / "src" / "repro").resolve()
        scan = [
            path
            for path in files
            if path.suffix == ".py" and _is_relative_to(path.resolve(), src_root)
        ]
    return analyze_files(scan)


def _is_relative_to(path: Path, root: Path) -> bool:
    try:
        path.relative_to(root)
    except ValueError:
        return False
    return True
