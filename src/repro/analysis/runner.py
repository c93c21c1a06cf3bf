"""Drives the rule families over files and over the repository.

Per-file rules (determinism, locks) run on any ``.py`` file handed to
them; the wire-contract rules are repo-level: they read the one wire
table in ``api/types.py`` and check the files derived from it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, List, Optional

from . import determinism, locks, wire
from .base import Finding, SourceFile

#: Directories never scanned, wherever they appear.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist"}

#: The wire table and what is checked against it, relative to the repo root.
WIRE_SERVICE = Path("src/repro/api/service.py")
WIRE_TYPES = Path("src/repro/api/types.py")
WIRE_SERVER = Path("src/repro/serve/server.py")
WIRE_DOCS = Path("docs/api.md")


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


def wire_findings(root: Path) -> List[Finding]:
    """Run the wire-contract checks against the repo's canonical files."""

    findings: List[Finding] = []
    types_path = root / WIRE_TYPES
    service_path = root / WIRE_SERVICE
    server_path = root / WIRE_SERVER
    docs_path = root / WIRE_DOCS
    if not types_path.is_file():
        return findings
    findings.extend(wire.check_request_types(types_path))
    if service_path.is_file() and server_path.is_file():
        findings.extend(
            wire.check_endpoint_routes(types_path, service_path, server_path)
        )
    if docs_path.is_file():
        findings.extend(wire.check_docs_table(types_path, docs_path))
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
    """Full analysis: per-file rules over ``src/repro`` plus wire checks.

    ``files`` restricts the per-file pass (the ``--changed`` mode); the
    wire checks always run against the canonical files because a
    change to any one of them can break the agreement.
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
    findings = analyze_files(scan)
    findings.extend(wire_findings(root))
    return sorted(findings)


def _is_relative_to(path: Path, root: Path) -> bool:
    try:
        path.relative_to(root)
    except ValueError:
        return False
    return True
