"""Command-line front end for the invariant analyzer.

Reached two ways: ``repro lint`` (a thin adapter in ``repro.cli``) and
``python -m repro.analysis``.  Exit codes: 0 clean, 1 findings, 2 the
analyzer could not run (no repo root, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .base import Finding
from .runner import analyze_files, analyze_repo, find_repo_root


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to analyze (default: the whole tree)",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="analyze only files changed vs HEAD (staged, unstaged, untracked)",
    )
    parser.add_argument(
        "--format",
        dest="output_format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )


def run_lint(
    paths: Optional[Sequence[Path]] = None,
    changed: bool = False,
    output_format: str = "text",
    stream=None,
) -> int:
    out = stream if stream is not None else sys.stdout
    if paths and changed:
        print("repro lint: pass either paths or --changed, not both", file=sys.stderr)
        return 2
    if paths:
        findings = analyze_files(paths)
    else:
        root = find_repo_root()
        if root is None:
            print(
                "repro lint: could not locate a repository root "
                "(no src/repro ancestor)",
                file=sys.stderr,
            )
            return 2
        files = _changed_files(root) if changed else None
        if changed and not files:
            _emit(out, [], output_format, note="no changed python files")
            return 0
        findings = analyze_repo(root, files=files)
    _emit(out, findings, output_format)
    return 1 if findings else 0


def _emit(
    stream, findings: List[Finding], output_format: str, note: Optional[str] = None
) -> None:
    if output_format == "json":
        payload = [
            {
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "rule": finding.rule,
                "message": finding.message,
            }
            for finding in findings
        ]
        print(json.dumps(payload, indent=2), file=stream)
        return
    for finding in findings:
        print(finding.render(), file=stream)
    if findings:
        plural = "s" if len(findings) != 1 else ""
        print(f"repro lint: {len(findings)} finding{plural}", file=stream)
    else:
        message = f"repro lint: clean ({note})" if note else "repro lint: clean"
        print(message, file=stream)


def _changed_files(root: Path) -> List[Path]:
    """Python files changed vs HEAD: staged, unstaged, and untracked."""

    commands = (
        ["git", "diff", "--name-only", "--diff-filter=ACMR", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    )
    names: List[str] = []
    for command in commands:
        try:
            result = subprocess.run(
                command,
                cwd=root,
                capture_output=True,
                text=True,
                check=True,
                timeout=30,
            )
        except (OSError, subprocess.SubprocessError):
            continue
        names.extend(line.strip() for line in result.stdout.splitlines())
    unique = {
        root / name
        for name in names
        if name.endswith(".py") and (root / name).is_file()
    }
    return sorted(unique)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "static invariant analyzer: determinism (D1xx) and lock "
            "discipline (L2xx)"
        ),
    )
    add_arguments(parser)
    args = parser.parse_args(argv)
    return run_lint(
        paths=args.paths,
        changed=args.changed,
        output_format=args.output_format,
    )
