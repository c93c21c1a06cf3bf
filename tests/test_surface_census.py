"""The surface census: every public name has a caller outside ``tests/``.

An AST walk of ``src/repro`` collects the public surface — module-level
functions, classes and constants, plus the public methods of public
classes.  A name counts as used when code in ``src/repro``,
``benchmarks/`` (the ledger included) or ``examples/`` refers to it: an
``ast.Name`` or ``ast.Attribute`` it reads, or a string constant equal to
the name (the server dispatches endpoint methods by name).  Definitions,
docstrings, comments and ``__all__`` entries do not count.

A public name no such code reaches is either deleted or listed in
:data:`KEPT` with the reason it stays.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.api import types
from repro.core.estimators import base
from repro.engine import BatchQuery, plan
from repro.util import bitset

SOURCE_ROOT = Path(repro.__file__).resolve().parent
REPO_ROOT = SOURCE_ROOT.parent.parent
CALLER_ROOTS = (SOURCE_ROOT, REPO_ROOT / "benchmarks", REPO_ROOT / "examples")

#: Public names that only tests reach, each with why it stays.
KEPT = {
    "repro.engine.batch.BatchEngine.run_sequential": (
        "per-world oracle the engine's bit-identity tests compare against"
    ),
    "repro.util.stats.binomial_variance": (
        "Eq. 4 variance the MC unbiasedness tests measure against"
    ),
    "repro.core.possible_world.world_probability": (
        "Eq. 1 world weight the oracle-conformance tests sum over worlds"
    ),
    "repro.core.mutation.set_edge_probability": (
        "in-place edit hook the fingerprint-memo regression test uses"
    ),
    "repro.engine.pool.WorkerPool.worker_pids": (
        "lets the pool tests check workers are reused and reaped"
    ),
    "repro.core.graph.UncertainGraph.in_edges": (
        "reverse CSR view the target-rooted sweep builds on"
    ),
    "repro.core.graph.UncertainGraph.in_degree": (
        "reverse CSR view the target-rooted sweep builds on"
    ),
    "repro.core.estimators.bfs_sharing.BFSSharingEstimator.attach_index": (
        "completes the Fig. 13c index save/load API"
    ),
    "repro.core.estimators.prob_tree.ProbTreeEstimator.attach_index": (
        "completes the Fig. 13c index save/load API"
    ),
}


def _module_name(path):
    return ".".join(path.relative_to(SOURCE_ROOT.parent).with_suffix("").parts)


def _defined_names(node):
    """Names a module-level statement defines (all of them, private too)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [
            name.id
            for target in node.targets
            for name in ast.walk(target)
            if isinstance(name, ast.Name)
        ]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def public_surface():
    """Qualified names of the public definitions under ``src/repro``."""
    found = []
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        module = _module_name(path)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for name in _defined_names(node):
                if not name.startswith("_"):
                    found.append(f"{module}.{name}")
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                found.extend(
                    f"{module}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")
                )
    return found


def _skipped_strings(tree):
    """Docstring and ``__all__`` constants: never references."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                skipped.add(id(first.value))
        elif isinstance(node, ast.Assign) and "__all__" in _defined_names(node):
            skipped.update(id(item) for item in ast.walk(node.value))
    return skipped


def _referenced_name(node, skipped):
    """The name ``node`` reads, or ``None``."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    if isinstance(node, ast.Constant) and id(node) not in skipped:
        return node.value if isinstance(node.value, str) else None
    return None


def referenced_names():
    """Every name the non-test code reads, by bare identifier."""
    names = set()
    for root in CALLER_ROOTS:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            skipped = _skipped_strings(tree)
            names.update(_referenced_name(node, skipped) for node in ast.walk(tree))
    return names


@pytest.fixture(scope="module")
def unreached():
    names = referenced_names()
    return {
        qualified
        for qualified in public_surface()
        if qualified.rsplit(".", 1)[1] not in names
    }


def test_the_walk_sees_the_surface():
    surface = set(public_surface())
    assert "repro.api.service.ReliabilityService.estimate_batch" in surface
    assert "repro.engine.batch.BatchEngine.run" in surface
    assert "repro.core.estimators.base.BatchQuery" in surface
    assert set(KEPT) <= surface


def test_every_public_name_has_a_caller_or_a_reason(unreached):
    assert sorted(unreached - set(KEPT)) == []


def test_every_kept_name_is_still_unreached(unreached):
    # A kept name that gained a caller no longer needs its entry.
    assert sorted(set(KEPT) - unreached) == []


def test_every_reason_is_one_line():
    for reason in KEPT.values():
        assert reason and "\n" not in reason


def test_the_query_type_is_stated_once():
    assert BatchQuery is base.BatchQuery
    assert plan.as_query is base.as_query
    assert not hasattr(base, "WorkloadEntry")
    assert not hasattr(types, "ResolvedQuery")
    assert not hasattr(bitset, "full_row")
