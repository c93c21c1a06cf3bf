"""Determinism rules: D101 global-state RNG, D102 wall-clock taint,
D103 unordered iteration.

The reproduction's contract is that every estimate is a pure function
of ``(graph, method, seed, query)`` and that serial, parallel,
vectorized, and distributed evaluation are bit-identical.  Three code
shapes break that silently:

* **D101** — drawing from interpreter-global RNG state
  (``random.random()``, ``np.random.shuffle(...)``): the result then
  depends on everything else that touched the stream.  All randomness
  must come from a ``numpy`` ``Generator`` derived in ``util/rng.py``.
* **D102** — a wall-clock read (``time.time``, ``datetime.now``)
  flowing into a cache key, fingerprint, seed, or estimator result.
  Monotonic/perf counters are fine: they only feed telemetry.
* **D103** — iterating a ``set``, or lock-free iterating a
  ``guarded-by``-annotated shared collection, without ``sorted(...)``:
  the fold order (and any float accumulation) then depends on hash
  seeds or concurrent insertion order.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from .base import ClassInfo, Finding, SourceFile, dotted_name, held_locks

D101 = "D101"
D102 = "D102"
D103 = "D103"

#: ``numpy.random`` attributes that are constructors, not global-state
#: draws.  Capitalised names (Generator, SeedSequence, PCG64, ...) are
#: always allowed; these are the lowercase exceptions.
_NP_RANDOM_ALLOWED = frozenset({"default_rng"})

_RNG_EXEMPT_SUFFIXES = ("util/rng.py", "util\\rng.py")

_WALL_CLOCK_EXACT = frozenset({"time.time", "time.time_ns"})
_WALL_CLOCK_TAILS = frozenset({"now", "utcnow", "today"})
_WALL_CLOCK_OWNERS = frozenset({"datetime", "date", "dt"})

#: A call whose name contains one of these receives deterministic
#: identity material; feeding it wall-clock data poisons results.
_SINK_FRAGMENTS = ("key", "fingerprint", "substream", "seed", "hash")
_SINK_KWARGS = frozenset({"seed", "rng"})
_RESULT_FUNC_PREFIXES = ("estimate", "evaluate", "sample", "world")

_SORT_WRAPPERS = frozenset({"list", "tuple", "reversed", "enumerate"})
_DICT_VIEWS = frozenset({"items", "keys", "values"})


def check(source: SourceFile) -> List[Finding]:
    findings: List[Finding] = []
    findings.extend(_check_global_rng(source))
    findings.extend(_check_wall_clock(source))
    findings.extend(_check_unordered_iteration(source))
    return sorted(findings)


# ---------------------------------------------------------------------------
# D101 — global-state RNG


def _check_global_rng(source: SourceFile) -> List[Finding]:
    if source.path.replace("\\", "/").endswith("util/rng.py"):
        return []
    findings: List[Finding] = []
    numpy_aliases, numpy_random_aliases = _numpy_aliases(source.tree)
    for node in ast.walk(source.tree):
        finding = _import_violation(source, node)
        if finding is not None:
            findings.append(finding)
            continue
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        offender = _np_random_attr(name, numpy_aliases, numpy_random_aliases)
        if offender and offender[0].islower() and offender not in _NP_RANDOM_ALLOWED:
            finding = source.finding(
                node,
                D101,
                f"global-state RNG call `{name}`; derive a Generator via "
                "`repro.util.rng.stable_substream` instead",
            )
            if finding is not None:
                findings.append(finding)
    return findings


def _numpy_aliases(tree: ast.Module) -> Tuple[Set[str], Set[str]]:
    """Names bound to the ``numpy`` module and to ``numpy.random``."""

    numpy_names: Set[str] = set()
    random_names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
                elif alias.name == "numpy.random":
                    target = alias.asname
                    if target is None:
                        numpy_names.add("numpy")
                    else:
                        random_names.add(target)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    random_names.add(alias.asname or "random")
    return numpy_names, random_names


def _np_random_attr(
    name: str, numpy_aliases: Set[str], numpy_random_aliases: Set[str]
) -> Optional[str]:
    parts = name.split(".")
    if len(parts) == 3 and parts[0] in numpy_aliases and parts[1] == "random":
        return parts[2]
    if len(parts) == 2 and parts[0] in numpy_random_aliases:
        return parts[1]
    return None


def _import_violation(source: SourceFile, node: ast.AST) -> Optional[Finding]:
    """The stdlib ``random`` module is banned outright in scoped code."""

    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                return source.finding(
                    node,
                    D101,
                    "stdlib `random` is interpreter-global state; use "
                    "`repro.util.rng` generators instead",
                )
    elif isinstance(node, ast.ImportFrom) and node.module == "random":
        return source.finding(
            node,
            D101,
            "stdlib `random` is interpreter-global state; use "
            "`repro.util.rng` generators instead",
        )
    elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
        bad = [
            alias.name
            for alias in node.names
            if alias.name[0].islower() and alias.name not in _NP_RANDOM_ALLOWED
        ]
        if bad:
            return source.finding(
                node,
                D101,
                f"global-state RNG import from numpy.random: {', '.join(bad)}",
            )
    return None


# ---------------------------------------------------------------------------
# D102 — wall-clock reads flowing into results or identity material


def _check_wall_clock(source: SourceFile) -> List[Finding]:
    findings: List[Finding] = []
    for function in _iter_functions(source.tree):
        findings.extend(_check_function_clock(source, function))
    return findings


def _is_wall_clock_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    if name is None:
        return False
    if name in _WALL_CLOCK_EXACT or name.endswith(".time.time"):
        return True
    parts = name.split(".")
    return (
        len(parts) >= 2
        and parts[-1] in _WALL_CLOCK_TAILS
        and parts[-2] in _WALL_CLOCK_OWNERS
    )


def _contains_wall_clock(node: ast.AST, tainted: Set[str]) -> bool:
    for child in ast.walk(node):
        if _is_wall_clock_call(child):
            return True
        if isinstance(child, ast.Name) and child.id in tainted:
            return True
    return False


def _check_function_clock(
    source: SourceFile, function: ast.FunctionDef
) -> Iterator[Finding]:
    tainted: Set[str] = set()
    returns_results = function.name.startswith(_RESULT_FUNC_PREFIXES)
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and _contains_wall_clock(node.value, tainted):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    tainted.add(target.id)
        elif isinstance(node, ast.Call):
            finding = _clock_sink(source, node, tainted)
            if finding is not None:
                yield finding
        elif isinstance(node, ast.Return) and returns_results:
            if node.value is not None and _contains_wall_clock(node.value, tainted):
                finding = source.finding(
                    node,
                    D102,
                    f"wall-clock value returned from result-bearing function "
                    f"`{function.name}`; use the request seed or a monotonic "
                    "counter for telemetry",
                )
                if finding is not None:
                    yield finding


def _clock_sink(
    source: SourceFile, call: ast.Call, tainted: Set[str]
) -> Optional[Finding]:
    name = dotted_name(call.func) or ""
    tail = name.rsplit(".", 1)[-1].lower()
    is_sink = any(fragment in tail for fragment in _SINK_FRAGMENTS)
    poisoned = [arg for arg in call.args if _contains_wall_clock(arg, tainted)]
    poisoned_kwargs = [
        keyword
        for keyword in call.keywords
        if keyword.value is not None and _contains_wall_clock(keyword.value, tainted)
    ]
    if is_sink and (poisoned or poisoned_kwargs):
        return source.finding(
            call,
            D102,
            f"wall-clock value flows into `{name}`; cache keys, fingerprints "
            "and seeds must be pure in (graph, method, seed, query)",
        )
    for keyword in poisoned_kwargs:
        if keyword.arg in _SINK_KWARGS:
            return source.finding(
                call,
                D102,
                f"wall-clock value passed as `{keyword.arg}=` to `{name}`; "
                "seeds must come from the request, not the clock",
            )
    return None


# ---------------------------------------------------------------------------
# D103 — unordered iteration feeding results


def _check_unordered_iteration(source: SourceFile) -> List[Finding]:
    findings: List[Finding] = []
    module_guards = source.module_guards()
    # Set iteration (hash order) is wrong regardless of lock context:
    # check every function, methods included.
    for info in source.classes():
        for method in info.methods():
            findings.extend(_set_iteration_findings(source, method, info))
    for function in _iter_functions(source.tree, top_level_only=True):
        findings.extend(_set_iteration_findings(source, function, None))
    # Guarded collections are only hazardous when read lock-free: under
    # the guard, iteration sees one consistent, reproducible snapshot.
    for info in source.classes():
        for method in info.methods():
            if info.method_exempt(source, method):
                continue
            initial = info.method_held_locks(source, method)
            for statement, held, _stack in held_locks(method, initial):
                for iterator in _statement_iteration_sites(statement):
                    guarded = _guarded_collection(iterator, info, module_guards)
                    if guarded is None:
                        continue
                    attr, lock = guarded
                    if lock in held:
                        continue
                    finding = source.finding(
                        iterator,
                        D103,
                        f"lock-free iteration over `{attr}` (guarded-by {lock}) "
                        "without `sorted(...)`; concurrent insertion order would "
                        "leak into the fold order",
                    )
                    if finding is not None:
                        findings.append(finding)
    return findings


def _set_iteration_findings(
    source: SourceFile, function: ast.FunctionDef, info: Optional[ClassInfo]
) -> Iterator[Finding]:
    local_sets = _local_set_names(function)
    for iterator in _all_iteration_sites(function):
        finding = _set_iteration_finding(source, iterator, info, local_sets)
        if finding is not None:
            yield finding


def _all_iteration_sites(node: ast.AST) -> Iterator[ast.expr]:
    """Every expression iterated by loops/comprehensions under ``node``."""

    for child in ast.walk(node):
        if isinstance(child, ast.For):
            yield child.iter
        elif isinstance(child, _COMPREHENSIONS):
            for generator in child.generators:
                yield generator.iter


def _statement_iteration_sites(statement: ast.stmt) -> Iterator[ast.expr]:
    """Iteration sites in the statement's own header, not its blocks.

    :func:`held_locks` yields nested statements separately (with their
    own lock context), so this deliberately stays shallow.
    """

    roots: List[ast.AST] = []
    if isinstance(statement, ast.For):
        yield statement.iter
        roots.append(statement.iter)
    else:
        for name in ("value", "test", "msg", "exc"):
            child = getattr(statement, name, None)
            if isinstance(child, ast.AST):
                roots.append(child)
        if isinstance(statement, ast.Assign):
            roots.extend(statement.targets)
        elif isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
            roots.append(statement.target)
    for root in roots:
        for child in ast.walk(root):
            if isinstance(child, _COMPREHENSIONS):
                for generator in child.generators:
                    yield generator.iter


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _strip_wrappers(expr: ast.expr) -> ast.expr:
    while isinstance(expr, ast.Call):
        name = dotted_name(expr.func)
        if name in _SORT_WRAPPERS and expr.args:
            expr = expr.args[0]
        else:
            break
    return expr


def _is_sorted_call(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Call)
        and dotted_name(expr.func) == "sorted"
    )


def _set_iteration_finding(
    source: SourceFile,
    iterator: ast.expr,
    info: Optional[ClassInfo],
    local_sets: Set[str],
) -> Optional[Finding]:
    expr = _strip_wrappers(iterator)
    if _is_sorted_call(expr):
        return None
    described = _set_expression(expr, info, local_sets)
    if described is None:
        return None
    return source.finding(
        iterator,
        D103,
        f"iteration over unordered set {described} without `sorted(...)`; "
        "set order depends on hash seeding",
    )


def _set_expression(
    expr: ast.expr, info: Optional[ClassInfo], local_sets: Set[str]
) -> Optional[str]:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "literal"
    if isinstance(expr, ast.Call):
        name = dotted_name(expr.func)
        if name in {"set", "frozenset"}:
            return f"`{name}(...)`"
    if isinstance(expr, ast.Name) and expr.id in local_sets:
        return f"`{expr.id}`"
    if (
        info is not None
        and isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and expr.attr in info.set_attrs
    ):
        return f"`self.{expr.attr}`"
    return None


def _local_set_names(scope: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            value = node.value
            is_set = isinstance(value, (ast.Set, ast.SetComp)) or (
                isinstance(value, ast.Call)
                and dotted_name(value.func) in {"set", "frozenset"}
            )
            if is_set:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return names


def _guarded_collection(
    iterator: ast.expr, info: ClassInfo, module_guards: Dict[str, str]
) -> Optional[Tuple[str, str]]:
    """``(attr, lock)`` when iterating a guarded collection or its view."""

    expr = _strip_wrappers(iterator)
    if _is_sorted_call(expr):
        return None
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in _DICT_VIEWS
    ):
        expr = expr.func.value
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and expr.attr in info.guarded
    ):
        return f"self.{expr.attr}", info.guarded[expr.attr]
    if isinstance(expr, ast.Name) and expr.id in module_guards:
        return expr.id, module_guards[expr.id]
    return None


def _iter_functions(
    tree: ast.Module, top_level_only: bool = False
) -> Iterator[Union[ast.FunctionDef, ast.AsyncFunctionDef]]:
    if top_level_only:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node
        return
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
