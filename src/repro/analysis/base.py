"""Shared infrastructure for the ``repro lint`` invariant analyzer.

The analyzer is a handful of AST passes over the source tree, each
enforcing one invariant the test suite can only probe dynamically:
determinism of results and lock discipline around shared state.  This
module holds what every rule family needs:

* :class:`Finding` — one reported violation, with a stable sort order.
* :class:`SourceFile` — a parsed module plus its comment-derived
  metadata: suppressions (``# lint: ok[D103] reason``), ``guarded-by``
  / ``holds`` / ``init-only`` / ``lock-order`` annotations, all keyed
  by line number.
* :class:`ClassInfo` — per-class annotation summary (guarded
  attributes, declared lock order, set/dict-typed attributes).
* :func:`held_locks` — the lexical lock context of any statement,
  honouring the ``_locked``-suffix and ``# holds:`` conventions.

Rules never import each other; they import this module and
``ast``.  See ``docs/analysis.md`` for the rule catalog and the
annotation grammar.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

# Comment grammar.  All annotations are ordinary ``#`` comments so the
# interpreter, ruff, and humans ignore them for free.
_SUPPRESS_RE = re.compile(r"#\s*lint:\s*ok\[([A-Z0-9,\s]+)\]")
_GUARDED_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_]\w*)")
_HOLDS_RE = re.compile(r"#\s*holds:\s*([A-Za-z_]\w*)")
_INIT_ONLY_RE = re.compile(r"#\s*init-only\b")
_LOCK_ORDER_RE = re.compile(r"#\s*lock-order:\s*(.+)$")

#: Method calls that mutate a collection in place.  A call to one of
#: these on a guarded attribute counts as a write for lock purposes.
MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def comment_of(line: str) -> str:
    """Return the trailing comment of ``line`` (empty if none).

    A ``#`` inside a string literal would fool this, so annotation
    comments must not share a line with a ``#`` embedded in a string.
    No current annotation site does.
    """

    index = line.find("#")
    return "" if index < 0 else line[index:]


@dataclass
class SourceFile:
    """A parsed module plus comment-derived analyzer metadata."""

    path: str
    text: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    #: line number -> rule ids suppressed on that line
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, text: Optional[str] = None) -> "SourceFile":
        raw = path.read_text(encoding="utf-8") if text is None else text
        tree = ast.parse(raw, filename=str(path))
        source = cls(path=str(path), text=raw, tree=tree, lines=raw.splitlines())
        source._collect_suppressions()
        return source

    def _collect_suppressions(self) -> None:
        for number, line in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(comment_of(line))
            if not match:
                continue
            rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
            # A suppression on a pure-comment line covers the next line,
            # so long statements can carry it without breaking the
            # formatter's 88-column budget.
            target = number + 1 if line.strip().startswith("#") else number
            self.suppressions.setdefault(target, set()).update(rules)

    def line_comment(self, line_number: int) -> str:
        if 1 <= line_number <= len(self.lines):
            return comment_of(self.lines[line_number - 1])
        return ""

    def suppressed(self, line: int, rule: str) -> bool:
        return rule in self.suppressions.get(line, set())

    def finding(self, node: ast.AST, rule: str, message: str) -> Optional[Finding]:
        """Build a finding for ``node`` unless suppressed at its line."""

        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self.suppressed(line, rule):
            return None
        return Finding(path=self.path, line=line, col=col, rule=rule, message=message)

    # -- module-level annotations -------------------------------------

    def module_guards(self) -> Dict[str, str]:
        """``guarded-by`` annotations on module-level assignments."""

        guards: Dict[str, str] = {}
        for node in self.tree.body:
            name = _assigned_name(node)
            if name is None:
                continue
            match = _GUARDED_RE.search(self.line_comment(node.lineno))
            if match:
                guards[name] = match.group(1)
        return guards

    def classes(self) -> List["ClassInfo"]:
        """Class infos, with same-file base-class annotations inherited."""

        infos = [
            ClassInfo.collect(self, node)
            for node in self.tree.body
            if isinstance(node, ast.ClassDef)
        ]
        by_name = {info.name: info for info in infos}
        for info in infos:
            for base in info.node.bases:
                parent = by_name.get(base.id) if isinstance(base, ast.Name) else None
                if parent is None:
                    continue
                for attr, lock in parent.guarded.items():
                    info.guarded.setdefault(attr, lock)
                info.set_attrs.update(parent.set_attrs)
                info.dict_attrs.update(parent.dict_attrs)
                if not info.lock_order:
                    info.lock_order = list(parent.lock_order)
        return infos


def _assigned_name(node: ast.stmt) -> Optional[str]:
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
        if isinstance(target, ast.Name):
            return target.id
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return node.target.id
    return None


@dataclass
class ClassInfo:
    """Annotation summary for one class definition."""

    node: ast.ClassDef
    #: attribute name -> guarding lock attribute name
    guarded: Dict[str, str] = field(default_factory=dict)
    #: declared acquisition order, outermost first
    lock_order: List[str] = field(default_factory=list)
    #: attributes initialised to set()/frozenset()/{...} in __init__
    set_attrs: Set[str] = field(default_factory=set)
    #: attributes initialised to a dict-like value in __init__
    dict_attrs: Set[str] = field(default_factory=set)

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def audited(self) -> bool:
        """True once the class has opted into the lock convention."""

        return bool(self.guarded or self.lock_order)

    @classmethod
    def collect(cls, source: SourceFile, node: ast.ClassDef) -> "ClassInfo":
        info = cls(node=node)
        end = getattr(node, "end_lineno", node.lineno) or node.lineno
        for line_number in range(node.lineno, end + 1):
            comment = source.line_comment(line_number)
            order = _LOCK_ORDER_RE.search(comment)
            if order:
                info.lock_order = [
                    part.strip() for part in order.group(1).split("->") if part.strip()
                ]
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for statement in ast.walk(method):
                attr = _self_attr_target(statement)
                if attr is None:
                    continue
                match = _GUARDED_RE.search(source.line_comment(statement.lineno))
                if match:
                    info.guarded[attr] = match.group(1)
                if method.name == "__init__":
                    kind = _collection_kind(statement)
                    if kind == "set":
                        info.set_attrs.add(attr)
                    elif kind == "dict":
                        info.dict_attrs.add(attr)
        return info

    def methods(self) -> Iterator[ast.FunctionDef]:
        for item in self.node.body:
            if isinstance(item, ast.FunctionDef):
                yield item

    def lock_names(self) -> Set[str]:
        return set(self.guarded.values())

    def method_held_locks(
        self, source: SourceFile, method: ast.FunctionDef
    ) -> Set[str]:
        """Locks a method holds on entry, per naming/annotation convention."""

        comment = source.line_comment(method.lineno)
        holds = _HOLDS_RE.search(comment)
        if holds:
            return {holds.group(1)}
        if method.name.endswith("_locked"):
            locks = self.lock_names()
            if len(locks) == 1:
                return set(locks)
        return set()

    def method_exempt(self, source: SourceFile, method: ast.FunctionDef) -> bool:
        """__init__ and ``# init-only`` methods run before the object is shared."""

        if method.name == "__init__":
            return True
        return bool(_INIT_ONLY_RE.search(source.line_comment(method.lineno)))


def _self_attr_target(node: ast.AST) -> Optional[str]:
    """Name of the ``self.X`` attribute assigned by ``node``, if any."""

    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    for target in targets:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return target.attr
    return None


def _collection_kind(node: ast.AST) -> Optional[str]:
    value = getattr(node, "value", None)
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, ast.Call):
        name = dotted_name(value.func) or ""
        tail = name.rsplit(".", 1)[-1]
        if tail in {"set", "frozenset"}:
            return "set"
        if tail in {"dict", "OrderedDict", "defaultdict", "Counter"}:
            return "dict"
    return None


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""

    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _with_lock_names(node: ast.With) -> Set[str]:
    """Lock names acquired by a ``with`` statement.

    Recognises ``with self._lock:`` (instance lock) and
    ``with _MODULE_LOCK:`` (module-level lock); anything else —
    ``with open(...)``, ``with pool.session():`` — is not a lock
    acquisition for the analyzer.
    """

    names: Set[str] = set()
    for item in node.items:
        expr = item.context_expr
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            names.add(expr.attr)
        elif isinstance(expr, ast.Name):
            names.add(expr.id)
    return names


def held_locks(
    method: ast.FunctionDef, initial: Optional[Set[str]] = None
) -> Iterator[Tuple[ast.stmt, Set[str], List[str]]]:
    """Yield ``(statement, held, acquisition_stack)`` lexically.

    ``held`` is the set of lock names in scope at the statement;
    ``acquisition_stack`` preserves outermost-first order for the
    lock-order rule.  Nested function definitions are not descended
    into — a closure runs in an unknown lock context.
    """

    def visit(
        statements: Sequence[ast.stmt], held: Set[str], stack: List[str]
    ) -> Iterator[Tuple[ast.stmt, Set[str], List[str]]]:
        for statement in statements:
            yield statement, held, stack
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(statement, ast.With):
                acquired = _with_lock_names(statement)
                inner_stack = stack + sorted(acquired - held)
                yield from visit(statement.body, held | acquired, inner_stack)
                continue
            for block in _child_blocks(statement):
                yield from visit(block, held, stack)

    yield from visit(method.body, set(initial or ()), sorted(initial or ()))


def _child_blocks(statement: ast.stmt) -> Iterator[Sequence[ast.stmt]]:
    for name in ("body", "orelse", "finalbody"):
        block = getattr(statement, name, None)
        if block:
            yield block
    for handler in getattr(statement, "handlers", ()) or ():
        yield handler.body


def iter_statement_writes(statement: ast.stmt) -> Iterator[Tuple[ast.AST, str, str]]:
    """Yield ``(node, kind, attr)`` for every ``self.X`` write in a statement.

    ``kind`` is one of ``assign``, ``del``, ``item``, ``mutate``.  The
    scan is shallow by design: it looks at this statement only, because
    :func:`held_locks` already yields every nested statement once.
    """

    targets: List[ast.expr] = []
    if isinstance(statement, ast.Assign):
        targets = list(statement.targets)
    elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
        targets = [statement.target]
    elif isinstance(statement, ast.Delete):
        targets = list(statement.targets)
    kind = "del" if isinstance(statement, ast.Delete) else "assign"
    for target in _flatten_targets(targets):
        attr = _self_attribute(target)
        if attr is not None:
            yield target, kind, attr
        elif isinstance(target, ast.Subscript):
            attr = _self_attribute(target.value)
            if attr is not None:
                yield target, "item", attr
    if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Call):
        func = statement.value.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            attr = _self_attribute(func.value)
            if attr is not None:
                yield statement.value, "mutate", attr


def iter_statement_global_writes(
    statement: ast.stmt, names: Set[str]
) -> Iterator[Tuple[ast.AST, str, str]]:
    """Like :func:`iter_statement_writes` for module-level globals."""

    targets: List[ast.expr] = []
    if isinstance(statement, ast.Assign):
        targets = list(statement.targets)
    elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
        targets = [statement.target]
    elif isinstance(statement, ast.Delete):
        targets = list(statement.targets)
    kind = "del" if isinstance(statement, ast.Delete) else "assign"
    for target in _flatten_targets(targets):
        if isinstance(target, ast.Name) and target.id in names:
            yield target, kind, target.id
        elif isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Name) and base.id in names:
                yield target, "item", base.id
    if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Call):
        func = statement.value.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            base = func.value
            if isinstance(base, ast.Name) and base.id in names:
                yield statement.value, "mutate", base.id


def _flatten_targets(targets: Sequence[ast.expr]) -> Iterator[ast.expr]:
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from _flatten_targets(target.elts)
        elif isinstance(target, ast.Starred):
            yield target.value
        else:
            yield target


def _self_attribute(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None
