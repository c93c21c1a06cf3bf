"""Wire-contract rules: W301 one strict parser, W302 endpoint-table
drift, W303 docs-table drift.

The wire format and the endpoint surface are each stated once, in
``api/types.py``: the dataclass fields (parsed by the one generic
``Wire.from_dict``) and ``ENDPOINT_TABLE``, from which the service's
counter keys and the HTTP routes are derived.  These checks read that
one module and pin what can still drift away from it:

* **W301** — every ``*Request`` dataclass derives from ``Wire`` and
  defines no ``from_dict`` of its own, so no request type bypasses the
  strict parser (unknown keys keep producing structured 400s instead of
  being silently dropped).
* **W302** — every table row names a method ``ReliabilityService``
  defines (a row without one is a route that can only answer 500), and
  every ``/v1/...`` path written out in ``serve/server.py`` belongs to
  a served row (a hand-written route is unaccounted surface).  Rows with
  ``verbs=()`` are deliberately local: counted, never routed.
* **W303** — every served row has a row in the endpoint table of
  ``docs/api.md``, and every ``/v1/...`` path in that table is served.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from .base import Finding, SourceFile

W301 = "W301"
W302 = "W302"
W303 = "W303"

_ROUTE_RE = re.compile(r"/v1/[a-z][a-z0-9/_-]*")


class EndpointRow(NamedTuple):
    """The statically readable part of one ``Endpoint(...)`` table row."""

    name: str
    verbs: Tuple[str, ...]
    method: str
    node: ast.AST

    @property
    def path(self) -> str:
        return "/v1/" + self.name.replace("_", "/")


def check_request_types(types_path: Path) -> List[Finding]:
    """W301: no ``*Request`` class bypasses the generic ``from_dict``."""

    source = SourceFile.parse(types_path)
    findings: List[Optional[Finding]] = []
    for node in source.tree.body:
        if not isinstance(node, ast.ClassDef) or not node.name.endswith("Request"):
            continue
        own = next(
            (
                item
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name == "from_dict"
            ),
            None,
        )
        if own is not None:
            findings.append(
                source.finding(
                    own,
                    W301,
                    f"`{node.name}.from_dict` overrides the generic strict parser "
                    "(`Wire.from_dict`); unknown payload keys could be silently "
                    "dropped instead of producing a structured 400",
                )
            )
        elif not any(
            isinstance(base, ast.Name) and base.id == "Wire" for base in node.bases
        ):
            findings.append(
                source.finding(
                    node,
                    W301,
                    f"request type `{node.name}` has no `from_dict` constructor; "
                    "wire payloads must decode through one strict path "
                    "(derive from `Wire`)",
                )
            )
    return sorted(finding for finding in findings if finding is not None)


def read_endpoint_table(source: SourceFile) -> Optional[List[EndpointRow]]:
    """The rows of ``ENDPOINT_TABLE = (Endpoint(name, verbs, method, ...), ...)``.

    ``None`` when there is no such assignment or a row's first three
    arguments are not literals — the table must stay statically readable.
    """
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if not any(
            isinstance(target, ast.Name) and target.id == "ENDPOINT_TABLE"
            for target in targets
        ):
            continue
        if not isinstance(node.value, (ast.Tuple, ast.List)):
            return None
        rows: List[EndpointRow] = []
        for element in node.value.elts:
            if not isinstance(element, ast.Call) or len(element.args) < 3:
                return None
            try:
                name, verbs, method = map(ast.literal_eval, element.args[:3])
            except ValueError:
                return None
            rows.append(EndpointRow(name, tuple(verbs), method, element))
        return rows
    return None


def _no_table(types: SourceFile, rule: str) -> List[Finding]:
    return [
        Finding(
            path=types.path,
            line=1,
            col=0,
            rule=rule,
            message="no `ENDPOINT_TABLE = (Endpoint(...), ...)` of literal "
            "`name, verbs, method` rows found",
        )
    ]


def check_endpoint_routes(
    types_path: Path, service_path: Path, server_path: Path
) -> List[Finding]:
    """W302: table rows, service methods and written-out routes agree."""

    types = SourceFile.parse(types_path)
    service = SourceFile.parse(service_path)
    server = SourceFile.parse(server_path)
    table = read_endpoint_table(types)
    if table is None:
        return _no_table(types, W302)
    methods = {
        item.name
        for node in ast.walk(service.tree)
        if isinstance(node, ast.ClassDef) and node.name == "ReliabilityService"
        for item in node.body
        if isinstance(item, ast.FunctionDef)
    }
    findings: List[Optional[Finding]] = []
    for row in table:
        if row.method not in methods:
            findings.append(
                types.finding(
                    row.node,
                    W302,
                    f"endpoint `{row.name}` has no route to a handler: "
                    f"`ReliabilityService.{row.method}` is not defined in "
                    f"{service.path}; add the method or drop the row",
                )
            )
    served = {row.path for row in table if row.verbs}
    for node in ast.walk(server.tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _ROUTE_RE.fullmatch(node.value)
            and node.value not in served
        ):
            findings.append(
                server.finding(
                    node,
                    W302,
                    f"route `{node.value}` has no matching served row in "
                    f"ENDPOINT_TABLE ({types.path})",
                )
            )
    return sorted(finding for finding in findings if finding is not None)


def check_docs_table(types_path: Path, docs_path: Path) -> List[Finding]:
    """W303: the docs endpoint table and the served rows agree."""

    types = SourceFile.parse(types_path)
    table = read_endpoint_table(types)
    if table is None:
        return _no_table(types, W303)
    served = {row.path: row for row in table if row.verbs}
    documented: Dict[str, int] = {}
    doc_text = docs_path.read_text(encoding="utf-8")
    for number, line in enumerate(doc_text.splitlines(), start=1):
        if not line.lstrip().startswith("|"):
            continue
        for match in _ROUTE_RE.finditer(line):
            documented.setdefault(match.group(0), number)
    findings: List[Optional[Finding]] = []
    for path in sorted(set(served) - set(documented)):
        findings.append(
            types.finding(
                served[path].node,
                W303,
                f"HTTP route `{path}` has no row in the endpoint table of "
                f"{docs_path}",
            )
        )
    for path in sorted(set(documented) - set(served)):
        findings.append(
            Finding(
                path=str(docs_path),
                line=documented[path],
                col=0,
                rule=W303,
                message=f"documented endpoint `{path}` is not a served row of "
                f"ENDPOINT_TABLE ({types.path})",
            )
        )
    return sorted(finding for finding in findings if finding is not None)
