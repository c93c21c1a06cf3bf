"""``docs/api.md`` states the wire format exactly as ``repro.api.types`` does.

The field reference (one table per wire type: name, type, required,
default) and the HTTP endpoint table are rendered here from the dataclass
fields and ``ENDPOINT_TABLE`` and compared with the text between the
``<!-- wire-fields -->`` / ``<!-- wire-endpoints -->`` markers, so a
field or endpoint that is missing from the docs — or stale there — fails
this test.  After changing a wire type, refresh the docs with::

    PYTHONPATH=src python tests/api/test_api_docs.py

Beside the docs blocks, the live objects are checked for the two facts
nothing renders: every row of the table names a ``ReliabilityService``
method (a row without one is a route that can only answer 500), and
every ``*Request`` type parses through the one strict
``Wire.from_dict`` (an override could silently drop unknown keys).
"""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.api import ReliabilityService, types

DOCS_PATH = Path(__file__).resolve().parents[2] / "docs" / "api.md"

WIRE_TYPES = [
    value
    for value in vars(types).values()
    if isinstance(value, type)
    and issubclass(value, types.Wire)
    and value is not types.Wire
]

REQUEST_TYPES = [
    value
    for name, value in vars(types).items()
    if isinstance(value, type) and name.endswith("Request")
]


def field_table(wire_type) -> str:
    """The docs table of one wire type, in field (= document) order.

    ``required`` reads "must be sent" on a request and "always present"
    on a response; the one derived field and the fields dropped while
    ``None`` say so in the default column.
    """
    lines = [
        f"#### `{wire_type.__name__}`",
        "",
        "| field | type | required | default |",
        "|-------|------|----------|---------|",
    ]
    for spec in dataclasses.fields(wire_type):
        required, default = "no", f"`{spec.default!r}`"
        if spec.metadata.get("omit_none"):
            default = "omitted while `None`"
        elif not spec.init:
            required, default = "yes", "derived"
        elif spec.default is dataclasses.MISSING:
            required, default = "yes", "—"
        lines.append(f"| `{spec.name}` | `{spec.type}` | {required} | {default} |")
    return "\n".join(lines)


def _type_cell(wire_type, absent: str) -> str:
    return absent if wire_type is None else f"`{wire_type.__name__}`"


def endpoint_table() -> str:
    lines = [
        "| endpoint | body | returns | service method |",
        "|----------|------|---------|----------------|",
    ]
    for endpoint in types.ENDPOINT_TABLE:
        if not endpoint.verbs:
            continue  # local: no HTTP route to document
        verbs = "\\|".join(endpoint.verbs)  # an escaped | inside a table cell
        lines.append(
            f"| `{verbs} {endpoint.path}` "
            f"| {_type_cell(endpoint.request, '—')} "
            f"| {_type_cell(endpoint.response, 'plain dict')} "
            f"| `{endpoint.method}()` |"
        )
    return "\n".join(lines)


BLOCKS = {
    "wire-fields": lambda: "\n\n".join(map(field_table, WIRE_TYPES)),
    "wire-endpoints": endpoint_table,
}


def _block_pattern(name):
    return re.compile(
        rf"(<!-- {name}:begin -->\n).*?(\n<!-- {name}:end -->)", re.DOTALL
    )


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_docs_block_matches_the_types_module(name):
    match = _block_pattern(name).search(DOCS_PATH.read_text(encoding="utf-8"))
    assert match is not None, f"docs/api.md has no <!-- {name} --> block"
    documented = match.group(0)[len(match.group(1)) : -len(match.group(2))]
    assert documented == BLOCKS[name]()


@pytest.mark.parametrize(
    "endpoint", types.ENDPOINT_TABLE, ids=lambda endpoint: endpoint.name
)
def test_every_row_names_a_service_method(endpoint):
    assert callable(vars(ReliabilityService).get(endpoint.method))


@pytest.mark.parametrize(
    "request_type", REQUEST_TYPES, ids=lambda request_type: request_type.__name__
)
def test_every_request_type_parses_through_the_one_strict_reader(request_type):
    assert issubclass(request_type, types.Wire)
    assert "from_dict" not in vars(request_type)


if __name__ == "__main__":
    text = DOCS_PATH.read_text(encoding="utf-8")
    for block, render in BLOCKS.items():
        text = _block_pattern(block).sub(
            lambda match, body=render(): match.group(1) + body + match.group(2),
            text,
        )
    DOCS_PATH.write_text(text, encoding="utf-8")
