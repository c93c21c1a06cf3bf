"""The list form of a query entry is as strict as the object form.

``[s, t, K, d]`` used to go through ``int(...)``, so ``5.9``, ``"100"``
and ``true`` were silently accepted (as 5, 100 and 1) while
``{"source": 5.9, ...}`` was rejected.  Both forms now read their
integers through one reader; every transport that accepts JSON entries
rejects the same values, naming the entry.  (The CLI's whitespace text
format is text all the way down and keeps its own ``int(str)`` reader.)
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.api import InvalidQueryError, QuerySpec
from repro.cli import main

#: One bad value per position of ``[source, target, samples, max_hops]``.
REJECTED = [
    [0.0, 5, 100],
    [0, 5.9, 100],
    [0, 5, 100.0],
    [0, 5, 100, 2.0],
    ["0", 5, 100],
    [0, 5, "100"],
    [0, 5, 100, "2"],
    [True, 5, 100],
    [0, 5, True],
    [0, 5, 100, True],
    [0, 5.9, "100", True],
    [0, 5, None],
    [0, 5, None, 2],
]

rejected = pytest.mark.parametrize("entry", REJECTED, ids=json.dumps)


@rejected
def test_coerce_rejects_with_the_entry_position(entry):
    with pytest.raises(InvalidQueryError, match="entry 4: non-numeric value"):
        QuerySpec.coerce(entry, 4)


def test_coerce_still_accepts_plain_integers_and_a_trailing_null():
    assert QuerySpec.coerce([0, 5, 100, 2], 0) == QuerySpec(0, 5, 100, 2)
    assert QuerySpec.coerce([0, 5, 100, None], 0) == QuerySpec(0, 5, 100, None)


@rejected
def test_post_batch_answers_a_structured_400(tiny_server, entry):
    body = json.dumps({"queries": [[0, 5, 100], entry]}).encode("utf-8")
    request = urllib.request.Request(tiny_server.url + "/v1/batch", data=body)
    with pytest.raises(urllib.error.HTTPError) as raised:
        urllib.request.urlopen(request, timeout=30)
    assert raised.value.code == 400
    error = json.loads(raised.value.read())["error"]
    assert error["type"] == "InvalidQueryError"
    assert error["message"].startswith("entry 1: non-numeric value")


@rejected
def test_repro_batch_rejects_the_json_query_file(tmp_path, entry):
    path = tmp_path / "file.json"
    path.write_text(json.dumps([entry]), encoding="utf-8")
    with pytest.raises(ValueError, match="file.json: entry 0: non-numeric"):
        main(["batch", "--queries", str(path), "--dataset", "lastfm",
              "--scale", "tiny"])
