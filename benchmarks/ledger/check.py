"""Correctness: every reply checked against its request, a sample replayed.

Two checks, both after a timed phase and never during it:

* **Echo** — every reply must be a 200 whose rows name the queries that
  were sent, in order, with estimates inside ``[0, 1]``.  A reply routed
  to the wrong request, truncated, or answered for other budgets fails.
* **Replay** — a fixed 1-in-16 sample of the replies (plus the first
  reply of every method at every graph version) is recomputed by a
  :class:`Replica`: an in-process ``ReliabilityService`` over the same
  dataset and seed, given the same warm-up prefix and the same updates
  in the same order.  Estimates must agree **bit for bit** — the
  system's determinism contract, checked across a process boundary.
  An ``auto`` reply is replayed as the routed method it names.

The first-of-its-method rule exists because an index-backed estimator
redraws its index on first use after an update; replaying that first
use keeps the replica's index history equal to the server's.

Failures of either kind count into ``error_rate`` beside transport
errors and non-200 replies.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from benchmarks.ledger import traffic
from benchmarks.ledger.loadgen import Exchange
from benchmarks.ledger.traffic import Request

REPLAY_EVERY = 16
REFERENCE_SAMPLES = 16384
#: Disjoint from the service seed, every traffic seed and the probe seeds.
REFERENCE_SEED = 0x0EFE0000


def server_options(workload: str, workdir: Path) -> dict:
    """Service options mirroring the flags the workload's servers get."""
    if workload == "hot_zipf":
        return {"cache_dir": str(workdir / "replica-sidecar")}
    return {}


class Replica:
    """An in-process service that has seen what the servers have seen."""

    def __init__(self, workload: str, workdir: Path) -> None:
        from repro.api.service import ReliabilityService

        self.service = ReliabilityService.from_dataset(
            traffic.DATASET, traffic.SCALE, traffic.DATASET_SEED,
            **server_options(workload, workdir),
        )
        for request in traffic.warmup(workload):
            self.answer(request)

    def answer(self, request: Request, method: Optional[str] = None) -> dict:
        """The reply document a server should have sent for ``request``."""
        from repro.api import types

        payload = request.payload
        if method is not None:
            payload = {**payload, "method": method}
        service = self.service
        if request.kind == "batch":
            parsed = types.BatchRequest.from_dict(payload)
            return service.estimate_batch(parsed).to_dict()
        if request.kind == "estimate":
            parsed = types.EstimateRequest.from_dict(payload)
            return service.estimate(parsed).to_dict()
        if request.kind == "topk":
            return service.topk(types.TopKRequest.from_dict(payload)).to_dict()
        if request.kind == "update":
            parsed = types.UpdateRequest.from_dict(payload)
            return service.update(parsed).to_dict()
        if request.kind == "warm":
            return service.warm(types.WarmRequest.from_dict(payload)).to_dict()
        raise ValueError(f"no replay for request kind {request.kind!r}")

    def close(self) -> None:
        self.service.close()


# ----------------------------------------------------------------------
# Echo: does the reply answer the request that was sent?
# ----------------------------------------------------------------------


def _batch_rows(payload: dict) -> List[Tuple[int, int, int, Optional[int]]]:
    default_samples = payload.get("samples", 1000)
    default_hops = payload.get("max_hops")
    rows = []
    for entry in payload["queries"]:
        hops = entry[3] if len(entry) > 3 else default_hops
        samples = entry[2] if len(entry) > 2 else default_samples
        rows.append((entry[0], entry[1], samples, hops))
    return rows


def echo_error(request: Request, document: dict) -> Optional[str]:
    """Why ``document`` cannot be the answer to ``request`` (or ``None``)."""
    payload = request.payload
    try:
        if request.kind == "batch":
            got = [
                (row["source"], row["target"], row["samples"], row["max_hops"])
                for row in document["results"]
            ]
            if got != _batch_rows(payload):
                return "reply rows do not name the queries sent"
            values = [row["estimate"] for row in document["results"]]
        elif request.kind == "estimate":
            sent = (payload["source"], payload["target"], payload["samples"])
            got = (document["source"], document["target"], document["samples"])
            if got != sent:
                return "reply names another query"
            if payload["method"] not in ("auto", document["method"]):
                return "reply names another method"
            values = [document["estimate"]]
        elif request.kind == "topk":
            if (document["source"], document["k"]) != (
                payload["source"], payload["k"]
            ):
                return "reply names another query"
            values = [row["reliability"] for row in document["ranking"]]
        elif request.kind == "update":
            if document["edges_set"] + document["edges_added"] != len(
                payload["set_edges"]
            ):
                return "update applied another edge count"
            values = []
        else:
            values = []
    except (KeyError, TypeError, IndexError) as failure:
        return f"malformed reply: {type(failure).__name__}: {failure}"
    for value in values:
        if not (isinstance(value, float) and 0.0 <= value <= 1.0):
            return f"estimate {value!r} outside [0, 1]"
    return None


# ----------------------------------------------------------------------
# Replay: is the reply the number the system's contract says it is?
# ----------------------------------------------------------------------


def answer_values(kind: str, document: dict) -> list:
    """The part of a reply that must repeat exactly."""
    if kind == "batch":
        return [row["estimate"] for row in document["results"]]
    if kind == "estimate":
        return [document["method"], document["estimate"]]
    if kind == "topk":
        return [(row["node"], row["reliability"]) for row in document["ranking"]]
    if kind == "update":
        return [document["version"], document["fingerprint"]]
    return []


def _method_of(request: Request, document: dict) -> str:
    if request.kind in ("batch", "estimate"):
        return str(document.get("method"))
    return request.kind


def check_exchanges(
    exchanges: Sequence[Exchange], replica: Optional[Replica]
) -> List[str]:
    """One message per failed exchange; the empty list means all correct.

    ``replica`` may be ``None`` to run the echo check alone (the traced
    run, whose replies the untraced run of the same stream verifies).
    """
    failures = []
    parsed: Dict[int, dict] = {}
    for exchange in exchanges:
        label = f"request {exchange.request.index} ({exchange.request.kind})"
        if not exchange.ok:
            detail = exchange.error or exchange.body[:200].decode(
                "utf-8", "replace"
            )
            failures.append(f"{label}: HTTP {exchange.status}: {detail}")
            continue
        try:
            document = json.loads(exchange.body)
        except ValueError as failure:
            failures.append(f"{label}: reply is not JSON: {failure}")
            continue
        problem = echo_error(exchange.request, document)
        if problem is not None:
            failures.append(f"{label}: {problem}")
            continue
        parsed[exchange.request.index] = document
    if replica is None:
        return failures

    # Reads of version v, then the update that ends v: the gate made
    # that the order the servers saw, whatever the thread interleaving.
    ordered = sorted(
        (exchange for exchange in exchanges if exchange.request.index in parsed),
        key=lambda exchange: (
            exchange.version, exchange.request.is_update, exchange.request.index
        ),
    )
    seen_methods = set()
    for exchange in ordered:
        request = exchange.request
        document = parsed[request.index]
        method = _method_of(request, document)
        # Per endpoint: a method's batch path and its per-query path keep
        # separate state (BFS Sharing's per-query index, above all).
        first = (exchange.version, request.kind, method)
        first_of_method = first not in seen_methods
        seen_methods.add(first)
        if not (
            request.is_update
            or first_of_method
            or request.index % REPLAY_EVERY == 0
        ):
            continue
        routed = method if request.payload.get("method") == "auto" else None
        expected = replica.answer(request, method=routed)
        if answer_values(request.kind, expected) != answer_values(
            request.kind, document
        ):
            failures.append(
                f"request {request.index} ({request.kind}, {method}, graph "
                f"version {exchange.version}): served "
                f"{answer_values(request.kind, document)!r}, replica computed "
                f"{answer_values(request.kind, expected)!r}"
            )
    return failures


# ----------------------------------------------------------------------
# Accuracy: served probe estimates against a high-budget reference
# ----------------------------------------------------------------------


def reference_estimates(
    graph, pairs: Iterable[Tuple[int, int]]
) -> Dict[Tuple[int, int], float]:
    """K=16384 Monte Carlo reliabilities of ``pairs`` on ``graph``.

    The vectorized kernels are bit-identical to the default ones and
    about twice as fast; the reference is the harness's own, so it may
    use them whatever the servers default to.
    """
    from repro.engine.batch import BatchEngine

    pairs = list(dict.fromkeys(pairs))
    engine = BatchEngine(
        graph, seed=REFERENCE_SEED, kernels="vectorized", workers=1
    )
    result = engine.run(
        [(source, target, REFERENCE_SAMPLES) for source, target in pairs]
    )
    return {
        pair: float(value) for pair, value in zip(pairs, result.estimates)
    }


def probe_estimates(
    exchanges: Sequence[Exchange],
) -> List[Tuple[Tuple[int, int], float]]:
    """``((source, target), served estimate)`` for every probe answer."""
    served = []
    for exchange in exchanges:
        document = json.loads(exchange.body)
        if exchange.request.kind == "batch":
            served.extend(
                ((row["source"], row["target"]), row["estimate"])
                for row in document["results"]
            )
        else:
            served.append(
                ((document["source"], document["target"]), document["estimate"])
            )
    return served


def mean_absolute_error(
    served: Sequence[Tuple[Tuple[int, int], float]],
    reference: Dict[Tuple[int, int], float],
) -> float:
    return sum(
        abs(estimate - reference[pair]) for pair, estimate in served
    ) / len(served)
