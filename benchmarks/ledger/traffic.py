"""Seeded request streams for the four ledger workloads.

Everything here is a pure function of ``(workload, seed)`` and of the
served dataset (``lastfm``/``small``, dataset seed 0 — the servers are
always started on that one graph; ``--seed`` varies the *traffic*, never
the graph, so the accuracy reference stays one graph per version).

Sources and targets come from :func:`repro.datasets.queries.generate_workload`
— the paper's protocol, targets two BFS hops from the source — so no
served reliability is trivially 0 or 1.  The pool of sources and each
source's target list are fixed; the seed decides which of them each
request draws, in which order, with which budgets and request seeds.
A seed-fixed pool keeps the per-request cost mix (sweeps are cheaper from
a source with a small reachable set) the same from seed to seed, which
is what lets two runs on different seeds be compared at all.

A :class:`Request` carries its pre-encoded body: the load generator
sends bytes and never serialises inside the timed phase.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

DATASET = "lastfm"
SCALE = "small"
#: The dataset (and service) seed every server of every workload uses.
DATASET_SEED = 0

WORKLOADS = ("cold_batch", "hot_zipf", "mixed_update", "shard_cold")

SOURCE_POOL = 64
TARGETS_PER_SOURCE = 32

# cold_batch / shard_cold -------------------------------------------------
COLD_QUERIES = 16
COLD_SAMPLES = 512  # two default-size chunks: one per shard on shard_cold
COLD_HOT_SOURCES = 2  # fan-out shape: 2 sources x 8 targets
COLD_DISTINCT_SOURCES = 6  # spread shape: 6 sources, 2-3 targets each
#: Every fourth request has the fan-out shape.  An even split would put
#: the median on the boundary between the two shapes' latency modes,
#: where it flips from run to run; 3:1 keeps p50 inside the spread mode.
COLD_FANOUT_EVERY = 4

# hot_zipf ----------------------------------------------------------------
HOT_SOURCES = 16
HOT_SAMPLES = (250, 500, 1000)
HOT_HOPS = (None, 3, 5)
HOT_QUERIES = 8
ZIPF_EXPONENT = 1.1

# mixed_update ------------------------------------------------------------
MIXED_QUERIES = 6
#: Distinct sources per batch.  Fixed, because a cold batch costs one
#: sweep per source per chunk: letting the count float with the draws
#: spreads the slow requests out and makes p95 a matter of luck.
MIXED_BATCH_SOURCES = 3
MIXED_BATCH_METHODS = ("mc", "bfs_sharing", "prob_tree")
MIXED_BATCH_SAMPLES = (250, 500, 1000)
#: ProbTree's batch path costs about twice the engine's per world, so at
#: K=1000 its batches alone would be the slowest ~6 % of requests and
#: p95 would sit on the edge of that cluster, flipping in and out of it
#: from run to run.  Capped, the slow band (ProbTree 500, importance and
#: RSS estimates, cold K=1000 engine batches) holds ~15 % of requests
#: and p95 falls inside it.  ProbTree batches take no hop bound.
MIXED_PROB_TREE_SAMPLES = (250, 500)
MIXED_HOPS = (None, 3, 5)
MIXED_ESTIMATE_METHODS = (
    "auto", "mc", "rhh", "rss", "lp", "prob_tree", "importance", "strata",
)
MIXED_ESTIMATE_SAMPLES = (250, 500)
UPDATE_EVERY = 50
UPDATE_EDGES = 4

# probes (accuracy) -------------------------------------------------------
#: Probe requests use their own fixed seeds, disjoint from every traffic
#: seed and from the reference seed, so ``estimate_mae`` is an exact
#: function of the served code and graph version — a changed digit is a
#: changed estimator, never sampling luck.
PROBE_SEEDS = (0x5EED01, 0x5EED02, 0x5EED03, 0x5EED04)
PROBE_SOURCES = 4
PROBE_TARGETS = 16
MIXED_PROBE_PAIRS = 4
MIXED_PROBE_SAMPLES = 500
#: The eight estimators the mixed workload serves (bfs_sharing through
#: ``/v1/batch`` only: its per-query index is redrawn after every update).
PROBE_METHODS = (
    "mc", "bfs_sharing", "prob_tree", "rhh", "rss", "lp", "importance",
    "strata",
)


@dataclass(frozen=True)
class Request:
    """One request of a stream: where it goes and the exact bytes sent."""

    index: int
    kind: str  # "batch" | "estimate" | "topk" | "update" | "warm"
    path: str
    body: bytes
    #: The decoded body, kept so checks never re-parse what they sent.
    payload: dict

    @property
    def is_update(self) -> bool:
        return self.kind == "update"


def _request(index: int, kind: str, payload: dict) -> Request:
    return Request(
        index=index,
        kind=kind,
        path="/v1/" + kind,
        body=json.dumps(payload, separators=(",", ":")).encode("utf-8"),
        payload=payload,
    )


@dataclass(frozen=True)
class Fixture:
    """The seed-independent query material of the served graph."""

    sources: Tuple[int, ...]
    targets: Dict[int, Tuple[int, ...]]
    #: The pool ranked by how much of the graph a source reaches in three
    #: hops and cut into COLD_DISTINCT_SOURCES equal strata.  A sweep
    #: costs what its source reaches, so one source per stratum makes
    #: every spread-shape request cost about the same: the latency tail is
    #: then the system's doing, not the luck of the draw.
    strata: Tuple[Tuple[int, ...], ...]
    #: Existing edges an update may re-weight, as (source, target) pairs.
    edges: Tuple[Tuple[int, int], ...]


@lru_cache(maxsize=1)
def fixture() -> Fixture:
    """Sources, per-source targets and updatable edges of the served graph."""
    from repro.datasets.queries import generate_workload
    from repro.datasets.suite import load_dataset

    graph = load_dataset(DATASET, SCALE, DATASET_SEED).graph
    pairs = generate_workload(graph, SOURCE_POOL, 2, seed=DATASET_SEED).pairs
    sources = tuple(source for source, _ in pairs)
    targets, reach = {}, {}
    for source in sources:
        distances = graph.bfs_distances(source, max_hops=3)
        ranked = np.concatenate(
            [np.nonzero(distances == 2)[0], np.nonzero(distances == 3)[0]]
        )
        targets[source] = tuple(int(node) for node in ranked[:TARGETS_PER_SOURCE])
        reach[source] = int((distances > 0).sum())
    by_reach = sorted(sources, key=lambda source: (reach[source], source))
    strata = tuple(
        tuple(int(source) for source in stratum)
        for stratum in np.array_split(by_reach, COLD_DISTINCT_SOURCES)
    )
    edges = tuple(
        (int(u), int(v)) for u, v, _ in graph.iter_edges()
    )
    return Fixture(sources=sources, targets=targets, strata=strata, edges=edges)


def _generator(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _zipf_ranks(
    rng: np.random.Generator, universe: int, count: int, distinct: bool = False
) -> np.ndarray:
    """``count`` draws from a zipf(1.1) truncated to ``universe`` ranks."""
    weights = 1.0 / np.arange(1, universe + 1) ** ZIPF_EXPONENT
    return rng.choice(
        universe, size=count, p=weights / weights.sum(), replace=not distinct
    )


# ----------------------------------------------------------------------
# cold_batch / shard_cold
# ----------------------------------------------------------------------


def _cold_seed(seed: int, index: int) -> int:
    # Fresh per request, so nothing is ever served from the cache; kept
    # far from PROBE_SEEDS and from the service's own seed 0.
    return (int(seed) + 1) * 1_000_003 + index


def _cold_stream(seed: int) -> Iterator[Request]:
    fx = fixture()
    rng = _generator("cold_batch", seed)
    hot = fx.sources[:COLD_HOT_SOURCES]
    for index in itertools.count():
        if index % COLD_FANOUT_EVERY == 0:
            # top-k fan-out shape: few sources, many targets each, so
            # sampling the worlds is a larger share of the request.
            sources = [hot[slot % len(hot)] for slot in range(COLD_QUERIES)]
        else:
            # many sources: one sweep per source per chunk dominates.
            picks = [
                stratum[int(rng.integers(len(stratum)))]
                for stratum in fx.strata
            ]
            sources = [picks[slot % len(picks)] for slot in range(COLD_QUERIES)]
        slots = rng.integers(TARGETS_PER_SOURCE, size=COLD_QUERIES)
        queries = [
            [source, fx.targets[source][int(slot) % len(fx.targets[source])],
             COLD_SAMPLES]
            for source, slot in zip(sources, slots)
        ]
        yield _request(
            index, "batch",
            {"queries": queries, "seed": _cold_seed(seed, index)},
        )


# ----------------------------------------------------------------------
# hot_zipf
# ----------------------------------------------------------------------


@lru_cache(maxsize=1)
def hot_universe() -> Tuple[Tuple[int, int, int, Optional[int]], ...]:
    """Every key of the hot workload: 16 x 32 x 3 budgets x 3 hop bounds.

    4 608 keys — more than the 4 096-entry memory LRU, so cached reads
    split between the memory tier and the SQLite sidecar.
    """
    fx = fixture()
    keys = []
    for hops in HOT_HOPS:
        for samples in HOT_SAMPLES:
            for slot in range(TARGETS_PER_SOURCE):
                for source in fx.sources[:HOT_SOURCES]:
                    pool = fx.targets[source]
                    keys.append((source, pool[slot % len(pool)], samples, hops))
    return tuple(keys)


def _entry(key: Sequence) -> list:
    source, target, samples, hops = key
    return [source, target, samples] if hops is None else list(key)


def _hot_stream(seed: int) -> Iterator[Request]:
    universe = hot_universe()
    rng = _generator("hot_zipf", seed)
    # The popularity order is a fixed property of the key set; the seed
    # draws from it.  No request seed: keys are cached under the
    # service's own seed, exactly what the warm-up prefix wrote.
    index = 0
    while True:
        block = _zipf_ranks(rng, len(universe), 256 * HOT_QUERIES)
        for row in block.reshape(256, HOT_QUERIES):
            yield _request(
                index, "batch",
                {"queries": [_entry(universe[int(rank)]) for rank in row]},
            )
            index += 1


# ----------------------------------------------------------------------
# mixed_update
# ----------------------------------------------------------------------


@lru_cache(maxsize=1)
def mixed_cycle() -> Tuple[Tuple[str, Optional[str], int, Optional[int]], ...]:
    """The 49 reads between two updates: ``(kind, method, samples, hops)``.

    Every cycle has exactly this composition — 25 batches, 20 estimates,
    4 top-k, then the update — and the seed only shuffles the order and
    draws the sources.  Drawing each request's kind independently would
    let the shares of cheap and expensive requests drift by a few points
    from seed to seed, and the median with them.
    """
    reads: List[Tuple[str, Optional[str], int, Optional[int]]] = []
    for method in ("mc", "bfs_sharing"):
        for samples in MIXED_BATCH_SAMPLES:
            for hops in MIXED_HOPS:
                reads.append(("batch", method, samples, hops))
    for samples in MIXED_PROB_TREE_SAMPLES:
        reads.extend([("batch", "prob_tree", samples, None)] * 3)
    reads.append(("batch", "mc", MIXED_BATCH_SAMPLES[-1], None))
    for method in MIXED_ESTIMATE_METHODS:
        for samples in MIXED_ESTIMATE_SAMPLES:
            reads.append(("estimate", method, samples, None))
    for samples in MIXED_ESTIMATE_SAMPLES * 2:
        reads.append(("estimate", "auto", samples, None))
    reads.extend([("topk", None, 250, None)] * 4)
    if len(reads) != UPDATE_EVERY - 1:
        raise ValueError(f"a cycle is {UPDATE_EVERY - 1} reads, built {len(reads)}")
    return tuple(reads)


def _mixed_stream(seed: int) -> Iterator[Request]:
    fx = fixture()
    rng = _generator("mixed_update", seed)
    cycle = mixed_cycle()
    for index in itertools.count():
        position = index % UPDATE_EVERY
        if position == 0:
            order = rng.permutation(len(cycle))
        if position == UPDATE_EVERY - 1:
            picks = rng.choice(len(fx.edges), UPDATE_EDGES, replace=False)
            probabilities = rng.uniform(0.05, 0.95, UPDATE_EDGES)
            yield _request(
                index, "update",
                {
                    "set_edges": [
                        [*fx.edges[int(pick)], round(float(p), 6)]
                        for pick, p in zip(picks, probabilities)
                    ]
                },
            )
            continue
        kind, method, samples, hops = cycle[int(order[position])]
        ranks = _zipf_ranks(
            rng, len(fx.sources), MIXED_BATCH_SOURCES, distinct=True
        )
        slots = rng.integers(TARGETS_PER_SOURCE, size=MIXED_QUERIES)
        pairs = []
        for slot_position, slot in enumerate(slots):
            source = fx.sources[int(ranks[slot_position % len(ranks)])]
            pool = fx.targets[source]
            pairs.append((source, pool[int(slot) % len(pool)]))
        if kind == "batch":
            payload = {
                "queries": [list(pair) for pair in pairs],
                "method": method,
                "samples": samples,
            }
            if hops is not None:
                payload["max_hops"] = hops
            yield _request(index, "batch", payload)
        elif kind == "estimate":
            source, target = pairs[0]
            yield _request(
                index, "estimate",
                {"source": source, "target": target, "samples": samples,
                 "method": method},
            )
        else:
            yield _request(
                index, "topk", {"source": pairs[0][0], "k": 10, "samples": samples}
            )


_STREAMS = {
    "cold_batch": _cold_stream,
    "shard_cold": _cold_stream,  # the identical stream, by construction
    "hot_zipf": _hot_stream,
    "mixed_update": _mixed_stream,
}


def iter_stream(workload: str, seed: int) -> Iterator[Request]:
    """``workload``'s endless request stream under ``seed``, in order.

    Lazy, so a timed phase generates only what it sends; each request
    costs the generator tens of microseconds, against round trips of
    milliseconds.
    """
    return _STREAMS[workload](seed)


def stream(workload: str, seed: int, count: int) -> List[Request]:
    """The first ``count`` requests of the stream (the traced prefix)."""
    return list(itertools.islice(iter_stream(workload, seed), count))


# ----------------------------------------------------------------------
# Warm-up prefix (part of set-up) and accuracy probes
# ----------------------------------------------------------------------


def warmup(workload: str) -> List[Request]:
    """The declared warm-up prefix: answered before anything is timed.

    What a workload's steady state presupposes lands here, and so in
    ``setup_s`` rather than in latency: the hot workload's whole key
    universe written to the sidecar, every estimator the mixed workload
    serves built (indexes, calibration) and carried through one update,
    and the code paths of the cold workloads imported and run once.
    """
    fx = fixture()
    if workload == "hot_zipf":
        return [
            _request(
                0, "warm",
                {"queries": [_entry(key) for key in hot_universe()]},
            )
        ]
    first = fx.sources[0]
    pair = [first, fx.targets[first][0]]
    if workload == "mixed_update":
        requests = [
            _request(
                position, "estimate",
                {"source": pair[0], "target": pair[1], "samples": 250,
                 "method": method},
            )
            for position, method in enumerate(PROBE_METHODS)
            if method != "bfs_sharing"
        ]
        requests.append(
            _request(
                len(requests), "batch",
                {"queries": [[*pair, 250]], "method": "bfs_sharing"},
            )
        )
        # One update inside set-up: the probes that follow are answered
        # at graph version 1, through indexes that survived an update.
        source, target = fx.edges[0]
        requests.append(
            _request(
                len(requests), "update",
                {"set_edges": [[source, target, 0.5]]},
            )
        )
        return requests
    return [
        _request(0, "batch", {"queries": [[*pair, 256]], "seed": 1}),
        _request(1, "batch", {"queries": [[*pair, 256]], "seed": 2}),
    ]


def probe_pairs(workload: str) -> List[Tuple[int, int]]:
    """The (source, target) pairs whose served estimates are scored."""
    fx = fixture()
    if workload == "mixed_update":
        return [
            (source, fx.targets[source][0])
            for source in fx.sources[:MIXED_PROBE_PAIRS]
        ]
    return [
        (source, fx.targets[source][slot % len(fx.targets[source])])
        for source in fx.sources[:PROBE_SOURCES]
        for slot in range(PROBE_TARGETS)
    ]


def probes(workload: str) -> List[Request]:
    """Probe requests: each names its method and seed, so it repeats exactly.

    Sent once, after the warm-up prefix and before the timed phase — a
    fixed point of the run, hence a fixed graph version (1 on
    ``mixed_update``, 0 elsewhere).
    """
    pairs = probe_pairs(workload)
    if workload == "mixed_update":
        requests = []
        for method in PROBE_METHODS:
            if method == "bfs_sharing":
                requests.append(
                    _request(
                        len(requests), "batch",
                        {
                            "queries": [
                                [s, t, MIXED_PROBE_SAMPLES] for s, t in pairs
                            ],
                            "method": method,
                            "seed": PROBE_SEEDS[0],
                        },
                    )
                )
                continue
            for source, target in pairs:
                requests.append(
                    _request(
                        len(requests), "estimate",
                        {"source": source, "target": target,
                         "samples": MIXED_PROBE_SAMPLES, "method": method},
                    )
                )
        return requests
    if workload == "hot_zipf":
        # Cached keys, served the way the traffic is: from the cache.
        return [
            _request(
                position, "batch",
                {"queries": [[s, t, samples] for s, t in pairs]},
            )
            for position, samples in enumerate(HOT_SAMPLES)
        ]
    return [
        _request(
            position, "batch",
            {"queries": [[s, t, COLD_SAMPLES] for s, t in pairs],
             "seed": probe_seed},
        )
        for position, probe_seed in enumerate(PROBE_SEEDS)
    ]


def digest(workload: str, seed: int, count: int = 256) -> str:
    """Content hash of the first ``count`` requests (paths and bodies)."""
    hasher = hashlib.blake2b(digest_size=16)
    for request in stream(workload, seed, count):
        hasher.update(request.path.encode("ascii"))
        hasher.update(b"\0")
        hasher.update(request.body)
        hasher.update(b"\n")
    return hasher.hexdigest()


#: The gated stream: ``digest(workload, 0)`` at the commit that defined
#: the benchmark.  ``BENCHMARK.json`` has a closed key set, so the pin
#: lives here; ``test_ledger.py`` fails when the stream drifts from it.
SEED0_DIGESTS = {
    "cold_batch": "2278ffdece39dd8169a85798b44eb090",
    "hot_zipf": "3508a65c7fe21060ded8351d74335a3d",
    "mixed_update": "c3fa2975d97dd10ce2fb34577a87bff5",
    "shard_cold": "2278ffdece39dd8169a85798b44eb090",
}
