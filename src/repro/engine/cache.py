"""Result caching for the batch engine.

Because the engine's world stream is a pure function of
``(graph fingerprint, seed, world index)`` — see
:meth:`repro.engine.batch.BatchEngine.world_mask` — an estimate is fully
determined by the key ``(graph fingerprint, source, target, K, seed,
max_hops)``.  The hop bound is part of the key because a d-hop query
(§2.9) answers a *different indicator* over the same worlds: a ``(s, t,
K, seed)`` hit must never be served across different ``max_hops`` values.
Caching on that key is therefore *exact*, not approximate: a hit replays
the very number a fresh evaluation would produce.  This mirrors the paper's
observation (§2.2/§3.7) that the expensive part of an estimate is sampling,
not arithmetic — a served query whose worlds were already drawn should
never draw them again.

The in-memory cache is a plain LRU over that key.  It deliberately stores
only floats: worlds themselves are streamed and dropped (the §2.3 lesson —
BFS Sharing's offline index shows that *retaining* K worlds costs ``O(Km)``
memory, which is exactly what the engine's ``chunk_size`` knob avoids).

:class:`PersistentResultCache` extends the LRU with a SQLite *sidecar*
file, so estimates survive the process: a benchmark re-run, a second
``repro batch`` invocation, or a freshly started serving process
warm-starts from disk and answers repeated queries with **zero** world
evaluations.  Because the key is exact (see above), persistence cannot
change any estimate — a disk hit replays the very number a fresh
evaluation would produce, across processes and machines alike.

Thread safety
-------------
Both caches are safe to share across threads: every public method runs
under one internal lock, so concurrent engines (the serving layer runs
one engine per HTTP request against the service's shared cache) can get,
write, and read statistics without corrupting the LRU order or overlapping
statements on the shared SQLite connection.  The lock is held for memory
operations and SQLite statement batches (at most one ``put_many``
transaction) — never while sampling worlds — so it serialises
bookkeeping and result I/O, not computation.
Exactness makes write races benign by construction: two threads that
miss the same key compute the *same* float, so whichever ``put_many``
lands last changes nothing.

Write batching — two different knobs, one transaction discipline:

* :meth:`PersistentResultCache.put_many` writes a whole workload's
  results in **one** transaction (one fsync instead of one per row);
  the batch engine and ``ReliabilityService.warm()`` route every
  multi-result write through it.
* Disk-hit recency (the ``touched`` tick that orders the disk LRU) is
  *deferred*: hits accumulate in memory and flush every
  :data:`DEFAULT_TOUCH_FLUSH_EVERY` hits, on any write, on
  ``statistics()`` (the ``/v1/stats`` report), and on ``close()`` —
  instead of paying one UPDATE+commit per hit.  Recency may therefore
  lag the truth by at most :data:`DEFAULT_TOUCH_FLUSH_EVERY` hits (and
  another process sees it only after a flush), which can never change
  a served value — only disk-LRU eviction order.  The per-reply report,
  :meth:`PersistentResultCache.counters`, flushes nothing, so a reply
  served from cache commits nothing.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.core.graph import UncertainGraph
from repro.util.validation import check_positive

#: Cache key: (graph fingerprint, source, target, samples, seed, max_hops)
#: with the unbounded hop budget encoded as ``UNBOUNDED_HOPS``.
ResultKey = Tuple[str, int, int, int, int, int]

#: Key encoding of "no hop bound" (hop bounds are strictly positive).
UNBOUNDED_HOPS = -1

DEFAULT_CACHE_CAPACITY = 4096

#: Bound on sidecar rows; far above any benchmark workload, small
#: enough that the file stays a few megabytes at worst.  Read at
#: construction, so tests may monkeypatch it.
DEFAULT_DISK_CAPACITY = 65536

#: How many deferred disk-hit recency updates accumulate before they are
#: flushed in one transaction (see the module docstring's batching notes).
#: Read at construction, so tests may monkeypatch it.
DEFAULT_TOUCH_FLUSH_EVERY = 64

#: The sidecar filename used when callers hand over a *directory*
#: (``repro batch --cache-dir``): one file can hold results for any
#: number of graphs, because the fingerprint is part of every key.
RESULT_CACHE_FILENAME = "results.sqlite"

_FINGERPRINT_ATTRIBUTE = "_engine_fingerprint"


def graph_fingerprint(graph: UncertainGraph) -> str:
    """Content hash of a graph's CSR arrays (stable across processes).

    Two graphs with identical structure and probabilities share a
    fingerprint, so cached results survive reloading the same dataset.

    The digest is memoised on the graph instance *keyed by its mutation
    counter* (``graph.version``): a plain memo served stale digests —
    hence stale cache keys — to any graph edited in place after its
    first hashing.  The memo holds ``(version, digest)`` and re-hashes
    whenever the version moved; at an unchanged version, repeated calls
    return the identical digest string.
    """
    version = getattr(graph, "version", 0)
    cached = getattr(graph, _FINGERPRINT_ATTRIBUTE, None)
    if cached is not None and cached[0] == version:
        return cached[1]
    digest = hashlib.blake2b(digest_size=16)
    digest.update(int(graph.node_count).to_bytes(8, "little"))
    digest.update(graph.indptr.tobytes())
    digest.update(graph.targets.tobytes())
    digest.update(graph.probs.tobytes())
    fingerprint = digest.hexdigest()
    setattr(graph, _FINGERPRINT_ATTRIBUTE, (version, fingerprint))
    return fingerprint


def result_key(
    fingerprint: str,
    source: int,
    target: int,
    samples: int,
    seed: int,
    max_hops: Optional[int] = None,
) -> ResultKey:
    """The canonical cache key for one estimate.

    ``max_hops=None`` (plain reliability) and every concrete hop bound map
    to distinct keys, so d-hop and unbounded estimates never alias.
    """
    return (
        fingerprint,
        int(source),
        int(target),
        int(samples),
        int(seed),
        UNBOUNDED_HOPS if max_hops is None else int(max_hops),
    )


class ResultCache:
    """A bounded LRU cache of batch-engine estimates.

    ``get`` promotes hits to most-recently-used; ``put_many`` evicts the
    least recently used entries once ``capacity`` is exceeded.  Hit/miss
    counters feed the engine's :class:`~repro.engine.batch.BatchResult`
    report.

    Safe for concurrent use: one internal lock covers every public
    method, so threads sharing a cache can never corrupt the LRU order
    (``OrderedDict`` is not thread-safe on its own) or lose counter
    increments.  Subclasses reuse the same lock for their extra state.
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        self.capacity = check_positive(capacity, "capacity")
        self._entries: "OrderedDict[ResultKey, float]" = (  # guarded-by: _lock
            OrderedDict()
        )
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        #: Guards the LRU, the counters, and (in the persistent subclass)
        #: the SQLite connection.  Plain (non-reentrant) lock: public
        #: methods acquire it exactly once and delegate to ``*_locked``
        #: internals, which must never re-acquire.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: ResultKey) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: ResultKey) -> Optional[float]:
        """Return the cached estimate for ``key`` or ``None`` (counted)."""
        with self._lock:
            return self._get_locked(key)

    def put_many(self, items: Iterable[Tuple[ResultKey, float]]) -> None:
        """Insert a batch of results under one lock acquisition.

        The in-memory LRU gains nothing from batching beyond fewer lock
        round-trips; the persistent subclass overrides the disk half to
        write the whole batch in a single SQLite transaction (one fsync
        instead of one per row), which is what makes warming N queries
        O(1) commits.
        """
        with self._lock:
            for key, value in items:
                self._put_locked(key, value)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def statistics(self) -> Dict[str, int]:
        """Counters for reports: size, capacity, hits, misses."""
        with self._lock:
            return self._statistics_locked()

    # ------------------------------------------------------------------
    # Lock-free internals (callers hold self._lock)
    # ------------------------------------------------------------------

    def _get_locked(self, key: ResultKey) -> Optional[float]:
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def _put_locked(self, key: ResultKey, value: float) -> None:
        self._entries[key] = float(value)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def _statistics_locked(self) -> Dict[str, int]:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
        }


_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    fingerprint TEXT NOT NULL,
    source INTEGER NOT NULL,
    target INTEGER NOT NULL,
    samples INTEGER NOT NULL,
    seed TEXT NOT NULL,
    max_hops INTEGER NOT NULL,
    value REAL NOT NULL,
    touched INTEGER NOT NULL,
    PRIMARY KEY (fingerprint, source, target, samples, seed, max_hops)
)
"""

#: How long a connection waits on another process's write lock before
#: giving up (seconds).  Concurrent ``repro batch`` runs sharing a sidecar
#: serialise on SQLite's file lock; readers never block readers.
_SQLITE_TIMEOUT = 30.0


class PersistentResultCache(ResultCache):
    """A :class:`ResultCache` backed by a SQLite sidecar file.

    Layered lookup: the in-memory LRU first (free), then the sidecar (one
    indexed SELECT); disk hits are promoted into memory.  Result writes go
    through to both layers before ``put_many`` returns, so a crash after
    it loses nothing and concurrent processes see each other's
    results; only disk-hit *recency* is deferred (see below).

    Failure containment — the sidecar is an *accelerator*, never a
    correctness dependency:

    * a corrupted file is quarantined (renamed to ``*.corrupt``) and a
      fresh sidecar is created in its place;
    * if SQLite errors at runtime (disk full, file deleted underneath
      us, ...), persistence is disabled and the cache degrades to the
      plain in-memory LRU — estimates keep flowing;
    * a fingerprint mismatch is not an error at all: keys of a mutated
      (hence re-fingerprinted) graph simply never collide with stale
      rows, which age out via the disk LRU below.

    Eviction: rows carry a monotone ``touched`` tick, bumped on every write
    and disk hit; once the table exceeds :data:`DEFAULT_DISK_CAPACITY`
    the least-recently-touched rows are deleted.  A result served purely
    from the memory layer does not refresh its disk recency — keeping the
    hot path free of write traffic — so disk LRU order follows disk
    activity, which is what governs warm starts.  Disk-hit ticks are
    *batched*: they accumulate in memory and flush in one transaction
    every :data:`DEFAULT_TOUCH_FLUSH_EVERY` hits (and on every write,
    ``statistics()``, and ``close()`` — not on :meth:`counters`, which
    every served reply reads), so a read-heavy serving workload pays one
    fsync per batch instead of one per hit.  Pending ticks are
    always applied before eviction runs, so deferral never evicts a
    just-hit row.
    Seeds are stored as TEXT because engine seeds span the full unsigned
    64-bit range, which SQLite's signed INTEGER cannot hold.

    Thread safety: inherited — the base lock additionally guards the
    SQLite connection (opened with ``check_same_thread=False``), so HTTP
    handler threads and the main thread interleave statements safely.
    """

    def __init__(
        self, path: Union[str, Path], capacity: int = DEFAULT_CACHE_CAPACITY
    ) -> None:
        super().__init__(capacity)
        self.path = Path(path)
        self.disk_capacity = DEFAULT_DISK_CAPACITY
        self.touch_flush_every = DEFAULT_TOUCH_FLUSH_EVERY
        self.disk_hits = 0  # guarded-by: _lock
        self._tick = 0  # guarded-by: _lock
        #: Deferred disk-hit recency updates: key -> latest tick.  A dict
        #: (not a list) so a key hit twice between flushes costs one row.
        self._pending_touches: Dict[ResultKey, int] = {}  # guarded-by: _lock
        #: The sidecar's row count as this process wrote it, so neither
        #: eviction nor the per-reply report pays a full-table COUNT:
        #: counted at open, +1 per row an INSERT adds, minus each
        #: eviction's deleted rows.  Recounted by ``statistics()`` and
        #: whenever it crosses ``disk_capacity``, which also picks up
        #: rows other processes wrote.
        self._row_count = 0  # guarded-by: _lock
        self._connection: Optional[sqlite3.Connection] = None  # guarded-by: _lock
        self._open()

    # ------------------------------------------------------------------
    # Sidecar lifecycle
    # ------------------------------------------------------------------

    @property
    def disabled(self) -> bool:
        """Whether persistence has been turned off (memory LRU still works)."""
        return self._connection is None

    def _open(self) -> None:  # init-only
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._connection = self._connect()
        except sqlite3.Error:
            self._quarantine()
            try:
                self._connection = self._connect()
            except sqlite3.Error:
                self._connection = None

    def _connect(self) -> sqlite3.Connection:  # init-only
        # check_same_thread=False: the serving layer opens the cache on
        # the main thread and touches it from HTTP handler threads.
        # SQLite connections tolerate cross-thread use as long as calls
        # never overlap, which the cache's own lock now guarantees —
        # every statement runs inside a ``self._lock`` critical section.
        connection = sqlite3.connect(
            self.path, timeout=_SQLITE_TIMEOUT, check_same_thread=False
        )
        try:
            connection.execute(_SCHEMA)
            connection.commit()
            # Probe: a garbage file connects fine but fails its first
            # real statement with "file is not a database".
            row = connection.execute(
                "SELECT COALESCE(MAX(touched), 0) FROM results"
            ).fetchone()
            count = connection.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()
        except sqlite3.Error:
            connection.close()
            raise
        self._tick = int(row[0])
        self._row_count = int(count[0])
        return connection

    def _quarantine(self) -> None:
        """Move a corrupted sidecar aside so a fresh one can be created."""
        try:
            os.replace(self.path, self.path.with_suffix(".corrupt"))
        except OSError:
            pass

    def _disable_locked(self) -> None:
        """Stop touching the sidecar after a runtime failure."""
        if self._connection is not None:
            try:
                self._connection.close()
            except sqlite3.Error:
                pass
            self._connection = None
        self._pending_touches.clear()
        self._row_count = 0

    def close(self) -> None:
        """Flush deferred recency, then release the SQLite connection.

        Result rows themselves are already durable (every ``put_many``
        commits); only the batched ``touched`` ticks need the final flush.
        """
        with self._lock:
            self._flush_touches_locked(commit=True)
            self._disable_locked()

    # ------------------------------------------------------------------
    # Layered get / write-through put_many
    # ------------------------------------------------------------------

    def get(self, key: ResultKey) -> Optional[float]:
        """Memory first, then the sidecar; disk hits are promoted."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return value
            value = self._disk_get_locked(key)
            if value is not None:
                self.hits += 1
                self.disk_hits += 1
                self._put_locked(key, value)  # promote into memory only
                return value
            self.misses += 1
            return None

    def put_many(self, items: Iterable[Tuple[ResultKey, float]]) -> None:
        """Write a whole batch in one transaction (one fsync total)."""
        with self._lock:
            rows = []
            for key, value in items:
                self._put_locked(key, value)
                rows.append((key, float(value)))
            if rows:
                self._disk_put_locked(rows)

    def _disk_get_locked(self, key: ResultKey) -> Optional[float]:
        if self._connection is None:
            return None
        fingerprint, source, target, samples, seed, max_hops = key
        try:
            row = self._connection.execute(
                "SELECT value FROM results WHERE fingerprint = ? AND "
                "source = ? AND target = ? AND samples = ? AND seed = ? "
                "AND max_hops = ?",
                (fingerprint, source, target, samples, str(seed), max_hops),
            ).fetchone()
        except sqlite3.Error:
            self._disable_locked()
            return None
        if row is None:
            return None
        # Defer the recency write: record the tick now (ordering stays
        # exact), flush it with the next batch instead of paying an
        # UPDATE+commit on every disk hit.
        self._tick += 1
        self._pending_touches[key] = self._tick
        if len(self._pending_touches) >= self.touch_flush_every:
            self._flush_touches_locked(commit=True)
        return float(row[0])

    def _flush_touches_locked(self, commit: bool) -> None:
        """Apply deferred recency ticks (optionally committing)."""
        if self._connection is None or not self._pending_touches:
            self._pending_touches.clear()
            return
        rows = [
            (
                tick, fingerprint, source, target, samples, str(seed),
                max_hops,
            )
            for (
                fingerprint, source, target, samples, seed, max_hops
            ), tick in self._pending_touches.items()
        ]
        try:
            self._connection.executemany(
                "UPDATE results SET touched = ? WHERE fingerprint = ? AND "
                "source = ? AND target = ? AND samples = ? AND seed = ? "
                "AND max_hops = ?",
                rows,
            )
            if commit:
                self._connection.commit()
        except sqlite3.Error:
            self._disable_locked()
            return
        self._pending_touches.clear()

    def _disk_put_locked(
        self, rows: Iterable[Tuple[ResultKey, float]]
    ) -> None:
        """Insert ``rows`` and commit once (plus any deferred touches)."""
        if self._connection is None:
            return
        try:
            # Pending recency rides along in the same transaction: the
            # commit is being paid anyway, and eviction below must see
            # true recency before it picks victims.
            self._flush_touches_locked(commit=False)
            if self._connection is None:  # the flush hit an error
                return
            for key, value in rows:
                fingerprint, source, target, samples, seed, max_hops = key
                self._tick += 1
                where = (
                    fingerprint, source, target, samples, str(seed), max_hops,
                )
                # The insert's rowcount says whether the table grew; a
                # key already on disk is rewritten in place instead.
                if self._connection.execute(
                    "INSERT OR IGNORE INTO results VALUES (?, ?, ?, ?, ?, "
                    "?, ?, ?)",
                    (*where, value, self._tick),
                ).rowcount:
                    self._row_count += 1
                else:
                    self._connection.execute(
                        "UPDATE results SET value = ?, touched = ? WHERE "
                        "fingerprint = ? AND source = ? AND target = ? AND "
                        "samples = ? AND seed = ? AND max_hops = ?",
                        (value, self._tick, *where),
                    )
            if self._row_count > self.disk_capacity:
                overflow = self._recount_locked() - self.disk_capacity
                if self._connection is None:  # the COUNT hit an error
                    return
                if overflow > 0:
                    self._row_count -= self._connection.execute(
                        "DELETE FROM results WHERE rowid IN (SELECT rowid "
                        "FROM results ORDER BY touched ASC, rowid ASC "
                        "LIMIT ?)",
                        (overflow,),
                    ).rowcount
            self._connection.commit()
        except sqlite3.Error:
            self._disable_locked()

    def _recount_locked(self) -> int:
        """True sidecar row count (one COUNT; also resyncs ``_row_count``)."""
        if self._connection is None:
            return 0
        try:
            count = int(
                self._connection.execute("SELECT COUNT(*) FROM results")
                .fetchone()[0]
            )
        except sqlite3.Error:
            self._disable_locked()
            return 0
        self._row_count = count
        return count

    def counters(self) -> Dict[str, int]:
        """The :meth:`statistics` fields in O(1): no flush, no COUNT.

        Every served reply reads these.  ``disk_size`` is this process's
        exact row count, which in a single process equals the table's;
        rows another process wrote show up at the next
        :meth:`statistics`.
        """
        with self._lock:
            return self._counters_locked()

    def statistics(self) -> Dict[str, int]:
        """Base counters plus the sidecar's size, hits, and health.

        The operator's report (``/v1/stats``): it flushes pending
        recency, so cross-process recency cannot lag indefinitely on
        read-only workloads, and recounts the table, so ``disk_size``
        includes other processes' rows.
        """
        with self._lock:
            self._flush_touches_locked(commit=True)
            self._recount_locked()
            return self._counters_locked()

    def _counters_locked(self) -> Dict[str, int]:
        stats = self._statistics_locked()
        stats.update(
            {
                "disk_hits": self.disk_hits,
                "disk_size": self._row_count,
                "disk_capacity": self.disk_capacity,
                "persistent": not self.disabled,
            }
        )
        return stats


def open_result_cache(cache_dir: Union[str, Path]) -> PersistentResultCache:
    """Open (or create) the persistent result cache under ``cache_dir``.

    The directory is created if missing; the sidecar inside it is
    :data:`RESULT_CACHE_FILENAME`.  One directory can serve any number of
    graphs and seeds — the full key disambiguates.
    """
    return PersistentResultCache(Path(cache_dir) / RESULT_CACHE_FILENAME)


__all__ = [
    "DEFAULT_CACHE_CAPACITY",
    "DEFAULT_DISK_CAPACITY",
    "DEFAULT_TOUCH_FLUSH_EVERY",
    "RESULT_CACHE_FILENAME",
    "UNBOUNDED_HOPS",
    "ResultKey",
    "ResultCache",
    "PersistentResultCache",
    "graph_fingerprint",
    "open_result_cache",
    "result_key",
]
