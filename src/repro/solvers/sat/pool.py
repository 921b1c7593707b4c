"""A warm pool of incremental SAT solvers shared across related queries.

PR 3 measured ~5x from *within-sweep* incrementality: encode once,
sweep the cardinality bound through guard assumptions.  This module
extends the same idea *across queries*: the parts of an encoding that
depend only on the dataset (and the queried label) are built once into
a live :class:`~repro.solvers.sat.SATSolver`, and every subsequent
query against the same dataset version reuses that solver — learnt
clauses, VSIDS activities and phase saving intact — adding only its
small query-specific slice of clauses under a fresh activation guard.

Every key comes from :func:`pool_key`, ``(dataset version, kind, 1,
label, n)``.  The version is the caller's fingerprint — the serve layer
passes its versioned form (``<fp>@vN``), so a mutation invalidates
pooled solvers exactly like result-cache entries — else, when a pool is
given, the dataset's content hash, so a shared pool never mixes two
datasets under one key.  :meth:`SATSolverPool.invalidate` accepts
either the exact versioned fingerprint or a bare base fingerprint
(which matches every ``@vN`` of that lineage).

Correctness never depends on pooling: pooled solvers answer
*feasibility* questions (optimal bounds, lex-min witness probes), and
SAT/UNSAT verdicts are independent of learnt-clause or heuristic
state.  The portfolio therefore returns bit-identical answers on a warm
pooled solver or a throwaway one — the pool only changes how fast they
arrive.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

__all__ = ["PoolEntry", "SATSolverPool", "lease_or_build", "pool_key"]

PoolKey = tuple
"""Pool key: ``(dataset version, kind, 1, label, n)``, built by
:func:`pool_key`; the first element is the fingerprint string
:meth:`SATSolverPool.invalidate` matches."""

#: leases after which an entry is recycled, so accumulated learnt
#: clauses and query guards cannot grow without bound.
MAX_QUERIES = 512


@dataclass
class PoolEntry:
    """One pooled solver plus its encoding-specific shared state.

    ``state`` is owned by the encoding that built the entry (e.g. keep
    variables and twin caches for Minimum-SR, flip variables and bound
    guards for counterfactuals); the pool itself only tracks the lease
    lock and the per-entry query count used for recycling.
    """

    key: PoolKey
    solver: Any
    state: dict[str, Any]
    queries: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


class SATSolverPool:
    """LRU pool of warm incremental SAT solvers keyed by dataset version.

    Thread-safe: each entry carries its own lock, held for the duration
    of a :meth:`lease`; concurrent leases of *different* keys proceed in
    parallel.  ``max_entries`` bounds how many live solvers exist at
    once (least-recently-leased evicted first); an entry is recycled
    after :data:`MAX_QUERIES` leases.
    """

    def __init__(self, *, max_entries: int = 32) -> None:
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[PoolKey, PoolEntry] = OrderedDict()
        self._lock = threading.Lock()
        self._counters = {
            "hits": 0,
            "misses": 0,
            "recycled": 0,
            "evictions": 0,
            "invalidated": 0,
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @contextmanager
    def lease(
        self, key: PoolKey, build: Callable[[], tuple[Any, dict[str, Any]]]
    ) -> Iterator[PoolEntry]:
        """Borrow the warm solver for *key*, building it on a miss.

        ``build()`` must return ``(solver, state)``; it runs under the
        entry lock, so concurrent leases of the same key build exactly
        once.  The entry stays locked until the ``with`` block exits —
        callers may freely add query clauses and run solves inside.
        """
        if self.max_entries <= 0:
            solver, state = build()
            self._count("misses")
            yield PoolEntry(key=key, solver=solver, state=state, queries=1)
            return
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.queries >= MAX_QUERIES:
                # Recycled: the accumulated guards/learnts are dropped
                # and the next lease rebuilds from the dataset encoding.
                del self._entries[key]
                self._counters["recycled"] += 1
                entry = None
            if entry is None:
                self._counters["misses"] += 1
                entry = PoolEntry(key=key, solver=None, state={})
                self._entries[key] = entry
                self._evict_over_capacity(key)
            else:
                self._counters["hits"] += 1
            self._entries.move_to_end(key)
        with entry.lock:
            if entry.solver is None:
                entry.solver, entry.state = build()
            entry.queries += 1
            yield entry

    def _evict_over_capacity(self, leasing: PoolKey) -> None:
        # Caller holds self._lock.  Entries whose lease lock is held are
        # skipped: evicting them would pull a live solver out from under
        # a solve in progress.  So is the entry being leased, whose lock
        # is not taken yet.
        while len(self._entries) > self.max_entries:
            for key, entry in self._entries.items():
                if key != leasing and not entry.lock.locked():
                    del self._entries[key]
                    self._counters["evictions"] += 1
                    break
            else:  # every entry is mid-lease; let the pool run hot
                break

    def invalidate(self, fingerprint: str) -> int:
        """Drop every entry for *fingerprint*; returns how many.

        Accepts the exact (possibly versioned ``<fp>@vN``) fingerprint
        or a bare base fingerprint, which matches all of its versions —
        the same two shapes the serve result cache invalidates by.
        """
        with self._lock:
            doomed = [
                key
                for key in self._entries
                if key[0] == fingerprint or str(key[0]).startswith(fingerprint + "@")
            ]
            for key in doomed:
                del self._entries[key]
            self._counters["invalidated"] += len(doomed)
        return len(doomed)

    def keys(self) -> list[PoolKey]:
        """Current entry keys, least recently leased first."""
        with self._lock:
            return list(self._entries)

    def fingerprints(self) -> list[str]:
        """Dataset fingerprints with at least one pooled solver."""
        with self._lock:
            return sorted({str(key[0]) for key in self._entries})

    def clear(self) -> None:
        """Drop every entry without touching the counters."""
        with self._lock:
            self._entries.clear()

    def _count(self, name: str) -> None:
        with self._lock:
            self._counters[name] += 1

    def stats(self) -> dict[str, int]:
        """Lifetime counters plus the current entry count."""
        with self._lock:
            out = dict(self._counters)
            out["entries"] = len(self._entries)
            out["leases"] = out["hits"] + out["misses"]
            return out


@contextmanager
def lease_or_build(
    pool: SATSolverPool | None,
    key: PoolKey,
    build: Callable[[], tuple[Any, dict[str, Any]]],
) -> Iterator[PoolEntry]:
    """Lease *key* from *pool*, or build a throwaway entry when pool is None.

    Every SAT sweep and canonical walk runs through this, so a warm pool
    and no pool share one code path: with no pool the entry lives for a
    single ``with`` block and is discarded afterwards.
    """
    if pool is None:
        solver, state = build()
        yield PoolEntry(key=key, solver=solver, state=state, queries=1)
        return
    with pool.lease(key, build) as entry:
        yield entry


def pool_key(
    dataset, kind: str, label: int, pool: SATSolverPool | None, fingerprint: str | None
) -> PoolKey:
    """The key of *dataset*'s k = 1 *kind* encoding for *label*.

    Returns ``(version, kind, 1, label, n)``.  The version is
    *fingerprint* when the caller names one; else, when a *pool* is
    given, the dataset's content hash.  A throwaway entry (no pool) is
    never looked up, so it skips the hash.
    """
    if fingerprint is None and pool is not None:
        from ...serve.cache import dataset_fingerprint  # local: solvers/ sits below serve/

        fingerprint = dataset_fingerprint(dataset)
    return (fingerprint or "", kind, 1, label, dataset.dimension)
