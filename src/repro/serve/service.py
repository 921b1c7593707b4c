"""The long-lived explanation service: shared engines, batching, caching.

:class:`ExplanationService` is the serving layer the ROADMAP's
"millions of users" north star asks for.  A process holds **one**
service; the service holds, per registered dataset fingerprint, the
dataset and one warm :class:`~repro.knn.QueryEngine` per metric, so no
request ever pays index construction or dataset validation again.  On
top of that it adds:

* **micro-batching** — :meth:`ExplanationService.submit_many` (and the
  asyncio path, :meth:`ExplanationService.asubmit`) groups compatible
  requests (same dataset, method and params) and answers the batchable
  methods — ``classify``, ``margin``, ``radii`` — through the engine's
  vectorized paths (:meth:`~repro.knn.QueryEngine.classify_batch`,
  :meth:`~repro.knn.QueryEngine.margins_batch`,
  :meth:`~repro.knn.QueryEngine.radii_batch`), one kernel call per
  group instead of one per request;
* **result caching** — every answer is memoized in a
  :class:`~repro.serve.cache.ResultCache` keyed by
  ``(dataset fingerprint, instance bytes, method, params)``, so
  identical requests are served from memory (optionally disk) without
  re-solving; a cache hit returns a payload bit-identical to the cold
  solve that produced it (the deterministic part of the payload — see
  :data:`PROVENANCE_KEY`);
* **provenance** — portfolio-solved requests echo the
  :class:`~repro.portfolio.PortfolioResult` race record (which method
  won, per-attempt status and timing) under the payload's
  ``"provenance"`` key;
* **streaming mutation** — :meth:`ExplanationService.add_points` /
  :meth:`ExplanationService.remove_points` mutate a registered dataset
  *in place*: every warm engine absorbs the batch incrementally, the
  dataset's version (``<fp>@vN``) is bumped, and only the superseded
  version's cache entries are invalidated.  Requests pin the version
  current when they were constructed, group solves hold the engine
  lock for their whole batch (no torn batches), and a batch overtaken
  by a mutation re-pins to the current version rather than answering
  from dead data;
* **durability & observability** — with a ``state_dir``, every
  registration and mutation batch is WAL-logged (fsync'd *before* the
  version bump) and periodically snapshotted by a
  :class:`~repro.serve.durability.DurableStore`, and the service
  restores all of it on construction; :meth:`ExplanationService.
  metrics_text` renders the Prometheus ``/metrics`` page and a
  :class:`~repro.serve.metrics.StructuredLogger` emits one JSON record
  per served event (see ``docs/operations.md`` / ``docs/metrics.md``).

The solver methods — ``minimal_sr``, ``minimum_sr``,
``counterfactual`` — are not batchable (each is its own NP-hard solve),
but they share the warm engine and the result cache with everything
else, which is where a serving process beats one-shot CLI calls.
"""

from __future__ import annotations

import asyncio
import math
import numbers
import pickle
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Sequence

import numpy as np

from .._validation import as_vector, check_odd_k
from ..exceptions import (
    DurabilityError,
    ReproError,
    UnknownDatasetError,
    ValidationError,
)
from ..knn import Dataset, MultiClassDataset, MultiClassEngine, QueryEngine
from ..knn.multiclass_engine import VOTES
from ..metrics import default_metric_name, get_metric
from ..solvers.race import ProcessRacer
from ..solvers.sat.pool import SATSolverPool
from .cache import (
    ResultCache,
    dataset_fingerprint,
    request_key,
    split_fingerprint,
    versioned_fingerprint,
)
from .durability import DurableStore
from .errors import error_payload
from .metrics import MetricsRegistry, StructuredLogger, render_states

#: methods answered through the engine's vectorized batch paths.
BATCH_METHODS = ("classify", "margin", "radii")

#: per-instance solver methods (cached and engine-sharing, not batchable).
SOLVER_METHODS = ("minimal_sr", "minimum_sr", "counterfactual")

#: every method the service accepts.
METHODS = BATCH_METHODS + SOLVER_METHODS

#: payload key holding race/timing metadata; everything *outside* this
#: key is a deterministic function of (dataset, instance, method, params).
PROVENANCE_KEY = "provenance"

#: bucket bounds of the ``repro_batch_occupancy`` histogram (requests
#: per solved group — batching efficiency, not latency).
OCCUPANCY_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)


@dataclass(frozen=True, eq=False)
class ExplanationRequest:
    """One normalized explanation request (build via ``make_request``).

    ``params`` is the canonical parameter dict (defaults filled in,
    metric resolved), and ``key`` the resulting cache key — two
    requests are interchangeable iff their keys are equal.
    """

    fingerprint: str
    method: str
    instance: np.ndarray
    params: dict
    key: bytes


@dataclass(frozen=True, eq=False)
class ExplanationResponse:
    """An answered request: JSON-ready payload plus serving metadata.

    ``payload`` carries either the method's answer or an ``"error"``
    envelope (execution failures are reported in-band so one bad
    request cannot poison a batch).  ``cached`` tells whether
    the answer came from the result cache; ``elapsed_s`` is the serving
    time of this response (near zero for hits).
    """

    request: ExplanationRequest
    payload: dict
    cached: bool
    elapsed_s: float

    @property
    def ok(self) -> bool:
        """True when the payload is an answer, not an in-band error."""
        return "error" not in self.payload


class _Lineage:
    """One registered dataset lineage: its ``@vN`` version and its contents.

    The contents are the registered (or restored) :attr:`dataset` until
    the lineage's first engine is built.  From then on they live in that
    engine's labeled store (:attr:`engine`), which every mutation updates
    in place, and :meth:`contents` materializes them lazily.  The shape
    facts a request needs are plain attributes, so reading them
    materializes nothing.
    """

    __slots__ = ("version", "dataset", "engine", "multiclass", "dimension", "discrete")

    def __init__(self, dataset, version: int = 0):
        self.version = version
        self.dataset = dataset
        self.engine = None
        self.multiclass = isinstance(dataset, MultiClassDataset)
        self.dimension = dataset.dimension
        self.discrete = bool(dataset.discrete)

    @property
    def classes(self) -> tuple:
        """A multiclass lineage's current labels, ascending."""
        return (self.dataset if self.engine is None else self.engine).classes

    def contents(self):
        """The current contents as an immutable dataset (materialized lazily)."""
        return self.dataset if self.engine is None else self.engine.dataset

    def counts(self) -> dict:
        """JSON-ready shape counts of the current contents (nothing materialized)."""
        if self.engine is not None:
            sizes = self.engine.class_sizes
        elif self.multiclass:
            sizes = self.dataset.counts
        else:
            sizes = {True: self.dataset.n_positive, False: self.dataset.n_negative}
        return _counts_payload(self.multiclass, sizes)


class ExplanationService:
    """Batched, cached serving front end over every explanation pipeline.

    Parameters
    ----------
    backend:
        :class:`~repro.knn.QueryEngine` index backend for every engine
        the service builds (default ``"auto"``).
    cache_size:
        memory entries of the result cache (0 disables caching).
    cache_dir:
        optional directory for persisted cache entries (entries survive
        process restarts; see :class:`~repro.serve.cache.ResultCache`).
    max_batch:
        largest query block stacked into one vectorized engine call.
    max_wait_s:
        how long the asyncio path lets concurrent requests accumulate
        before flushing a micro-batch (the batching window).
    state_dir:
        optional durability root.  When set, the service keeps a
        :class:`~repro.serve.durability.DurableStore` there: every
        registration and applied mutation batch is WAL-logged (fsync'd
        *before* the version bump) and the service **restores** every
        recoverable lineage from that directory on construction —
        datasets, ``@vN`` versions, and (when the newest snapshot is
        current) warm engines all survive a crash or restart.
    snapshot_every:
        mutations between dataset(+engine) snapshots per lineage
        (``0`` disables snapshots; the WAL alone still restores).
    log_stream:
        optional writable stream for structured JSON logs (one object
        per line; ``None`` — the library default — logs nothing).
    solver_pool:
        max entries of the warm cross-query SAT solver pool used by the
        portfolio solver (``0`` disables pooling).  Pool entries are
        keyed by versioned ``@vN`` fingerprint, so streaming mutations
        invalidate pooled solvers exactly like result-cache entries.
    parallel_portfolio:
        when True, ``solver="portfolio"`` requests race their exact
        methods concurrently in a process pool
        (:class:`~repro.solvers.race.ProcessRacer`, spawned eagerly in
        the constructor, before any serving thread exists) instead of
        sequentially.  Answers are bit-identical either way — the
        portfolio always returns the canonical witness.  Single-process
        only: a cluster worker is daemonic and cannot fork race workers.
    race_workers:
        worker processes of the parallel-portfolio racer (default
        ``min(3, cpu_count)``); ignored unless *parallel_portfolio*.
    """

    def __init__(
        self,
        *,
        backend: str = "auto",
        cache_size: int = 2048,
        cache_dir=None,
        max_batch: int = 256,
        max_wait_s: float = 0.002,
        state_dir=None,
        snapshot_every: int = 64,
        log_stream=None,
        solver_pool: int = 32,
        parallel_portfolio: bool = False,
        race_workers: int | None = None,
    ):
        self.backend = backend
        self.cache = ResultCache(cache_size, cache_dir)
        self.max_batch = max(1, int(max_batch))
        self.max_wait_s = max(0.0, float(max_wait_s))
        self._lineages: dict[str, _Lineage] = {}
        self._engines: dict[tuple[str, str], QueryEngine | MultiClassEngine] = {}
        self._engine_locks: dict[tuple[str, str], threading.Lock] = {}
        self._mutation_locks: dict[str, threading.Lock] = {}
        self._lock = threading.RLock()
        self._pending: list[tuple[ExplanationRequest, asyncio.Future]] = []
        self._flush_task: asyncio.Task | None = None
        self._requests = 0
        self._batches = 0
        self._batched_requests = 0
        self._largest_batch = 0
        self._mutations = 0
        self.solver_pool = (
            SATSolverPool(max_entries=int(solver_pool)) if solver_pool else None
        )
        self.parallel_portfolio = bool(parallel_portfolio)
        # The racer forks eagerly, before any serving thread exists
        # (fork-after-threads is the classic deadlock); with the flag off
        # no processes are spawned at all.
        self.racer = (
            ProcessRacer(max_workers=race_workers) if self.parallel_portfolio else None
        )
        self._portfolio = {
            "races": 0,
            "parallel": 0,
            "sequential": 0,
            "canonical": 0,
            "fallback_witness": 0,
            "anytime": 0,
        }
        self._portfolio_attempts: dict[str, int] = {}
        self.log = StructuredLogger(log_stream, component="service")
        self.metrics = MetricsRegistry()
        self._latency_hist = self.metrics.histogram(
            "repro_request_latency_seconds",
            "Serving latency of one solved request group, split by class "
            "(batch = vectorized engine call, solver = per-instance NP solve).",
            ("class",),
        )
        self._occupancy_hist = self.metrics.histogram(
            "repro_batch_occupancy",
            "Requests per solved group (micro-batching efficiency).",
            buckets=OCCUPANCY_BUCKETS,
        )
        self.durability: DurableStore | None = None
        self.restored: dict = {}
        if state_dir is not None:
            self.durability = DurableStore(
                state_dir,
                snapshot_every=snapshot_every,
                metrics=self.metrics,
                logger=self.log.child("durability"),
            )
            self._restore_state()

    # -- durability ------------------------------------------------------

    def _restore_state(self) -> None:
        """Adopt every recoverable lineage from the durability root.

        Runs once, from the constructor, before the service takes any
        traffic: restored datasets and their ``@vN`` versions enter the
        registry exactly as they were acknowledged pre-crash (the WAL
        fsync-before-bump ordering guarantees every acknowledged version
        is on disk), and warm engines ride along when the newest
        snapshot captured the final restored version.  Unrecoverable
        lineages are logged and skipped — boot never fails on damaged
        state.  ``self.restored`` keeps the per-lineage outcome summary
        surfaced by :meth:`stats`.
        """
        for base, lineage in self.durability.restore_all().items():
            self.restored[base[:16]] = {
                "version": lineage.version,
                "replayed": lineage.replayed,
                "recovered": lineage.dataset is not None,
                "truncated": lineage.truncated,
            }
            if lineage.dataset is None:
                continue
            entry = _Lineage(lineage.dataset, lineage.version)
            with self._lock:
                self._lineages[base] = entry
                for metric, engine in sorted(lineage.engines.items()):
                    self._engines[(base, metric)] = engine
                    self._engine_locks.setdefault((base, metric), threading.Lock())
                    if entry.engine is None:
                        entry.engine, entry.dataset = engine, None

    def _engine_blobs(self, base: str, engines: dict) -> dict:
        """Pickle the lineage's warm *engines* (metric → engine) for a snapshot.

        Called while the caller holds every engine lock of *base* (so no
        solve or mutation races the serialization).  Engines that refuse
        to pickle are skipped with a structured warning — a snapshot
        without engines still restores, just cold.
        """
        blobs: dict[str, bytes] = {}
        for metric, engine in engines.items():
            try:
                blobs[metric] = pickle.dumps(engine)
            except Exception as exc:
                self.log.log(
                    "engine_snapshot_skipped", level="warning",
                    base=base[:16], metric=metric, error=str(exc),
                )
        return blobs

    # -- dataset registry ------------------------------------------------

    def add_dataset(self, dataset: Dataset | MultiClassDataset) -> str:
        """Register *dataset* and return its fingerprint (idempotent).

        Accepts a binary :class:`~repro.knn.Dataset` or an
        integer-labeled :class:`~repro.knn.MultiClassDataset` — the two
        kinds share the registry, the mutation lifecycle and the cache
        machinery, differing only in which engine answers their queries.
        Re-registering bit-identical data returns the same fingerprint
        and keeps the warm engines; different data gets a different
        fingerprint, so answers can never leak across dataset versions.
        The returned content hash stays the dataset's stable *base*
        identity across streaming mutations — those bump a ``@vN``
        version suffix instead of re-hashing (see :meth:`add_points`).
        """
        fingerprint = dataset_fingerprint(dataset)
        if self.durability is not None:
            # Durable *before* visible: a crash right after this call
            # must restore the registration (idempotent when the
            # lineage already has a WAL — including via restore).
            self.durability.register(fingerprint, dataset)
        with self._lock:
            if fingerprint not in self._lineages:
                self._lineages[fingerprint] = _Lineage(dataset)
        return fingerprint

    def _resolve(self, fingerprint: str) -> tuple[str, str, _Lineage]:
        """``(base, current versioned fingerprint, lineage)`` for a client handle.

        A bare fingerprint always addresses the current version; a
        versioned one must *match* the current version — a superseded
        pin is rejected (its cache entries are gone and its data no
        longer exists), which is how stale in-flight clients learn the
        dataset moved on.
        """
        base, version = split_fingerprint(fingerprint)
        with self._lock:
            lineage = self._lineages.get(base)
            if lineage is None:
                raise UnknownDatasetError(
                    f"unknown dataset fingerprint {base[:16]!r}...; "
                    "register the dataset first (add_dataset / POST /v2/datasets)"
                )
            current = lineage.version
        if "@" in fingerprint and version != current:
            raise ValidationError(
                f"dataset version v{version} was superseded (current: v{current}); "
                "re-issue the request against the current fingerprint"
            )
        return base, versioned_fingerprint(base, current), lineage

    @contextmanager
    def _settled(self, base: str):
        """Hold *base* still: no mutation or engine build runs until exit.

        Takes the lineage's mutation lock and, once an engine holds the
        contents, that engine's lock too — solvers materialize its
        dataset under it — so the yielded lineage's contents, counts
        and version all read one state.
        """
        with self._mutation_lock(base):
            with self._lock:
                lineage = self._lineages.get(base)
            if lineage is None:  # removed while we waited on the lock
                raise UnknownDatasetError(
                    f"unknown dataset fingerprint {base[:16]!r}...; it was removed"
                )
            if lineage.engine is None:
                yield lineage
            else:
                with self._engine_lock(base, lineage.engine.metric.name):
                    yield lineage

    def dataset(self, fingerprint: str) -> Dataset:
        """The registered dataset behind *fingerprint* (raises if unknown).

        Accepts bare or (current) versioned fingerprints and returns the
        dataset's *current* contents, materialized from the engine's
        store when a mutation changed them since the last call.
        """
        base, _, _ = self._resolve(fingerprint)
        with self._settled(base) as lineage:
            return lineage.contents()

    def add_points(self, fingerprint: str, points, labels, multiplicities=None) -> dict:
        """Insert labeled points into a registered dataset, in place.

        Every warm engine of the dataset absorbs the batch incrementally
        (:meth:`QueryEngine.add_points <repro.knn.engine.QueryEngine.
        add_points>`), the version is bumped, and only the superseded
        version's cache entries are invalidated — other datasets and
        other versions are untouched.  Returns ``{"fingerprint",
        "version", "invalidated"}`` plus the dataset's shape counts
        (``n_positive``/``n_negative`` for binary lineages,
        ``classes``/``counts`` for multiclass ones) with the new
        versioned fingerprint.
        """
        return self._mutate(fingerprint, "add", points, labels, multiplicities)

    def remove_points(self, fingerprint: str, points, labels, multiplicities=None) -> dict:
        """Remove labeled points from a registered dataset, in place.

        The mirror of :meth:`add_points`; validation (absent points,
        insufficient multiplicity, emptying the dataset) raises before
        any engine is touched.
        """
        return self._mutate(fingerprint, "remove", points, labels, multiplicities)

    def _mutate(self, fingerprint: str, op: str, points, labels, multiplicities) -> dict:
        """Shared add/remove path: O(batch) work on the engines' stores.

        The lineage's contents live in its engines' labeled stores, so a
        lineage without an engine first builds the default-metric one
        its first query would build.  The batch is validated against
        every engine before any changes, logged to the WAL, applied to
        each engine and the version bumped — all under the lineage's
        mutation lock and every engine lock.
        """
        base, _, _ = self._resolve(fingerprint)
        with self._mutation_lock(base):
            with self._lock:
                lineage = self._lineages.get(base)
            if lineage is None:  # removed while we waited on the lock
                raise UnknownDatasetError(
                    f"unknown dataset fingerprint {base[:16]!r}...; it was removed"
                )
            if lineage.engine is None:
                self._build_engine(base, lineage, self._metric_name(lineage, None))
            with self._lock:
                engines = {
                    key[1]: engine for key, engine in sorted(self._engines.items())
                    if key[0] == base
                }
            locks = [self._engine_lock(base, metric) for metric in engines]
            for lock in locks:
                lock.acquire()
            try:
                # In-flight batches hold their engine's lock for the whole
                # group (solve + cache write), so they complete against the
                # version they started on; everything arriving after this
                # block re-resolves to the bumped version.  Validate against
                # every engine before applying to any: backend-specific
                # constraints (a bitpack engine rejecting non-binary rows)
                # must refuse the whole batch up front, never leave some
                # engines mutated and others not.
                for engine in engines.values():
                    batch = engine.check_mutation(points, labels, multiplicities, op=op)
                # WAL point: the batch passed every validation, so it
                # *will* apply — make it durable (fsync'd) before any
                # engine or the version is touched.  A DurabilityError
                # here aborts the mutation with all state untouched.
                version = lineage.version + 1
                if self.durability is not None:
                    self.durability.append_mutation(base, version, op, *batch)
                for engine in engines.values():
                    getattr(engine, f"{op}_points")(*batch)
                with self._lock:
                    lineage.version = version
                    self._mutations += 1
                counts = lineage.counts()
                # Pickle warm engines and materialize the contents for a
                # due snapshot while we still hold every engine lock (no
                # solve can race the serialization).
                snapshot = None
                if self.durability is not None and self.durability.snapshot_due(version):
                    blobs = self._engine_blobs(base, engines)
                    snapshot = (lineage.contents(), blobs)
            finally:
                for lock in locks:
                    lock.release()
            if snapshot is not None:
                try:
                    self.durability.snapshot(base, snapshot[0], version, snapshot[1])
                except DurabilityError as exc:
                    # Snapshot failure is not fatal: the WAL already
                    # covers every acknowledged version.
                    self.log.log(
                        "snapshot_failed", level="warning",
                        base=base[:16], version=version, error=str(exc),
                    )
            # The superseded version's sweep can touch disk (persisted
            # entries); run it after the engine locks are down so query
            # traffic is never stalled behind filesystem I/O.  No group
            # can still write old-version entries: every group that
            # started before the bump completed while we held its lock.
            removed = self.cache.invalidate(versioned_fingerprint(base, version - 1))
            if self.solver_pool is not None:
                # Pooled solvers encode the superseded version's dataset;
                # sweep them under the same versioned fingerprint as the
                # result cache so warm state can never outlive its data.
                self.solver_pool.invalidate(versioned_fingerprint(base, version - 1))
        if self.log.enabled:
            self.log.log(
                "mutation_applied", base=base[:16], op=op,
                version=version, batch=int(batch[0].shape[0]),
                invalidated=removed,
            )
        return {
            "fingerprint": versioned_fingerprint(base, version),
            "version": version,
            "invalidated": removed,
            **counts,
        }

    def remove_dataset(self, fingerprint: str) -> int:
        """Drop a dataset, its warm engines, and every cached answer.

        Returns the number of cache entries invalidated.  A bare (or
        current-version) fingerprint removes the whole dataset, every
        engine, and every version's cache entries; a *superseded*
        versioned fingerprint only sweeps that stale version's cache
        entries and keeps the live dataset — the scoped variant a
        client uses to garbage-collect a version it pinned.
        """
        base, version = split_fingerprint(fingerprint)
        with self._lock:
            lineage = self._lineages.get(base)
        if lineage is not None and "@" in fingerprint and version != lineage.version:
            if self.solver_pool is not None:
                self.solver_pool.invalidate(fingerprint)
            return self.cache.invalidate(fingerprint)
        # Serialize with streaming mutations: an in-flight _mutate must
        # finish (or see the dataset gone and refuse) before the registry
        # is torn down — never resurrect a deleted dataset.  The mutation
        # lock entry itself is kept: waiters blocked on this object
        # re-check registration after acquiring it.
        with self._mutation_lock(base):
            with self._lock:
                self._lineages.pop(base, None)
                for key in [k for k in self._engines if k[0] == base]:
                    del self._engines[key]
                    self._engine_locks.pop(key, None)
            if self.durability is not None:
                # Under the mutation lock, so no concurrent mutation can
                # append to the lineage while its directory is removed.
                self.durability.retire(base)
        if self.solver_pool is not None:
            self.solver_pool.invalidate(base)
        return self.cache.invalidate(base)

    def invalidate(self, fingerprint: str) -> int:
        """Drop cached answers for *fingerprint*, keeping the dataset."""
        return self.cache.invalidate(fingerprint)

    def fingerprints(self) -> list[str]:
        """Current versioned fingerprints of every registered dataset."""
        with self._lock:
            return [
                versioned_fingerprint(base, lineage.version)
                for base, lineage in self._lineages.items()
            ]

    def describe(self, fingerprint: str) -> dict:
        """JSON-ready metadata of a registered dataset (``GET /v2/datasets/{fp}``).

        Returns the *current* versioned fingerprint plus shape facts:
        ``{"fingerprint", "version", "kind", "dimension", "discrete"}``
        and the kind-specific counts — ``n_positive``/``n_negative``
        for a binary lineage, ``classes``/``counts`` for a multiclass
        one.  Raises
        :class:`~repro.exceptions.UnknownDatasetError` for fingerprints
        the service has never seen.
        """
        base, _, _ = self._resolve(fingerprint)
        with self._settled(base) as lineage:
            version, counts = lineage.version, lineage.counts()
        return {
            "fingerprint": versioned_fingerprint(base, version),
            "version": version,
            "kind": "multiclass" if lineage.multiclass else "binary",
            "dimension": lineage.dimension,
            "discrete": lineage.discrete,
            **counts,
        }

    def engine(self, fingerprint: str, metric=None) -> QueryEngine | MultiClassEngine:
        """The warm shared engine for ``(fingerprint, metric)``.

        Built on first use with the service's backend and reused (and
        mutated in place by :meth:`add_points` / :meth:`remove_points`)
        by every subsequent request — this is the construction cost a
        long-lived service amortizes away.  Binary lineages get a
        :class:`~repro.knn.QueryEngine`, multiclass ones a
        :class:`~repro.knn.MultiClassEngine` (one shared joint index —
        never a per-class copy).
        """
        base, _, lineage = self._resolve(fingerprint)
        name = self._metric_name(lineage, metric)
        with self._lock:
            engine = self._engines.get((base, name))
        if engine is not None:
            return engine
        # First use: build under the dataset's mutation lock, so a
        # streaming mutation cannot slip between the contents read and
        # the registration — such an engine would be born one version
        # stale and never catch up.
        with self._mutation_lock(base):
            with self._lock:
                engine = self._engines.get((base, name))
                lineage = self._lineages.get(base)
            if engine is not None:
                return engine
            if lineage is None:  # removed while we waited on the lock
                raise UnknownDatasetError(
                    f"unknown dataset fingerprint {base[:16]!r}...; it was removed"
                )
            return self._build_engine(base, lineage, name)

    def _build_engine(self, base: str, lineage: _Lineage, name: str):
        """Build and register *base*'s engine for metric *name*.

        The caller holds the lineage's mutation lock.  The first engine
        is built from the registered dataset and takes over the
        contents; a later one from the contents materialized under the
        first engine's lock.  No caller may hold an engine lock here.
        """
        if lineage.engine is None:
            data = lineage.dataset
        else:
            with self._engine_lock(base, lineage.engine.metric.name):
                data = lineage.engine.dataset
        engine_cls = MultiClassEngine if lineage.multiclass else QueryEngine
        engine = engine_cls(data, name, backend=self.backend)
        with self._lock:
            self._engines[(base, name)] = engine
            # setdefault: a group solve may already hold a lock created
            # for this key — never swap the object out from under it.
            self._engine_locks.setdefault((base, name), threading.Lock())
            if lineage.engine is None:
                lineage.engine, lineage.dataset = engine, None
        return engine

    def _engine_lock(self, fingerprint: str, metric_name: str) -> threading.Lock:
        """The mutex serializing work over one ``(dataset, metric)`` engine.

        Queries still change an engine's lazy index state (a KD-tree
        rebuilds past its staleness threshold, IVF counters advance);
        batch groups must not interleave with a streaming mutation (a
        half-mutated engine would tear the batch); and mutations take
        every engine lock of the dataset before bumping the version.
        All three funnel through this lock.
        """
        with self._lock:
            return self._engine_locks.setdefault(
                (fingerprint, metric_name), threading.Lock()
            )

    def _mutation_lock(self, base: str) -> threading.Lock:
        """The per-dataset lock serializing streaming mutations."""
        with self._lock:
            return self._mutation_locks.setdefault(base, threading.Lock())

    @staticmethod
    def _metric_name(lineage: _Lineage, metric) -> str:
        """Resolve a request's metric (default: Hamming iff discrete)."""
        if metric is None:
            metric = default_metric_name(lineage.discrete)
        return get_metric(metric).name

    # -- request construction --------------------------------------------

    def make_request(
        self, fingerprint: str, method: str, instance, **params
    ) -> ExplanationRequest:
        """Validate and normalize one request into canonical form.

        Fills parameter defaults and resolves the metric so that
        equivalent requests produce equal cache keys; raises
        :class:`~repro.exceptions.ValidationError` on unknown methods,
        unknown params, or a dimension mismatch.  The request *pins the
        dataset version current at construction time* — its fingerprint
        and cache key carry the ``@vN`` suffix, so a mutation landing
        later can never serve it a stale cache hit (the superseded
        version's entries are invalidated wholesale).
        """
        _, current, lineage = self._resolve(fingerprint)
        if method not in METHODS:
            raise ValidationError(
                f"unknown method {method!r}; choose from {'|'.join(METHODS)}"
            )
        xv = as_vector(instance, name="instance")
        if xv.shape[0] != lineage.dimension:
            raise ValidationError(
                f"instance has dimension {xv.shape[0]}, "
                f"dataset has {lineage.dimension}"
            )
        xv = np.ascontiguousarray(xv)
        xv.setflags(write=False)
        norm = self._normalize_params(lineage, method, dict(params))
        key = request_key(current, method, xv, norm)
        return ExplanationRequest(current, method, xv, norm, key)

    def _normalize_params(self, lineage: _Lineage, method: str, params: dict) -> dict:
        """Canonical parameter dict for *method* (defaults made explicit).

        ``classify`` accepts ``vote`` (``uniform`` | ``distance``) on
        every dataset kind.  Multiclass lineages additionally accept
        ``target_label`` on ``margin``, ``radii`` and the solver
        methods — the one-vs-rest label the answer is scoped to
        (omitted: per-class payloads for margin/radii, the predicted
        label for solvers) — and restrict solver methods to ``k = 1``,
        the regime where the paper's merge reduction is exact.
        """
        multiclass = lineage.multiclass
        out = {
            "k": check_odd_k(params.pop("k", 1)),
            "metric": self._metric_name(lineage, params.pop("metric", None)),
        }
        if method == "classify":
            vote = str(params.pop("vote", "uniform"))
            if vote not in VOTES:
                raise ValidationError(
                    f"vote must be one of {'|'.join(VOTES)}, got {vote!r}"
                )
            out["vote"] = vote
        if multiclass and method in ("margin", "radii") + SOLVER_METHODS:
            target = params.pop("target_label", None)
            if target is not None:
                target = int(target)
                classes = lineage.classes
                if target not in classes:
                    raise ValidationError(
                        f"unknown target_label {target}; dataset classes are "
                        f"{[int(c) for c in classes]}"
                    )
            out["target_label"] = target
        if multiclass and method in SOLVER_METHODS and out["k"] != 1:
            raise ValidationError(
                "multiclass explanations require k=1 (the paper's merge "
                "reduction is exact only there); got k="
                f"{out['k']}"
            )
        if method in ("minimum_sr", "counterfactual"):
            out["solver"] = str(params.pop("solver", "auto"))
            out["budget"] = _budget_seconds(params.pop("budget", None))
        if params:
            raise ValidationError(
                f"unknown params for method {method!r}: {sorted(params)}"
            )
        return out

    # -- synchronous serving ---------------------------------------------

    def submit(self, fingerprint: str, method: str, instance, **params):
        """Serve one request (cache → solve); returns an ExplanationResponse."""
        return self.submit_requests(
            [self.make_request(fingerprint, method, instance, **params)]
        )[0]

    def explain(
        self, fingerprint: str, method: str, instances: Sequence,
        params: dict | None = None, request_id: str | None = None,
    ) -> list[dict]:
        """Serve a homogeneous instance batch as JSON-ready wire dicts.

        This is the ``/v2/explain`` envelope's programmatic twin — one
        ``(fingerprint, method, params)`` triple applied to a list of
        *instances* — and the call surface the cluster front scatters to
        workers (:class:`~repro.serve.cluster.ClusterService` exposes
        the same signature).  Validation errors raise; execution
        failures stay in-band per instance.  Returns one
        ``{"result", "cached", "elapsed_ms"}`` dict per instance, in
        order.  ``request_id`` is the provenance id threaded down from
        the HTTP front (stamped on the response as ``X-Request-ID``) —
        this layer's structured ``explain_served`` record carries it, so
        one grep reconstructs the request's path across processes.
        """
        params = dict(params or {})
        start = perf_counter()
        requests = [
            self.make_request(fingerprint, method, instance, **params)
            for instance in instances
        ]
        responses = self.submit_requests(requests)
        if self.log.enabled:
            self.log.log(
                "explain_served",
                request_id=request_id,
                base=split_fingerprint(fingerprint)[0][:16],
                method=method,
                instances=len(responses),
                cached=sum(1 for r in responses if r.cached),
                errors=sum(1 for r in responses if not r.ok),
                elapsed_ms=round((perf_counter() - start) * 1000.0, 3),
            )
        return [
            {
                "result": response.payload,
                "cached": response.cached,
                "elapsed_ms": response.elapsed_s * 1000.0,
            }
            for response in responses
        ]

    def submit_many(self, requests: Sequence) -> list[ExplanationResponse]:
        """Serve a batch of requests, micro-batching compatible ones.

        Accepts :class:`ExplanationRequest` objects or ``(fingerprint,
        method, instance)`` / ``(fingerprint, method, instance, params)``
        tuples.  Responses come back in request order.
        """
        normalized = []
        for req in requests:
            if isinstance(req, ExplanationRequest):
                normalized.append(req)
            else:
                fingerprint, method, instance, *rest = req
                params = rest[0] if rest else {}
                normalized.append(
                    self.make_request(fingerprint, method, instance, **params)
                )
        return self.submit_requests(normalized)

    def submit_requests(
        self, requests: Sequence[ExplanationRequest]
    ) -> list[ExplanationResponse]:
        """Serve normalized requests: cache hits, then grouped cold solves.

        Cold requests are grouped by ``(fingerprint, method, params)``;
        each batchable group runs through one vectorized engine call per
        ``max_batch`` block, duplicate keys within the batch are solved
        once, and every produced answer lands in the cache before the
        responses are assembled in request order.
        """
        start = perf_counter()
        with self._lock:
            self._requests += len(requests)
        answered: dict[int, ExplanationResponse] = {}
        cold: dict[bytes, list[int]] = {}
        for i, req in enumerate(requests):
            found, payload = self.cache.get(req.key)
            if found:
                answered[i] = ExplanationResponse(
                    req, payload, cached=True, elapsed_s=perf_counter() - start
                )
            else:
                cold.setdefault(req.key, []).append(i)
        groups: dict[tuple, list[bytes]] = {}
        for key, indices in cold.items():
            req = requests[indices[0]]
            group_id = (req.fingerprint, req.method, tuple(sorted(req.params.items())))
            groups.setdefault(group_id, []).append(key)
        for (fingerprint, method, _), keys in groups.items():
            reqs = [requests[cold[key][0]] for key in keys]
            params = reqs[0].params
            group_start = perf_counter()
            solved_keys, payloads = self._serve_group(fingerprint, method, params, reqs)
            self._latency_hist.observe(
                perf_counter() - group_start,
                **{"class": "batch" if method in BATCH_METHODS else "solver"},
            )
            self._occupancy_hist.observe(float(len(reqs)))
            with self._lock:
                self._batches += 1
                self._batched_requests += len(reqs)
                self._largest_batch = max(self._largest_batch, len(reqs))
            for key, solved_key, payload in zip(keys, solved_keys, payloads):
                if "error" not in payload:
                    self.cache.put(solved_key, payload)
                for i in cold[key]:
                    answered[i] = ExplanationResponse(
                        requests[i],
                        payload,
                        cached=False,
                        elapsed_s=perf_counter() - start,
                    )
        return [answered[i] for i in range(len(requests))]

    # -- evaluation ------------------------------------------------------

    def _serve_group(
        self,
        fingerprint: str,
        method: str,
        params: dict,
        reqs: Sequence[ExplanationRequest],
    ) -> tuple[list[bytes], list[dict]]:
        """Solve one compatible group under its engine lock.

        The lock is held for the whole group — solve *and* cache-key
        resolution — so a streaming mutation can never tear a batch:
        either the group completes against the version it started on,
        or (if a mutation landed between request construction and
        here) the whole group re-pins to the current version, answers
        against the mutated engine, and caches under the current
        versioned keys.  Returns ``(cache keys, payloads)`` aligned
        with *reqs*.
        """
        base, _ = split_fingerprint(fingerprint)
        try:
            # Built (if need be) before the engine lock is taken: a build
            # waits on the mutation lock, and a mutation waits on every
            # engine lock of the lineage.
            engine = self.engine(base, params["metric"])
        except ReproError as exc:
            return [req.key for req in reqs], [error_payload(exc) for _ in reqs]
        with self._engine_lock(base, params["metric"]):
            try:
                _, current, _ = self._resolve(base)
                with self._lock:
                    if self._engines.get((base, params["metric"])) is not engine:
                        raise UnknownDatasetError(
                            f"dataset {base[:16]!r}... was removed mid-request"
                        )
                if method in BATCH_METHODS:
                    payloads = self._solve_batched(engine, method, params, reqs)
                else:
                    payloads = [
                        self._solve_one(base, engine, method, params, req.instance)
                        for req in reqs
                    ]
            except ReproError as exc:
                # Dataset gone, or k outgrew a shrunken dataset: the whole
                # group fails in-band (errors are never cached).
                return [req.key for req in reqs], [error_payload(exc) for _ in reqs]
            keys = [
                req.key
                if req.fingerprint == current
                else request_key(current, method, req.instance, params)
                for req in reqs
            ]
        return keys, payloads

    def _solve_batched(
        self,
        engine: QueryEngine | MultiClassEngine,
        method: str,
        params: dict,
        reqs: Sequence[ExplanationRequest],
    ) -> list[dict]:
        """Answer a compatible group through one engine batch call per block.

        Binary and multiclass lineages share the batching machinery; the
        payload shapes differ only where the question does — a
        multiclass ``margin``/``radii`` request without ``target_label``
        answers per class (``{"margins": {label: v}}`` /
        ``{"r_pos": {label: v}, "r_neg": {label: v}}``), with a target it
        answers the scalar one-vs-rest shape binary requests use.
        """
        k = params["k"]
        multiclass = isinstance(engine, MultiClassEngine)
        payloads: list[dict] = []
        for start in range(0, len(reqs), self.max_batch):
            block = np.vstack([r.instance for r in reqs[start : start + self.max_batch]])
            if method == "classify":
                labels = engine.classify_batch(block, k, vote=params["vote"])
                payloads.extend({"label": int(v)} for v in labels)
            elif method == "margin":
                if multiclass and params["target_label"] is None:
                    margins = engine.class_margins_batch(block, k)
                    payloads.extend(
                        {
                            "margins": {
                                str(c): float(row[j])
                                for j, c in enumerate(engine.classes)
                            }
                        }
                        for row in margins
                    )
                elif multiclass:
                    margins = engine.margins_batch(block, k, params["target_label"])
                    payloads.extend({"margin": float(v)} for v in margins)
                else:
                    margins = engine.margins_batch(block, k)
                    payloads.extend({"margin": float(v)} for v in margins)
            else:  # radii
                if multiclass and params["target_label"] is None:
                    radii, rest = engine.class_radii_batch(block, k)
                    payloads.extend(
                        {
                            "r_pos": {
                                str(c): float(radii[i, j])
                                for j, c in enumerate(engine.classes)
                            },
                            "r_neg": {
                                str(c): float(rest[i, j])
                                for j, c in enumerate(engine.classes)
                            },
                        }
                        for i in range(block.shape[0])
                    )
                elif multiclass:
                    r_pos, r_neg = engine.radii_batch(block, k, params["target_label"])
                    payloads.extend(
                        {"r_pos": float(p), "r_neg": float(n)}
                        for p, n in zip(r_pos, r_neg)
                    )
                else:
                    r_pos, r_neg = engine.radii_batch(block, k)
                    payloads.extend(
                        {"r_pos": float(p), "r_neg": float(n)}
                        for p, n in zip(r_pos, r_neg)
                    )
        return payloads

    def _solve_one(
        self, fingerprint: str, engine, method: str, params: dict, x: np.ndarray
    ) -> dict:
        """Answer one solver-method request, reporting failures in-band.

        Runs under the group's engine lock (taken in
        :meth:`_serve_group`), which orders it against streaming
        mutations and the engine's lazy index state.
        """
        try:
            return self._dispatch_solver(fingerprint, engine, method, params, x)
        except ReproError as exc:
            return error_payload(exc)

    def _dispatch_solver(
        self, fingerprint: str, engine, method: str, params: dict, x: np.ndarray
    ) -> dict:
        """Route a solver method to its pipeline over the shared engine.

        Binary lineages solve directly on their warm engine.  Multiclass
        lineages go through the paper's merge reduction: the engine's
        lazily cached one-vs-rest binary view of ``target_label`` (or of
        the predicted label when no target is given) answers the solve,
        and the payload echoes the resolved ``label`` (plus
        ``target_label`` when one was requested).  Merged views carry no
        ``@vN`` lineage fingerprint of their own, so multiclass solves
        skip the warm solver pool — correctness over reuse.
        """
        if isinstance(engine, MultiClassEngine):
            target = params.get("target_label")
            label = int(engine.classify(x, 1))
            if method == "counterfactual" and target is not None and target == label:
                raise ValidationError("x already has the target label")
            merged = engine.merged_engine(label if target is None else target)
            payload = self._run_solver(
                merged, method, params, x, pool_fingerprint=None, solver_pool=None
            )
            payload["label"] = label
            if target is not None:
                payload["target_label"] = int(target)
            return payload
        return self._run_solver(
            engine, method, params, x,
            pool_fingerprint=self._portfolio_fingerprint(fingerprint),
            solver_pool=self.solver_pool,
        )

    def _run_solver(
        self,
        engine: QueryEngine,
        method: str,
        params: dict,
        x: np.ndarray,
        *,
        pool_fingerprint: str | None,
        solver_pool,
    ) -> dict:
        """Run one solver pipeline on a warm binary *engine*."""
        from ..abductive import minimal_sufficient_reason, minimum_sufficient_reason
        from ..counterfactual import closest_counterfactual
        from ..portfolio import (
            portfolio_closest_counterfactual,
            portfolio_minimum_sufficient_reason,
        )

        # The engine's own snapshot, not the registry's: after a streaming
        # mutation the two are equal but not identical, and the pipeline
        # entry points check identity (as_engine).
        data = engine.dataset
        metric, k = params["metric"], params["k"]
        if method == "minimal_sr":
            X = minimal_sufficient_reason(data, k, metric, x, engine=engine)
            return {"X": sorted(int(i) for i in X), "size": len(X)}
        if method == "minimum_sr":
            if params["solver"] == "portfolio":
                race = portfolio_minimum_sufficient_reason(
                    data, k, metric, x, budget=params["budget"], engine=engine,
                    parallel=self.parallel_portfolio, racer=self.racer,
                    solver_pool=solver_pool,
                    fingerprint=pool_fingerprint,
                )
                self._note_race(race)
                answer = race.answer
                return {
                    "X": sorted(int(i) for i in answer.X),
                    "size": int(answer.size),
                    "method": race.method,
                    "exact": race.exact,
                    PROVENANCE_KEY: _race_provenance(race),
                }
            result = minimum_sufficient_reason(
                data, k, metric, x,
                method=params["solver"], engine=engine, time_limit=params["budget"],
            )
            return {
                "X": sorted(int(i) for i in result.X),
                "size": int(result.size),
                "method": result.method,
                "exact": True,
            }
        # counterfactual
        if params["solver"] == "portfolio":
            race = portfolio_closest_counterfactual(
                data, k, metric, x, budget=params["budget"], query_engine=engine,
                parallel=self.parallel_portfolio, racer=self.racer,
                solver_pool=solver_pool,
                fingerprint=pool_fingerprint,
            )
            self._note_race(race)
            payload = _counterfactual_payload(race.answer)
            payload["exact"] = race.exact
            payload[PROVENANCE_KEY] = _race_provenance(race)
            return payload
        result = closest_counterfactual(
            data, k, metric, x,
            method=params["solver"], query_engine=engine, time_limit=params["budget"],
        )
        payload = _counterfactual_payload(result)
        payload["exact"] = True
        return payload

    def _portfolio_fingerprint(self, fingerprint: str) -> str | None:
        """The versioned pool fingerprint for a portfolio request.

        Pool entries must key on the dataset *version*, not the lineage:
        a mutation bumps ``@vN`` and the superseded version's pooled
        solvers are swept alongside its cache entries.  Returns None
        when pooling is disabled (the portfolio then skips hashing).
        """
        if self.solver_pool is None:
            return None
        _, current, _ = self._resolve(fingerprint)
        return current

    def _note_race(self, race) -> None:
        """Fold one portfolio result into the serving counters."""
        with self._lock:
            counters = self._portfolio
            counters["races"] += 1
            counters[race.mode] += 1
            if not race.exact:
                counters["anytime"] += 1
            elif race.canonical:
                counters["canonical"] += 1
            else:
                counters["fallback_witness"] += 1
            for attempt in race.attempts:
                self._portfolio_attempts[attempt.status] = (
                    self._portfolio_attempts.get(attempt.status, 0) + 1
                )

    # -- asynchronous serving --------------------------------------------

    async def asubmit(
        self, fingerprint: str, method: str, instance, **params
    ) -> ExplanationResponse:
        """Serve one request on the running asyncio loop, micro-batched.

        Cache hits are answered immediately.  Misses join the pending
        queue; a flush task lets further concurrent requests accumulate
        for up to ``max_wait_s`` and then serves the whole queue through
        :meth:`submit_requests` in a worker thread (so the loop stays
        responsive while numpy/solver code runs).  Concurrent callers on
        the same loop therefore share vectorized kernel calls.
        """
        request = self.make_request(fingerprint, method, instance, **params)
        found, payload = self.cache.get(request.key)
        if found:
            with self._lock:
                self._requests += 1
            return ExplanationResponse(request, payload, cached=True, elapsed_s=0.0)
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((request, future))
        if self._flush_task is None or self._flush_task.done():
            self._flush_task = loop.create_task(self._flush_pending())
        return await future

    async def _flush_pending(self) -> None:
        """Drain the pending queue after each batching window elapses.

        Loops until a window closes with nothing pending: requests that
        arrive *while* a batch is solving in the executor (when
        ``asubmit`` sees a live flush task and schedules nothing) are
        picked up by the next iteration instead of being stranded.
        """
        while True:
            await asyncio.sleep(self.max_wait_s)
            pending, self._pending = self._pending, []
            if not pending:
                return
            loop = asyncio.get_running_loop()
            requests = [request for request, _ in pending]
            try:
                responses = await loop.run_in_executor(
                    None, self.submit_requests, requests
                )
            except Exception as exc:  # validation passed earlier; defensive
                for _, future in pending:
                    if not future.done():
                        future.set_exception(exc)
                continue  # stragglers may still be queued behind the failure
            for (_, future), response in zip(pending, responses):
                if not future.done():
                    future.set_result(response)

    # -- introspection ---------------------------------------------------

    def stats(self) -> dict:
        """Service counters: datasets, engines, requests, batching, cache."""
        with self._lock:
            out = {
                "datasets": len(self._lineages),
                "engines": len(self._engines),
                "requests": self._requests,
                "batches": self._batches,
                "batched_requests": self._batched_requests,
                "largest_batch": self._largest_batch,
                "mutations": self._mutations,
                "versions": {
                    base[:16]: lineage.version for base, lineage in self._lineages.items()
                },
                "cache": self.cache.stats(),
                "portfolio": {
                    **self._portfolio,
                    "attempts": dict(self._portfolio_attempts),
                },
            }
        out["solver_pool"] = (
            self.solver_pool.stats()
            if self.solver_pool is not None
            else {
                "hits": 0, "misses": 0, "recycled": 0, "evictions": 0,
                "invalidated": 0, "entries": 0, "leases": 0,
            }
        )
        if self.racer is not None:
            out["portfolio"]["race_pool"] = self.racer.stats()
        if self.durability is not None:
            out["durability"] = self.durability.stats()
            out["restored"] = dict(self.restored)
        return out

    def _refresh_metrics(self) -> None:
        """Mirror the ``stats()`` counters into the metrics registry.

        The service counters stay the source of truth; right before a
        scrape their running totals are copied into Prometheus series
        (``set_total``), so ``stats()`` and ``/metrics`` can never
        disagree.  Derived values (hit *ratios*) are never exported —
        scrapers compute them from the raw totals, which also makes the
        series safely summable across cluster workers.
        """
        stats = self.stats()
        cache = stats["cache"]
        reg = self.metrics
        reg.counter(
            "repro_requests_total", "Requests accepted by the service."
        ).set_total(stats["requests"])
        reg.counter(
            "repro_mutations_total", "Streaming mutation batches applied."
        ).set_total(stats["mutations"])
        hits = reg.counter(
            "repro_cache_requests_total",
            "Result-cache lookups, split by outcome (hit rate = "
            "hit / (hit + miss)).",
            ("outcome",),
        )
        hits.set_total(cache["hits"], outcome="hit")
        hits.set_total(cache["misses"], outcome="miss")
        hits.set_total(cache["disk_hits"], outcome="disk_hit")
        reg.gauge(
            "repro_datasets", "Dataset lineages currently registered."
        ).set(stats["datasets"])
        reg.gauge(
            "repro_engines", "Warm (dataset, metric) engines currently held."
        ).set(stats["engines"])
        reg.gauge(
            "repro_cache_entries", "Result-cache entries currently in memory."
        ).set(cache["size"])
        pool = stats["solver_pool"]
        pool_events = reg.counter(
            "repro_solver_pool_requests_total",
            "Warm SAT-solver pool leases and lifecycle events, by outcome "
            "(hit rate = hit / (hit + miss)).",
            ("outcome",),
        )
        for outcome, key in (
            ("hit", "hits"), ("miss", "misses"), ("recycled", "recycled"),
            ("evicted", "evictions"), ("invalidated", "invalidated"),
        ):
            pool_events.set_total(pool[key], outcome=outcome)
        reg.gauge(
            "repro_solver_pool_entries", "Warm pooled SAT solvers currently held."
        ).set(pool["entries"])
        portfolio = stats["portfolio"]
        races = reg.counter(
            "repro_portfolio_races_total",
            "Portfolio races served, by execution mode.",
            ("mode",),
        )
        races.set_total(portfolio["parallel"], mode="parallel")
        races.set_total(portfolio["sequential"], mode="sequential")
        attempts = reg.counter(
            "repro_portfolio_attempts_total",
            "Portfolio attempt outcomes across all races.",
            ("status",),
        )
        for status, count in sorted(portfolio["attempts"].items()):
            attempts.set_total(count, status=status)
        race_pool = portfolio.get("race_pool")
        if race_pool is not None:
            events = reg.counter(
                "repro_race_events_total",
                "Process-racer lifecycle events (cancellations are "
                "cooperative; hard kills are the grace-window backstop).",
                ("event",),
            )
            for event in ("races", "cancelled", "hard_kills", "inline_fallbacks"):
                events.set_total(race_pool[event], event=event)
            reg.gauge(
                "repro_race_workers_alive", "Live race worker processes."
            ).set(race_pool["workers_alive"])

    def metrics_states(self) -> list:
        """Raw metric states for cross-process aggregation.

        The single-process service contributes one registry state; the
        cluster front concatenates the states of every worker plus its
        own and merges them with
        :func:`~repro.serve.metrics.render_states`.
        """
        self._refresh_metrics()
        return [self.metrics.state()]

    def metrics_text(self) -> str:
        """The ``GET /metrics`` page (Prometheus text exposition format)."""
        return render_states(self.metrics_states())

    def close(self) -> None:
        """Release serving resources (open WAL handles, for this service).

        Exists so callers can treat :class:`ExplanationService` and
        :class:`~repro.serve.cluster.ClusterService` uniformly — the
        cluster variant tears down its worker processes here.
        """
        if self.racer is not None:
            self.racer.close()
        if self.durability is not None:
            self.durability.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"ExplanationService(datasets={len(self._lineages)}, "
                f"backend={self.backend!r}, cache={len(self.cache)})"
            )


def _budget_seconds(budget) -> float | None:
    """A solver ``budget`` param: null, or a finite number of seconds >= 0.

    NaN would compare false against every deadline and lift the cap
    silently, so it is refused like any other non-number.
    """
    if budget is None:
        return None
    if (
        isinstance(budget, bool)
        or not isinstance(budget, numbers.Real)
        or not math.isfinite(budget)
        or budget < 0
    ):
        raise ValidationError(
            f"budget must be a finite number of seconds >= 0 or null, got {budget!r}"
        )
    return float(budget)


def _counts_payload(multiclass: bool, sizes: dict) -> dict:
    """JSON-ready shape counts from ``{label: size}`` in class order.

    Binary lineages (labels ``True`` / ``False``) report
    ``n_positive``/``n_negative``; multiclass ones report the ascending
    ``classes`` list and a ``counts`` map of per-class sizes
    (multiplicities included, string keys for JSON).
    """
    if multiclass:
        return {
            "classes": [int(c) for c in sizes],
            "counts": {str(c): int(n) for c, n in sizes.items()},
        }
    return {"n_positive": int(sizes[True]), "n_negative": int(sizes[False])}


def _race_provenance(race) -> dict:
    """JSON-ready provenance of a :class:`~repro.portfolio.PortfolioResult`."""
    return {
        "winner": race.method,
        "exact": race.exact,
        "mode": race.mode,
        "canonical": race.canonical,
        "budget_s": race.budget_s,
        "elapsed_s": race.elapsed_s,
        "attempts": [
            {
                "method": attempt.method,
                "status": attempt.status,
                "budget_s": attempt.budget_s,
                "elapsed_s": attempt.elapsed_s,
                "detail": attempt.detail,
            }
            for attempt in race.attempts
        ],
    }


def _counterfactual_payload(result) -> dict:
    """JSON-ready payload of a CounterfactualResult (y as a plain list)."""
    return {
        "found": result.found,
        "y": None if result.y is None else [float(v) for v in result.y],
        "distance": float(result.distance),
        "infimum": float(result.infimum),
        "label_from": int(result.label_from),
        "method": result.method,
    }
