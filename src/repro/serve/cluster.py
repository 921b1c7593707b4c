"""Sharded multi-process serving: a front that scatters to worker services.

:class:`ClusterService` is the horizontal scale-out of
:class:`~repro.serve.service.ExplanationService`.  One front process
holds N **worker processes**; each worker runs its own warm
``ExplanationService`` (own engines, own result cache) over the shard
of dataset lineages assigned to it.  The topology:

* **sharding by content fingerprint** — a dataset lineage's *base*
  fingerprint (the stable content hash from
  :func:`~repro.serve.cache.dataset_fingerprint`) picks its **owner**
  worker deterministically (``int(fp[:16], 16) % workers``), so any
  front with the same worker count routes identically;
* **read replicas** — with ``replicas > 1`` a lineage is registered on
  the ``replicas`` workers following its owner (mod N), and read
  traffic goes to the least-loaded replica.  On a machine with few
  cores this is what kills head-of-line blocking: a cheap ``classify``
  never waits behind a multi-hundred-millisecond SAT solve holding a
  sibling replica's engine lock — it runs in a different process;
* **admission control / backpressure** — each worker front-end keeps a
  bounded count of outstanding requests (``queue_depth``).  A request
  that would exceed the bound is refused *immediately* with
  :class:`~repro.exceptions.OverloadedError` (HTTP 429 through the
  wire) instead of joining an unbounded queue behind a saturated
  worker.  Administrative operations (registration, mutation,
  teardown, stats) bypass admission — shedding load must never shed
  control traffic;
* **mutations route to every replica** — :meth:`ClusterService.add_points`
  / :meth:`~ClusterService.remove_points` serialize per lineage at the
  front and send each batch to the whole replica set at once, so every
  replica applies the same batches in the same order under the
  version-bump/invalidation protocol (``<fp>@vN``).  Validation is
  deterministic over identical state, so replicas accept or refuse a
  batch alike; the reply waits for all of them, and a replica whose
  outcome differs (it died mid-batch, its disk failed) is named in a
  structured ``replica_divergence`` warning.

Workers speak a tiny pickled ``(op, payload)`` / ``(status, value)``
protocol over :func:`multiprocessing.Pipe`; a worker is single-threaded
by construction (one recv loop), so per-worker message order is the
serialization order.  Exceptions raised inside a worker travel back by
class *name* and are re-raised at the front as the same
:mod:`repro.exceptions` type.
"""

from __future__ import annotations

import queue
import sys
import threading
from concurrent.futures import Future
from typing import Sequence

from .. import exceptions as _exceptions
from ..exceptions import OverloadedError, SolverError, UnknownDatasetError
from ..knn import Dataset, MultiClassDataset
from ..solvers.race import preferred_context
from .cache import dataset_fingerprint, split_fingerprint
from .metrics import MetricsRegistry, StructuredLogger, render_states
from .service import ExplanationService

#: ops exempt from admission control (control plane beats data plane).
_CONTROL_OPS = frozenset(
    {"add_dataset", "mutate", "remove_dataset", "describe", "stats",
     "fingerprints", "metrics", "ping", "shutdown"}
)


def _rebuild_exception(type_name: str, message: str) -> BaseException:
    """Re-raise a worker-side failure as its :mod:`repro.exceptions` type.

    Unknown names (a worker raising something outside the library's
    hierarchy) degrade to :class:`~repro.exceptions.SolverError` so the
    front never loses the failure.
    """
    exc_type = getattr(_exceptions, type_name, None)
    if isinstance(exc_type, type) and issubclass(exc_type, BaseException):
        return exc_type(message)
    return SolverError(f"worker failure ({type_name}): {message}")


def _outcome(outcome) -> str:
    """One replica's mutation outcome as the divergence warning shows it."""
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}"
    return f"ok @v{outcome['version']}"


def _worker_dispatch(service: ExplanationService, op: str, payload) -> object:
    """Execute one front message against the worker's local service."""
    if op == "explain":
        fingerprint, method, instances, params, request_id = payload
        return service.explain(fingerprint, method, instances, params, request_id)
    if op == "mutate":
        kind, fingerprint, points, labels, multiplicities = payload
        mutate = service.add_points if kind == "add" else service.remove_points
        return mutate(fingerprint, points, labels, multiplicities)
    if op == "add_dataset":
        if payload.get("kind") == "multiclass":
            dataset = MultiClassDataset(
                payload["points"],
                payload["labels"],
                multiplicities=payload["multiplicities"],
                discrete=payload["discrete"],
            )
        else:
            dataset = Dataset(
                payload["positives"],
                payload["negatives"],
                positive_multiplicities=payload["positive_multiplicities"],
                negative_multiplicities=payload["negative_multiplicities"],
                discrete=payload["discrete"],
            )
        fingerprint = service.add_dataset(dataset)
        if fingerprint != payload["expect"]:  # pragma: no cover - defensive
            raise SolverError(
                "worker fingerprint disagrees with front "
                f"({fingerprint[:16]} != {payload['expect'][:16]})"
            )
        return fingerprint
    if op == "remove_dataset":
        return service.remove_dataset(payload)
    if op == "describe":
        return service.describe(payload)
    if op == "stats":
        return service.stats()
    if op == "fingerprints":
        return service.fingerprints()
    if op == "metrics":
        return service.metrics_states()
    if op == "ping":
        return "pong"
    raise SolverError(f"unknown worker op {op!r}")  # pragma: no cover


def _worker_main(conn, config: dict, front_ends=()) -> None:
    """Entry point of one worker process: serve ``(op, payload)`` messages.

    Builds a fresh :class:`ExplanationService` from *config* and answers
    every message with ``("ok", result)`` or ``("raise", (type, msg))``
    until a ``shutdown`` message (or a closed pipe) ends the loop.
    *front_ends* are the front-side pipe ends a forked worker inherited;
    they are closed first, so a dead front reads as EOF here.
    """
    for end in front_ends:
        end.close()
    service = ExplanationService(
        backend=config["backend"],
        cache_size=config["cache_size"],
        cache_dir=config["cache_dir"],
        max_batch=config["max_batch"],
        state_dir=config.get("state_dir"),
        snapshot_every=config.get("snapshot_every", 64),
        log_stream=sys.stderr if config.get("log") else None,
        solver_pool=config.get("solver_pool", 32),
    )
    while True:
        try:
            op, payload = conn.recv()
        except (EOFError, OSError):  # front went away; die quietly
            service.close()
            return
        if op == "shutdown":
            service.close()
            conn.send(("ok", None))
            return
        try:
            result = _worker_dispatch(service, op, payload)
        except Exception as exc:
            reply = ("raise", (exc.__class__.__name__, str(exc) or repr(exc)))
        else:
            reply = ("ok", result)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # pragma: no cover - front died
            return


class _Worker:
    """Front-side handle of one worker process: pipe, pump thread, admission.

    Requests enter through :meth:`submit`, which enforces the bounded
    ``queue_depth`` (raising :class:`OverloadedError` past it) and hands
    the message to a pump thread that owns the pipe — one in-flight
    message per worker at a time, replies resolved into
    :class:`~concurrent.futures.Future` objects.
    """

    def __init__(self, index: int, config: dict, queue_depth: int, ctx, siblings=()):
        self.index = index
        self.queue_depth = max(1, int(queue_depth))
        parent_conn, child_conn = ctx.Pipe()
        # A forked child inherits the front's end of its own pipe and of
        # every earlier sibling's; it closes them (spawned children don't
        # inherit them).
        front_ends = []
        if ctx.get_start_method() == "fork":
            front_ends = [parent_conn, *(sibling.conn for sibling in siblings)]
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, config, front_ends),
            daemon=True,
            name=f"repro-serve-worker-{index}",
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self._queue: queue.Queue = queue.Queue()
        self._outstanding = 0
        self._lock = threading.Lock()
        self._closed = False
        self._pump: threading.Thread | None = None

    def start_pump(self) -> None:
        """Start the reply pump (kept separate so every fork precedes threads)."""
        self._pump = threading.Thread(
            target=self._pump_loop, daemon=True, name=f"repro-serve-pump-{self.index}"
        )
        self._pump.start()

    @property
    def outstanding(self) -> int:
        """Requests admitted but not yet answered (the routing load signal)."""
        with self._lock:
            return self._outstanding

    def submit(self, op: str, payload, *, force: bool = False) -> Future:
        """Enqueue one message; bounded unless *force* (control traffic).

        Raises :class:`OverloadedError` when the worker already has
        ``queue_depth`` admitted requests in flight, and
        :class:`SolverError` when the worker was closed or died.
        """
        with self._lock:
            if self._closed:
                raise SolverError(f"worker {self.index} is closed")
            if not force and self._outstanding >= self.queue_depth:
                raise OverloadedError(
                    f"worker {self.index} is overloaded "
                    f"({self._outstanding} in flight, depth {self.queue_depth}); "
                    "back off and retry"
                )
            self._outstanding += 1
        future: Future = Future()
        self._queue.put((op, payload, future))
        return future

    def call(self, op: str, payload=None, *, force: bool = False):
        """Synchronous :meth:`submit` — returns the result or re-raises."""
        return self.submit(op, payload, force=force).result()

    def _pump_loop(self) -> None:
        """Send queued messages over the pipe and resolve their futures."""
        while True:
            item = self._queue.get()
            if item is None:
                return
            op, payload, future = item
            try:
                self.conn.send((op, payload))
                status, value = self._recv_reply()
            except Exception as exc:
                self._settle(future, error=SolverError(
                    f"worker {self.index} failed mid-request: {exc}"
                ))
                continue
            if status == "ok":
                self._settle(future, result=value)
            else:
                self._settle(future, error=_rebuild_exception(*value))

    def _recv_reply(self):
        """Next reply off the pipe, watching for a dead worker process."""
        while True:
            if self.conn.poll(0.1):
                return self.conn.recv()
            if not self.process.is_alive():
                raise SolverError(f"worker {self.index} exited unexpectedly")

    def _settle(self, future: Future, *, result=None, error=None) -> None:
        """Release the admission slot and resolve *future*."""
        with self._lock:
            self._outstanding -= 1
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)

    def close(self) -> None:
        """Shut the worker down: drain, send ``shutdown``, reap the process."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._outstanding += 1  # the shutdown message's slot
        future: Future = Future()
        self._queue.put(("shutdown", None, future))
        self._queue.put(None)
        try:
            future.result(timeout=5.0)
        except Exception:  # worker already gone; reap below
            pass
        if self._pump is not None:
            self._pump.join(timeout=5.0)
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        self.conn.close()


class ClusterService:
    """Front of the sharded serving cluster (same call surface as the service).

    Exposes the :class:`ExplanationService` serving verbs —
    :meth:`add_dataset`, :meth:`explain`, :meth:`add_points` /
    :meth:`remove_points`, :meth:`remove_dataset`, :meth:`describe`,
    :meth:`stats`, :meth:`fingerprints` — with identical semantics and
    payloads, so the HTTP layer, the CLI, and the load generator treat
    single-process and clustered serving interchangeably.  See the
    module docstring for the topology.

    Parameters
    ----------
    workers:
        worker process count (the shard count).
    replicas:
        read replicas per dataset lineage, clamped to ``[1, workers]``.
    queue_depth:
        admitted-but-unanswered bound per worker; exceeding it raises
        :class:`~repro.exceptions.OverloadedError`.
    backend, cache_size, cache_dir, max_batch:
        forwarded to each worker's :class:`ExplanationService`
        (``cache_dir`` gets a per-worker subdirectory so workers never
        share persisted cache files).
    state_dir:
        optional durability root.  Each worker keeps its own
        :class:`~repro.serve.durability.DurableStore` under
        ``state_dir/worker-<i>`` (workers never share WAL files), and
        on boot every worker **restores its owned lineages** before the
        cluster takes traffic; the front then adopts the restored
        lineages into its routing table.  Keep the worker count stable
        across restarts — a lineage restored by a worker that is no
        longer on its replica set is skipped with a structured warning
        (see ``docs/operations.md``).
    snapshot_every:
        per-worker snapshot cadence, forwarded to each worker's store.
    log_stream:
        optional stream for the *front's* structured JSON logs; when
        set, workers log to their (inherited) ``stderr``.

    Worker processes start with ``fork`` where the platform has it,
    else ``spawn``.  They are daemonic, so they cannot fork race
    workers of their own: the parallel portfolio is single-process only.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        replicas: int = 1,
        queue_depth: int = 64,
        backend: str = "auto",
        cache_size: int = 2048,
        cache_dir=None,
        max_batch: int = 256,
        state_dir=None,
        snapshot_every: int = 64,
        log_stream=None,
        solver_pool: int = 32,
    ):
        self.n_workers = max(1, int(workers))
        self.replicas = min(self.n_workers, max(1, int(replicas)))
        self.queue_depth = max(1, int(queue_depth))
        self.max_batch = max(1, int(max_batch))
        self.backend = backend
        self.state_dir = state_dir
        self.log = StructuredLogger(log_stream, component="cluster")
        self.metrics = MetricsRegistry()
        ctx = preferred_context()
        self.start_method = ctx.get_start_method()
        self._workers = []
        for index in range(self.n_workers):
            worker_cache_dir = (
                None if cache_dir is None else f"{cache_dir}/worker-{index}"
            )
            worker_state_dir = (
                None if state_dir is None else f"{state_dir}/worker-{index}"
            )
            config = {
                "backend": backend,
                "cache_size": int(cache_size),
                "cache_dir": worker_cache_dir,
                "max_batch": self.max_batch,
                "state_dir": worker_state_dir,
                "snapshot_every": int(snapshot_every),
                "log": log_stream is not None,
                "solver_pool": int(solver_pool),
            }
            self._workers.append(_Worker(index, config, self.queue_depth, ctx, self._workers))
        # Every fork happened above, before any front thread exists; only
        # now is it safe to start the per-worker pump threads.
        for worker in self._workers:
            worker.start_pump()
        self._datasets: dict[str, dict] = {}  # base -> {"dimension", "discrete"}
        self._mutation_locks: dict[str, threading.Lock] = {}
        self._lock = threading.RLock()
        self._dispatched = 0
        self._rejected = 0
        self._closed = False
        self.restored: dict = {}
        if state_dir is not None:
            self._adopt_restored()

    # -- durability ------------------------------------------------------

    def _adopt_restored(self) -> None:
        """Adopt lineages the workers restored from their state dirs.

        Each worker restores its own ``state_dir/worker-<i>`` before the
        front exists; this walks every worker's restored fingerprints
        and re-enters into the routing table each lineage whose **owner**
        worker holds it.  Degradations are reported, never fatal:
        a lineage held by a worker off its replica set (the worker
        count changed across restarts) is skipped with a structured
        warning, and a replica whose restored version lags its owner's
        is warned about (it missed the crash-window broadcast; see
        ``docs/operations.md`` for the repair procedure).
        """
        placements: dict[str, dict[int, int]] = {}
        for worker in self._workers:
            for fingerprint in worker.call("fingerprints", force=True):
                base, version = split_fingerprint(fingerprint)
                placements.setdefault(base, {})[worker.index] = version
        for base, holders in sorted(placements.items()):
            owner = self.owner_of(base)
            replica_set = set(self.replica_set(base))
            strays = sorted(set(holders) - replica_set)
            if strays:
                self.log.log(
                    "restored_lineage_stray", level="warning",
                    base=base[:16], workers=strays, owner=owner,
                    hint="worker count changed across restarts?",
                )
            if owner not in holders:
                self.log.log(
                    "restored_lineage_skipped", level="warning",
                    base=base[:16], owner=owner, holders=sorted(holders),
                    hint="owner worker has no durable copy; not adopted",
                )
                continue
            behind = sorted(
                index for index in replica_set & set(holders)
                if holders[index] < holders[owner]
            )
            missing = sorted(replica_set - set(holders))
            if behind or missing:
                self.log.log(
                    "restored_replica_behind", level="warning",
                    base=base[:16], owner_version=holders[owner],
                    behind=behind, missing=missing,
                )
            meta = self._workers[owner].call("describe", base, force=True)
            with self._lock:
                self._datasets[base] = {
                    "dimension": meta["dimension"],
                    "discrete": meta["discrete"],
                }
            self.restored[base[:16]] = {
                "version": holders[owner],
                "owner": owner,
                "holders": {str(i): v for i, v in sorted(holders.items())},
            }
            self.log.log(
                "lineage_adopted", base=base[:16],
                version=holders[owner], owner=owner,
            )

    # -- placement -------------------------------------------------------

    def owner_of(self, base: str) -> int:
        """Deterministic owner worker of a lineage's base fingerprint."""
        return int(base[:16], 16) % self.n_workers

    def replica_set(self, base: str) -> list[int]:
        """Worker indices holding a lineage: owner plus following replicas."""
        owner = self.owner_of(base)
        return [(owner + i) % self.n_workers for i in range(self.replicas)]

    def _replicas_for(self, fingerprint: str) -> tuple[str, list[_Worker]]:
        """Resolve a client handle to ``(base, replica worker handles)``."""
        base, _ = split_fingerprint(fingerprint)
        with self._lock:
            if self._closed:
                raise SolverError("cluster is closed")
            if base not in self._datasets:
                raise UnknownDatasetError(
                    f"unknown dataset fingerprint {base[:16]!r}...; "
                    "register the dataset first (add_dataset / POST /v2/datasets)"
                )
        return base, [self._workers[i] for i in self.replica_set(base)]

    # -- dataset registry ------------------------------------------------

    def add_dataset(self, dataset: Dataset | MultiClassDataset) -> str:
        """Register *dataset* on its replica set; returns the base fingerprint.

        Accepts either dataset kind (binary or multiclass — the same
        surface as the single-process service).  Idempotent: registering
        bit-identical data returns the same fingerprint and keeps every
        worker's warm engines.
        """
        fingerprint = dataset_fingerprint(dataset)
        if isinstance(dataset, MultiClassDataset):
            payload = {
                "kind": "multiclass",
                "points": dataset.points,
                "labels": dataset.row_labels,
                "multiplicities": dataset.multiplicities,
                "discrete": dataset.discrete,
                "expect": fingerprint,
            }
        else:
            payload = {
                "positives": dataset.positives,
                "negatives": dataset.negatives,
                "positive_multiplicities": dataset.positive_multiplicities,
                "negative_multiplicities": dataset.negative_multiplicities,
                "discrete": dataset.discrete,
                "expect": fingerprint,
            }
        with self._mutation_lock(fingerprint):
            futures = [
                self._workers[i].submit("add_dataset", payload, force=True)
                for i in self.replica_set(fingerprint)
            ]
            for future in futures:
                future.result()
            with self._lock:
                self._datasets.setdefault(
                    fingerprint,
                    {"dimension": dataset.dimension, "discrete": dataset.discrete},
                )
        return fingerprint

    def remove_dataset(self, fingerprint: str) -> int:
        """Drop a lineage from every replica; returns invalidated entries.

        The count is summed across replicas (each worker sweeps its own
        cache).  A *superseded* versioned fingerprint only sweeps that
        version's entries, mirroring the single-process service.
        """
        base, workers = self._replicas_for(fingerprint)
        with self._mutation_lock(base):
            futures = [
                worker.submit("remove_dataset", fingerprint, force=True)
                for worker in workers
            ]
            removed = sum(future.result() for future in futures)
            # A bare (or current-version) handle drops the lineage; a
            # superseded versioned handle only sweeps that version's cache
            # entries.  Probe the owner to learn which case this was.
            try:
                workers[0].call("describe", base, force=True)
            except _exceptions.ReproError:
                with self._lock:
                    self._datasets.pop(base, None)
        return removed

    def describe(self, fingerprint: str) -> dict:
        """Current metadata of a lineage, answered by its owner replica."""
        _, workers = self._replicas_for(fingerprint)
        return workers[0].call("describe", fingerprint, force=True)

    def fingerprints(self) -> list[str]:
        """Current versioned fingerprints across every lineage (sorted)."""
        with self._lock:
            if self._closed:
                return []
            bases = sorted(self._datasets)
        out = []
        for base in bases:
            out.append(self._workers[self.owner_of(base)].call(
                "describe", base, force=True
            )["fingerprint"])
        return out

    # -- serving ---------------------------------------------------------

    def explain(
        self, fingerprint: str, method: str, instances: Sequence,
        params: dict | None = None, request_id: str | None = None,
    ) -> list[dict]:
        """Scatter an instance batch across the lineage's replicas and gather.

        The batch is cut into ``max_batch`` blocks; each block goes to
        the currently least-loaded replica, and results come back in
        instance order with the exact :meth:`ExplanationService.explain`
        payload shape.  Admission failure on any block raises
        :class:`~repro.exceptions.OverloadedError` (already-dispatched
        blocks complete in their workers and are discarded).
        ``request_id`` travels with every block, so the worker-side
        ``explain_served`` log records carry the same provenance id the
        HTTP front stamped on the response.
        """
        _, workers = self._replicas_for(fingerprint)
        n = len(instances)
        if n == 0:
            return []
        futures = []
        try:
            for start in range(0, n, self.max_batch):
                block = instances[start : start + self.max_batch]
                worker = min(workers, key=lambda w: w.outstanding)
                futures.append(
                    worker.submit(
                        "explain", (fingerprint, method, block, params, request_id)
                    )
                )
        except OverloadedError:
            with self._lock:
                self._rejected += 1
            raise
        with self._lock:
            self._dispatched += len(futures)
        results: list[dict] = []
        for future in futures:
            results.extend(future.result())
        return results

    def add_points(self, fingerprint: str, points, labels, multiplicities=None) -> dict:
        """Insert points into a lineage on *every* replica (version lockstep)."""
        return self._mutate("add", fingerprint, points, labels, multiplicities)

    def remove_points(self, fingerprint: str, points, labels, multiplicities=None) -> dict:
        """Remove points from a lineage on *every* replica (version lockstep)."""
        return self._mutate("remove", fingerprint, points, labels, multiplicities)

    def _mutate(self, kind: str, fingerprint: str, points, labels, multiplicities) -> dict:
        """Send one mutation to every replica at once, under the lineage lock.

        The front lock serializes mutations per lineage, and each worker
        is single-threaded, so every replica applies the same mutations
        in the same order; the replicas work on a batch concurrently and
        the reply waits for every one of them.  Validation is
        deterministic over identical state, so they accept or refuse
        alike.  The reply is the owner's when every replica applied the
        batch; otherwise the owner's error is raised, or else the first
        failing replica's.  Replicas whose outcome differs from the
        owner's are named in a ``replica_divergence`` warning; they stay
        diverged until restored (see ``docs/operations.md``).
        """
        base, workers = self._replicas_for(fingerprint)
        payload = (kind, fingerprint, points, labels, multiplicities)
        with self._mutation_lock(base):
            futures = [worker.submit("mutate", payload, force=True) for worker in workers]
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result())
                except Exception as exc:
                    outcomes.append(exc)
        summaries = {str(w.index): _outcome(o) for w, o in zip(workers, outcomes)}
        differing = [
            w.index for w in workers
            if summaries[str(w.index)] != summaries[str(workers[0].index)]
        ]
        if differing:
            self.log.log(
                "replica_divergence", level="warning", base=base[:16], op=kind,
                owner=workers[0].index, workers=differing, outcomes=summaries,
            )
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
        return outcomes[0]

    def _mutation_lock(self, base: str) -> threading.Lock:
        """The front-side per-lineage lock serializing mutations."""
        with self._lock:
            return self._mutation_locks.setdefault(base, threading.Lock())

    # -- introspection / lifecycle ----------------------------------------

    def stats(self) -> dict:
        """Aggregated worker counters plus a ``"cluster"`` section.

        Count-style fields (requests, batches, mutations, cache
        hits/misses) are summed across workers; ``versions`` merges to
        the maximum seen per lineage (replicas agree by construction,
        so the max is the common value).
        """
        worker_stats = [w.call("stats", force=True) for w in self._workers]
        versions: dict[str, int] = {}
        cache = {"hits": 0, "misses": 0, "disk_hits": 0, "evictions": 0,
                 "size": 0, "maxsize": 0}
        total = {"engines": 0, "requests": 0, "batches": 0,
                 "batched_requests": 0, "mutations": 0}
        solver_pool = {"hits": 0, "misses": 0, "recycled": 0, "evictions": 0,
                       "invalidated": 0, "entries": 0, "leases": 0}
        portfolio = {"races": 0, "parallel": 0, "sequential": 0,
                     "canonical": 0, "fallback_witness": 0, "anytime": 0}
        attempts: dict[str, int] = {}
        durability: dict | None = None
        largest = 0
        for stats in worker_stats:
            for key in total:
                total[key] += stats[key]
            largest = max(largest, stats["largest_batch"])
            for base, version in stats["versions"].items():
                versions[base] = max(versions.get(base, 0), version)
            for key in cache:
                cache[key] += stats["cache"][key]
            for key in solver_pool:
                solver_pool[key] += stats["solver_pool"][key]
            for key in portfolio:
                portfolio[key] += stats["portfolio"][key]
            for status, count in stats["portfolio"]["attempts"].items():
                attempts[status] = attempts.get(status, 0) + count
            if "durability" in stats:
                if durability is None:
                    durability = dict.fromkeys(
                        ("appends", "fsync_s", "snapshots", "compactions",
                         "restores", "truncated_tails"), 0,
                    )
                for key in durability:
                    durability[key] += stats["durability"][key]
        with self._lock:
            cluster = {
                "workers": self.n_workers,
                "replicas": self.replicas,
                "queue_depth": self.queue_depth,
                "start_method": self.start_method,
                "dispatched": self._dispatched,
                "rejected": self._rejected,
                "outstanding": [w.outstanding for w in self._workers],
                "alive": [w.process.is_alive() for w in self._workers],
            }
            n_datasets = len(self._datasets)
        out = {
            "datasets": n_datasets,
            "engines": total["engines"],
            "requests": total["requests"],
            "batches": total["batches"],
            "batched_requests": total["batched_requests"],
            "largest_batch": largest,
            "mutations": total["mutations"],
            "versions": versions,
            "cache": cache,
            "solver_pool": solver_pool,
            "portfolio": {**portfolio, "attempts": attempts},
            "cluster": cluster,
        }
        if durability is not None:
            out["durability"] = durability
            out["restored"] = dict(self.restored)
        return out

    def _refresh_metrics(self) -> None:
        """Mirror the front's own counters/health into its registry.

        Worker-side series come back through the ``metrics`` worker op;
        this covers only what the front alone knows — dispatch/overload
        totals and per-worker health gauges (labeled ``worker="i"`` so
        they stay meaningful after :func:`~repro.serve.metrics.
        render_states` sums across processes).
        """
        with self._lock:
            dispatched, rejected = self._dispatched, self._rejected
            workers = list(self._workers)
        reg = self.metrics
        reg.counter(
            "repro_cluster_dispatched_total",
            "Request blocks dispatched to workers by the front.",
        ).set_total(dispatched)
        reg.counter(
            "repro_cluster_rejected_total",
            "Request blocks refused by admission control (HTTP 429).",
        ).set_total(rejected)
        outstanding = reg.gauge(
            "repro_worker_outstanding",
            "Requests admitted to a worker but not yet answered.",
            ("worker",),
        )
        alive = reg.gauge(
            "repro_worker_alive",
            "1 when the worker process is alive, 0 when it exited.",
            ("worker",),
        )
        for worker in workers:
            outstanding.set(worker.outstanding, worker=str(worker.index))
            alive.set(float(worker.process.is_alive()), worker=str(worker.index))

    def metrics_states(self) -> list:
        """Every worker's raw metric states plus the front's own.

        One flat list, ready for
        :func:`~repro.serve.metrics.render_states` — same-name series
        are summed across workers, which is why worker-distinct gauges
        carry a ``worker`` label.
        """
        self._refresh_metrics()
        states = [self.metrics.state()]
        futures = [w.submit("metrics", None, force=True) for w in self._workers]
        for future in futures:
            states.extend(future.result())
        return states

    def metrics_text(self) -> str:
        """The fleet-wide ``GET /metrics`` page (Prometheus text format)."""
        return render_states(self.metrics_states())

    def cluster_info(self) -> dict:
        """Topology snapshot for ``GET /v2/cluster``: placement and health."""
        with self._lock:
            bases = sorted(self._datasets)
        return {
            "workers": self.n_workers,
            "replicas": self.replicas,
            "queue_depth": self.queue_depth,
            "start_method": self.start_method,
            "datasets": {
                base[:16]: {
                    "owner": self.owner_of(base),
                    "replicas": self.replica_set(base),
                }
                for base in bases
            },
            "outstanding": [w.outstanding for w in self._workers],
            "alive": [w.process.is_alive() for w in self._workers],
        }

    def ping(self) -> list[str]:
        """Round-trip every worker (health check); returns their replies."""
        return [w.call("ping", force=True) for w in self._workers]

    def close(self) -> None:
        """Tear down every worker process (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for worker in self._workers:
            worker.close()

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"ClusterService(workers={self.n_workers}, "
                f"replicas={self.replicas}, datasets={len(self._datasets)})"
            )
