"""Process-level racing for the exact solver portfolio.

The sequential portfolio tries exact methods one after another; this
module runs them *concurrently* in a small pool of persistent worker
processes and returns as soon as the first exact answer lands.  Losers
are cancelled cooperatively: every worker carries a shared
``multiprocessing.Event`` that the parent sets once a winner is known,
and the workers install it into :mod:`repro._budget`, so every budget
checkpoint inside the SAT/brute pipelines doubles as a cancellation
point (the attempt unwinds through the usual
:class:`~repro.exceptions.ResourceLimitError` path).  Methods that
cannot observe the event mid-solve — scipy's MILP runs to completion —
are covered by a hard-kill backstop after a grace window, and the
killed worker is respawned lazily before the next race.

Budget accounting is per attempt *in the worker*: each method converts
its budget to a deadline when it actually starts, so a cancelled or
timed-out attempt never burns the next attempt's budget; the parent
separately enforces an overall race wall derived from the worst-case
per-worker schedule plus the grace window.

Workers are allocated per race and methods are dealt round-robin, so
the racer degrades gracefully: with at least as many free workers as
methods every method runs concurrently; with one worker the race is
sequential-in-child; with zero free workers :meth:`ProcessRacer.race`
returns ``None`` and the caller falls back to the in-process
sequential racer.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
import time
from dataclasses import dataclass
from multiprocessing import connection, get_context
from typing import Any

from ..exceptions import ResourceLimitError, UnsupportedSettingError, ValidationError

__all__ = ["ProcessRacer", "RaceAttempt", "RaceOutcome", "default_racer"]

# Slack added to the parent's overall race wall on top of the summed
# per-attempt budgets: covers task pickling and scheduling latency.
_SCHEDULING_SLACK_S = 0.25


def _pick_start_method(explicit: str | None) -> str:
    """Resolve the multiprocessing start method for race workers.

    Priority: explicit argument, then the ``REPRO_RACE_START_METHOD``
    environment variable, then ``fork`` where the platform offers it
    (workers inherit the imported solver stack for free) with ``spawn``
    as the portable fallback.
    """
    if explicit:
        return explicit
    env = os.environ.get("REPRO_RACE_START_METHOD", "").strip()
    if env:
        return env
    import multiprocessing

    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def _run_attempt(task: dict[str, Any], method: str, budget: float | None) -> Any:
    """Run one exact method inside a worker; returns the answer object.

    Imports are local: this executes in the worker process, and keeping
    them out of module scope avoids an import cycle between
    :mod:`repro.solvers` and the pipelines that build on it.
    """
    from ..abductive.minimum import minimum_sufficient_reason
    from ..counterfactual import closest_counterfactual

    extra = task.get("extra") or {}
    if task["kind"] == "msr":
        return minimum_sufficient_reason(
            task["dataset"],
            task["k"],
            task["metric"],
            task["x"],
            method=method,
            time_limit=budget,
            max_brute_dimension=extra.get("max_brute_dimension", 18),
        )
    return closest_counterfactual(
        task["dataset"],
        task["k"],
        task["metric"],
        task["x"],
        method=method,
        time_limit=budget,
    )


def _worker_main(conn: Any, cancel_event: Any, parent_ends: Any = ()) -> None:
    """Race worker loop: receive a task, run its methods, report each.

    One message per attempt (``("attempt", task_id, method, status,
    elapsed, detail, exc_type, answer)``) followed by a terminal
    ``("done", task_id)``.  The shared *cancel_event* is installed into
    :mod:`repro._budget` once, cleared at the start of every task, and
    consulted before each method (and during stagger sleeps) so a race
    already decided skips the remaining methods instantly.
    *parent_ends* are the parent-side pipe ends a forked worker
    inherited; they are closed first, so a dead parent reads as EOF.
    """
    from .._budget import install_cancel_event

    for end in parent_ends:
        end.close()
    # The hard-kill backstop needs SIGTERM's default action; a worker
    # respawned by `repro serve` would inherit its interrupt handler.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    install_cancel_event(cancel_event)
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        cancel_event.clear()
        task_id = task["task"]
        budget = task["budget"]
        stagger = task.get("stagger") or {}
        for method in task["methods"]:
            if cancel_event.is_set():
                conn.send(
                    ("attempt", task_id, method, "cancelled", 0.0,
                     "cancelled before start", "", None)
                )
                continue
            delay = float(stagger.get(method, 0.0))
            if delay > 0.0 and cancel_event.wait(delay):
                conn.send(
                    ("attempt", task_id, method, "cancelled", 0.0,
                     "cancelled during stagger", "", None)
                )
                continue
            started = time.perf_counter()
            try:
                answer = _run_attempt(task, method, budget)
            except ResourceLimitError as exc:
                elapsed = time.perf_counter() - started
                status = "cancelled" if cancel_event.is_set() else "timeout"
                conn.send(
                    ("attempt", task_id, method, status, elapsed,
                     str(exc), type(exc).__name__, None)
                )
            except (UnsupportedSettingError, ValidationError) as exc:
                elapsed = time.perf_counter() - started
                conn.send(
                    (
                        "attempt",
                        task_id,
                        method,
                        "unsupported",
                        elapsed,
                        str(exc),
                        type(exc).__name__,
                        None,
                    )
                )
            except Exception as exc:  # noqa: BLE001 - reported, never fatal to the pool
                elapsed = time.perf_counter() - started
                conn.send(
                    ("attempt", task_id, method, "error", elapsed,
                     str(exc), type(exc).__name__, None)
                )
            else:
                elapsed = time.perf_counter() - started
                conn.send(("attempt", task_id, method, "exact", elapsed, "", "", answer))
        conn.send(("done", task_id))
    conn.close()


@dataclass(frozen=True)
class RaceAttempt:
    """Outcome of one raced method: status, timing, and the answer if exact."""

    method: str
    status: str  # "exact" | "timeout" | "cancelled" | "unsupported" | "error"
    elapsed_s: float
    detail: str = ""
    exc_type: str = ""
    answer: Any = None


@dataclass(frozen=True)
class RaceOutcome:
    """Result of a process race: per-method attempts plus the winner."""

    attempts: tuple[RaceAttempt, ...]
    winner: RaceAttempt | None
    wall_s: float
    workers: int
    hard_kills: int = 0


class _Worker:
    """A persistent race worker: process, parent pipe end, cancel event."""

    __slots__ = ("process", "conn", "cancel", "busy")

    def __init__(self, process: Any, conn: Any, cancel: Any) -> None:
        self.process = process
        self.conn = conn
        self.cancel = cancel
        self.busy = False

    @property
    def alive(self) -> bool:
        """Whether the worker process can still accept tasks."""
        return self.process.is_alive()


class ProcessRacer:
    """A small persistent pool of processes that race exact solvers.

    Workers are spawned eagerly at construction (so forking happens
    before the caller starts any threads) and respawned lazily after a
    hard kill.  The racer is thread-safe: concurrent races from
    different threads are allocated disjoint workers, and a race that
    finds no free worker returns ``None`` so the caller can fall back
    to sequential racing instead of blocking.
    """

    def __init__(
        self,
        *,
        max_workers: int | None = None,
        start_method: str | None = None,
        grace_s: float = 1.0,
    ) -> None:
        self.max_workers = int(max_workers or max(1, min(3, os.cpu_count() or 1)))
        self.grace_s = float(grace_s)
        self._ctx = get_context(_pick_start_method(start_method))
        self._workers: list[_Worker] = []
        self._lock = threading.Lock()
        self._task_seq = 0
        self._closed = False
        self._counters = {
            "races": 0,
            "attempts": 0,
            "cancelled": 0,
            "hard_kills": 0,
            "inline_fallbacks": 0,
            "workers_spawned": 0,
        }
        with self._lock:
            self._ensure_workers()

    # -- worker lifecycle ----------------------------------------------

    def _ensure_workers(self) -> None:
        # Caller holds self._lock.  Dead workers are reaped and the pool
        # is topped back up to max_workers; spawn failures degrade the
        # pool rather than raising (race() then falls back inline).
        self._workers = [w for w in self._workers if w.alive]
        while len(self._workers) < self.max_workers:
            try:
                cancel = self._ctx.Event()
                parent_conn, child_conn = self._ctx.Pipe(duplex=True)
                # A forked child inherits the parent's end of its own pipe
                # and of every live sibling's; it closes them.
                parent_ends = []
                if self._ctx.get_start_method() == "fork":
                    parent_ends = [parent_conn, *(w.conn for w in self._workers)]
                process = self._ctx.Process(
                    target=_worker_main, args=(child_conn, cancel, parent_ends), daemon=True
                )
                process.start()
                child_conn.close()
            except OSError:  # pragma: no cover - resource exhaustion path
                break
            self._workers.append(_Worker(process, parent_conn, cancel))
            self._counters["workers_spawned"] += 1

    def close(self) -> None:
        """Shut the pool down: polite exit sentinel, then terminate."""
        with self._lock:
            self._closed = True
            workers, self._workers = self._workers, []
        for worker in workers:
            try:
                worker.conn.send(None)
            except (OSError, ValueError, BrokenPipeError):
                pass
        for worker in workers:
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def stats(self) -> dict[str, int]:
        """Lifetime race counters plus current worker liveness."""
        with self._lock:
            out = dict(self._counters)
            out["workers_alive"] = sum(1 for w in self._workers if w.alive)
            out["max_workers"] = self.max_workers
            return out

    # -- racing --------------------------------------------------------

    def race(
        self,
        kind: str,
        dataset: Any,
        k: int,
        metric: str,
        x: Any,
        methods: tuple[str, ...],
        *,
        budget: float | None = None,
        stagger: dict[str, float] | None = None,
        extra: dict[str, Any] | None = None,
    ) -> RaceOutcome | None:
        """Race *methods* over the worker pool; first exact answer wins.

        Returns ``None`` when no worker is free (or the pool is closed)
        so the caller can run the sequential racer inline instead.
        ``stagger`` maps method names to artificial pre-start delays —
        the determinism harness uses it to force arbitrary winners.
        """
        stagger = dict(stagger or {})
        with self._lock:
            if self._closed:
                return None
            self._ensure_workers()
            idle = [w for w in self._workers if w.alive and not w.busy]
            share = idle[: min(len(methods), len(idle))]
            if not share:
                self._counters["inline_fallbacks"] += 1
                return None
            for worker in share:
                worker.busy = True
            self._task_seq += 1
            task_id = self._task_seq
            self._counters["races"] += 1
            self._counters["attempts"] += len(methods)
        try:
            outcome = self._drive(
                task_id, share, kind, dataset, k, metric, x, methods, budget, stagger, extra
            )
        finally:
            with self._lock:
                for worker in share:
                    worker.busy = False
        with self._lock:
            self._counters["cancelled"] += sum(
                1 for a in outcome.attempts if a.status == "cancelled"
            )
            self._counters["hard_kills"] += outcome.hard_kills
        return outcome

    def _drive(
        self,
        task_id: int,
        share: list[_Worker],
        kind: str,
        dataset: Any,
        k: int,
        metric: str,
        x: Any,
        methods: tuple[str, ...],
        budget: float | None,
        stagger: dict[str, float],
        extra: dict[str, Any] | None,
    ) -> RaceOutcome:
        # Deal methods round-robin so each worker runs a serial slice.
        plans = [list(methods[i :: len(share)]) for i in range(len(share))]
        started = time.perf_counter()
        for worker, plan in zip(share, plans):
            worker.cancel.clear()
            worker.conn.send(
                {
                    "task": task_id,
                    "kind": kind,
                    "dataset": dataset,
                    "k": k,
                    "metric": metric,
                    "x": x,
                    "methods": plan,
                    "budget": budget,
                    "stagger": stagger,
                    "extra": extra or {},
                }
            )
        # The overall race wall: worst per-worker schedule (every attempt
        # gets its own fresh budget) plus stagger and scheduling slack.
        deadline = None
        if budget is not None:
            allowance = max(
                sum(float(stagger.get(m, 0.0)) + budget for m in plan) for plan in plans
            )
            deadline = started + allowance + _SCHEDULING_SLACK_S
        pending = {w: plan for w, plan in zip(share, plans)}
        reported: dict[str, RaceAttempt] = {}
        winner: RaceAttempt | None = None
        grace_deadline: float | None = None
        hard_kills = 0
        while pending:
            now = time.perf_counter()
            limit = grace_deadline if grace_deadline is not None else deadline
            if limit is not None and now >= limit:
                if grace_deadline is None:
                    # Budget wall reached with no winner: cooperative
                    # cancel first, hard kill only after the grace window.
                    for worker in pending:
                        worker.cancel.set()
                    grace_deadline = now + self.grace_s
                    continue
                for worker, plan in list(pending.items()):
                    hard_kills += 1
                    worker.process.terminate()
                    worker.process.join(timeout=1.0)
                    try:
                        worker.conn.close()
                    except OSError:  # pragma: no cover
                        pass
                    for method in plan:
                        if method not in reported:
                            reported[method] = RaceAttempt(
                                method,
                                "cancelled",
                                0.0,
                                "hard-killed after the grace window",
                            )
                    del pending[worker]
                break
            timeout = None if limit is None else max(0.0, limit - now)
            ready = connection.wait([w.conn for w in pending], timeout=timeout)
            for conn in ready:
                worker = next(w for w in pending if w.conn is conn)
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # Worker crashed mid-attempt: report what is missing.
                    for method in pending[worker]:
                        if method not in reported:
                            reported[method] = RaceAttempt(
                                method, "error", 0.0, "race worker died"
                            )
                    del pending[worker]
                    continue
                if message[0] == "done":
                    del pending[worker]
                    continue
                _, _, method, status, elapsed, detail, exc_type, answer = message
                reported[method] = RaceAttempt(
                    method, status, float(elapsed), detail, exc_type, answer
                )
                if status == "exact" and winner is None:
                    winner = reported[method]
                    # Cancel everyone still pending — including the
                    # winner's own worker, which may have queued methods.
                    for other in pending:
                        other.cancel.set()
                    # Give the losers one grace window to report their
                    # cancellations, then hard-kill the stragglers.
                    grace_deadline = time.perf_counter() + self.grace_s
        attempts = tuple(
            reported.get(m, RaceAttempt(m, "cancelled", 0.0, "cancelled before start"))
            for m in methods
        )
        return RaceOutcome(
            attempts=attempts,
            winner=winner,
            wall_s=time.perf_counter() - started,
            workers=len(share),
            hard_kills=hard_kills,
        )


_default_racer: ProcessRacer | None = None
_default_lock = threading.Lock()


def default_racer() -> ProcessRacer:
    """The process-wide shared racer, created on first use.

    Sized ``min(3, cpu_count)`` and registered with :mod:`atexit`; the
    serve layer and ad-hoc portfolio calls share it so one pool of
    warm worker processes serves the whole process.
    """
    global _default_racer
    with _default_lock:
        if _default_racer is None or _default_racer._closed:
            _default_racer = ProcessRacer()
            atexit.register(_default_racer.close)
        return _default_racer
