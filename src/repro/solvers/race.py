"""The portfolio's one attempt loop, run in process or raced across processes.

:func:`attempts` runs a task's exact methods in order, classifies each
outcome as ``exact``, ``timeout``, ``cancelled``, ``unsupported`` or
``error`` (a member's unexpected exception never escapes the loop) and
stops at the first exact answer.  The sequential portfolio runs it in
process; :class:`ProcessRacer` runs it in a small pool of persistent
worker processes, one slice of the methods per worker, and streams
every attempt back to the parent.  The first exact answer cancels the
losers cooperatively: every worker carries a shared
``multiprocessing.Event`` that the parent sets once a winner is known,
and the workers install it into :mod:`repro._budget`, so every budget
checkpoint inside the SAT/brute pipelines (and the SAT encoders)
doubles as a cancellation point (the attempt unwinds through the usual
:class:`~repro.exceptions.ResourceLimitError` path).  The race returns
only once every worker of the race has reported, so its wall clock is
the slowest loser's path to its next checkpoint.  Methods that cannot
observe the event mid-solve — scipy's MILP runs to completion — are
covered by a hard-kill backstop after a grace window of
:data:`_GRACE_S`, and the killed worker is respawned lazily before the
next race.

Budget accounting is per attempt: each method converts its budget to a
deadline when it actually starts, so a cancelled or timed-out attempt
never burns the next attempt's budget; the parent separately enforces
an overall race wall derived from the worst-case per-worker schedule
plus the grace window.

Workers are allocated per race and methods are dealt round-robin, so
the racer degrades gracefully: with at least as many free workers as
methods every method runs concurrently; with one worker the race is
sequential-in-child; with zero free workers :meth:`ProcessRacer.race`
returns ``None`` and the caller runs :func:`attempts` in process.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any, Iterator

from ..exceptions import ResourceLimitError, UnsupportedSettingError, ValidationError

__all__ = ["ProcessRacer", "RaceAttempt", "RaceOutcome", "attempts", "default_racer"]

# Slack added to the parent's overall race wall on top of the summed
# per-attempt budgets: covers task pickling and scheduling latency.
_SCHEDULING_SLACK_S = 0.25

# How long cancelled losers get to report before they are hard-killed.
_GRACE_S = 1.0


def preferred_context():
    """The context worker pools start from: ``fork`` where the platform has it, else ``spawn``.

    Forked workers inherit the imported solver stack for free; both the
    race pool and the serving cluster start their processes from here.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def run_attempt(
    task: dict[str, Any], method: str, budget: float | None, cap: int | None = None
) -> Any:
    """Run one exact *method* of *task*; returns the pipeline's answer.

    In-process tasks carry the shared ``engine`` and a ``solver_pool``
    (with its ``fingerprint``): the caller's warm pool or a private
    one-entry one.  Worker tasks carry neither.  The k = 1 Hamming SAT
    members go straight to the one SAT sweep, on the pool when there is
    one and on a throwaway solver otherwise.  *cap* bounds the brute
    members' enumeration in classified candidate rows (None = their own
    default).  Imports are local: :mod:`repro.solvers` sits below the
    pipelines that build on it.
    """
    from ..abductive.minimum import minimum_sat_hamming_k1_pooled, minimum_sufficient_reason
    from ..counterfactual import closest_counterfactual
    from ..counterfactual.hamming_sat import closest_counterfactual_hamming_sat_pooled

    dataset, k, metric, x = task["dataset"], task["k"], task["metric"], task["x"]
    engine = task.get("engine")
    sweep = {
        "solver_pool": task.get("solver_pool"),
        "fingerprint": task.get("fingerprint"),
        "time_limit": budget,
    }
    one_sat = k == 1 and metric == "hamming"
    if task["kind"] == "msr":
        if method == "sat" and one_sat:
            return minimum_sat_hamming_k1_pooled(dataset, x, engine, **sweep)
        return minimum_sufficient_reason(
            dataset, k, metric, x,
            method=method, engine=engine, time_limit=budget,
            max_brute_dimension=task["max_brute_dimension"], max_enumeration=cap,
        )
    if method == "hamming-sat" and one_sat:
        return closest_counterfactual_hamming_sat_pooled(
            dataset, k, x, query_engine=engine, **sweep
        )
    capped = {"max_enumeration": cap} if method == "hamming-brute" and cap is not None else {}
    return closest_counterfactual(
        dataset, k, metric, x,
        method=method, query_engine=engine, time_limit=budget, **capped,
    )


def _status(exc: Exception, cancel: Any) -> str:
    """Classify a failed attempt by the exception it raised."""
    if isinstance(exc, ResourceLimitError):
        return "cancelled" if cancel.is_set() else "timeout"
    if isinstance(exc, (UnsupportedSettingError, ValidationError)):
        return "unsupported"
    return "error"


def attempts(task: dict[str, Any], cancel: Any = None) -> Iterator[RaceAttempt]:
    """Run *task*'s methods in order, yielding one attempt each, up to the first exact.

    A task names the problem (``kind`` ``"msr"`` or ``"cf"``,
    ``dataset``, ``k``, ``metric`` name, ``x``, and for Minimum-SR
    ``max_brute_dimension``), the ``methods`` to try, the per-method
    ``budget`` (seconds, None = no cap), optional per-method ``stagger``
    start delays, the optional ``brute_cap`` (classified candidate rows)
    and the in-process-only keys :func:`run_attempt` reads.  The cap
    binds only while a later method remains: a brute member past it
    reports ``unsupported`` and yields, and a brute member that runs
    last is never capped.  *cancel* is the race's cancel event (a race
    worker's shared one; in process, a private event nobody sets): once
    set, the remaining methods report ``cancelled`` without starting.
    """
    cancel = cancel if cancel is not None else threading.Event()
    budget = task["budget"]
    stagger = task.get("stagger") or {}
    methods = task["methods"]
    for i, method in enumerate(methods):
        if cancel.is_set():
            yield RaceAttempt(method, "cancelled", 0.0, "cancelled before start")
            continue
        if budget is not None and budget <= 0:
            yield RaceAttempt(method, "timeout", 0.0, "per-method budget is zero")
            continue
        delay = float(stagger.get(method, 0.0))
        if delay > 0.0 and cancel.wait(delay):
            yield RaceAttempt(method, "cancelled", 0.0, "cancelled during stagger")
            continue
        cap = task.get("brute_cap") if i + 1 < len(methods) else None
        started = time.perf_counter()
        try:
            answer = run_attempt(task, method, budget, cap)
        except Exception as exc:  # noqa: BLE001 - classified; never fatal to the race
            elapsed = time.perf_counter() - started
            yield RaceAttempt(
                method, _status(exc, cancel), elapsed, str(exc), type(exc).__name__
            )
            continue
        yield RaceAttempt(method, "exact", time.perf_counter() - started, answer=answer)
        return


def _worker_main(conn: Any, cancel_event: Any, parent_ends: Any = ()) -> None:
    """Race worker loop: receive a task, stream its :func:`attempts`, then ``None``.

    The shared *cancel_event* is installed into :mod:`repro._budget`
    once; the parent clears it before sending each task.  *parent_ends*
    are the parent-side pipe ends a forked worker inherited; they are
    closed first, so a dead parent reads as EOF.
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
        for attempt in attempts(task, cancel_event):
            conn.send(attempt)
        conn.send(None)
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

    def __init__(self, *, max_workers: int | None = None) -> None:
        self.max_workers = int(max_workers or max(1, min(3, os.cpu_count() or 1)))
        self._ctx = preferred_context()
        self._workers: list[_Worker] = []
        self._lock = threading.Lock()
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

    def race(self, task: dict[str, Any]) -> RaceOutcome | None:
        """Race *task*'s methods over the worker pool; first exact answer wins.

        *task* is an :func:`attempts` task without the in-process-only
        keys.  Returns ``None`` when no worker is free (or the pool is
        closed) so the caller can run the attempts in process instead.
        """
        methods = task["methods"]
        with self._lock:
            if self._closed:
                return None
            self._ensure_workers()
            share = [w for w in self._workers if w.alive and not w.busy][: len(methods)]
            if not share:
                self._counters["inline_fallbacks"] += 1
                return None
            for worker in share:
                worker.busy = True
            self._counters["races"] += 1
            self._counters["attempts"] += len(methods)
        try:
            outcome = self._drive(share, task)
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

    def _drive(self, share: list[_Worker], task: dict[str, Any]) -> RaceOutcome:
        # Deal methods round-robin so each worker runs a serial slice.
        methods = task["methods"]
        plans = [methods[i :: len(share)] for i in range(len(share))]
        started = time.perf_counter()
        for worker, plan in zip(share, plans):
            worker.cancel.clear()
            worker.conn.send({**task, "methods": plan})
        # The overall race wall: worst per-worker schedule (every attempt
        # gets its own fresh budget) plus stagger and scheduling slack.
        deadline = None
        if task["budget"] is not None:
            stagger = task.get("stagger") or {}
            allowance = max(
                sum(float(stagger.get(m, 0.0)) + task["budget"] for m in plan)
                for plan in plans
            )
            deadline = started + allowance + _SCHEDULING_SLACK_S
        pending = dict(zip(share, plans))
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
                    grace_deadline = now + _GRACE_S
                    continue
                for worker, plan in pending.items():
                    hard_kills += 1
                    worker.process.terminate()
                    worker.process.join(timeout=1.0)
                    worker.conn.close()
                    for method in plan:
                        reported.setdefault(method, RaceAttempt(
                            method, "cancelled", 0.0, "hard-killed after the grace window"
                        ))
                break
            timeout = None if limit is None else limit - now
            for conn in connection.wait([w.conn for w in pending], timeout=timeout):
                worker = next(w for w in pending if w.conn is conn)
                try:
                    attempt = conn.recv()
                except (EOFError, OSError):
                    # Worker crashed mid-attempt: report what is missing.
                    for method in pending.pop(worker):
                        reported.setdefault(
                            method, RaceAttempt(method, "error", 0.0, "race worker died")
                        )
                    continue
                if attempt is None:
                    del pending[worker]
                    continue
                reported[attempt.method] = attempt
                if attempt.status == "exact" and winner is None:
                    winner = attempt
                    # Cancel everyone still pending, then give the losers
                    # one grace window to report before the hard kill.
                    for other in pending:
                        other.cancel.set()
                    grace_deadline = time.perf_counter() + _GRACE_S
        return RaceOutcome(
            attempts=tuple(
                reported.get(m, RaceAttempt(m, "cancelled", 0.0, "cancelled before start"))
                for m in methods
            ),
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
