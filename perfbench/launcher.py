"""Start ``repro serve`` with spans recorded around every layer's entry points.

    python perfbench/launcher.py SPANS_DIR serve --port 0 [serve flags...]

The launcher wraps the public entry points of each layer, then hands
the remaining arguments to ``repro.cli.main``.  Nothing under ``src/``
changes: the wrappers are installed on the imported classes and
modules, so forked cluster workers inherit them.

Each process keeps its spans in memory — name, start, end, thread,
parent span and request id — and writes them to
``SPANS_DIR/spans-<pid>.json`` when it shuts down: the front process
after ``main`` returns (SIGINT makes ``repro serve`` shut down cleanly),
a cluster worker when its service is closed.  Times are
``time.monotonic_ns()``, one clock for every process on the machine,
so the benchmark can line spans up with its own request timings.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro import cli, counterfactual, portfolio  # noqa: E402
from repro.abductive import minimum  # noqa: E402
from repro.counterfactual import hamming_sat  # noqa: E402
from repro.knn import MultiClassEngine, QueryEngine  # noqa: E402
from repro.neighbors import kernels  # noqa: E402
from repro.serve import cache, cluster, durability, http, metrics, service  # noqa: E402
from repro.solvers.sat.pool import SATSolverPool  # noqa: E402


class Recorder:
    """The spans of one process, kept in memory until shutdown.

    A span is ``[id, name, start_ns, end_ns, thread, parent_id,
    request_id, info]``; ``parent_id`` is the innermost open span on the
    same thread (0 for none) and ``request_id`` is inherited from the
    parent unless the entry point names one.  ``waits`` holds one
    ``[submit_start_ns, wait_ns]`` pair per request that waited in the
    asyncio batching queue.
    """

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.main_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        """Start empty (also run in each forked child)."""
        self.spans: list[list] = []
        self.waits: list[list[int]] = []
        self.enqueued: dict = {}
        self.ids = itertools.count(1)
        self.local = threading.local()

    def stack(self) -> list:
        """This thread's open spans as ``(id, request_id)`` pairs."""
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def event(self, name: str, info) -> None:
        """Record a zero-length span (a counted event) under the open span."""
        stack = self.stack()
        parent, request_id = stack[-1] if stack else (0, None)
        now = time.monotonic_ns()
        self.spans.append(
            [next(self.ids), name, now, now, threading.get_ident(), parent, request_id, info]
        )

    def dump(self) -> None:
        """Write this process's spans to ``spans-<pid>.json``."""
        path = self.out_dir / f"spans-{os.getpid()}.json"
        with open(path, "w") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans, "waits": self.waits}, handle)


def traced(rec: Recorder, name: str, fn, info=None, request=None):
    """Wrap *fn* so each call records one span.

    ``info(args, kwargs, result)`` stores a per-call detail (rows,
    bytes, hit, method); ``request(args, kwargs)`` names the request id
    when the entry point carries one.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = rec.stack()
        parent, inherited = stack[-1] if stack else (0, None)
        request_id = request(args, kwargs) if request is not None else inherited
        span_id = next(rec.ids)
        stack.append((span_id, request_id))
        result = None
        start = time.monotonic_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.monotonic_ns()
            stack.pop()
            detail = None
            if info is not None:
                try:
                    detail = info(args, kwargs, result)
                except Exception:  # a tracing detail must never change behaviour
                    detail = None
            rec.spans.append(
                [span_id, name, start, end, threading.get_ident(), parent, request_id, detail]
            )

    return wrapper


def patch_method(rec: Recorder, cls, attr: str, name: str, **kwargs) -> None:
    """Replace ``cls.attr`` with its traced wrapper."""
    setattr(cls, attr, traced(rec, name, getattr(cls, attr), **kwargs))


def patch_function(rec: Recorder, module, attr: str, name: str, **kwargs) -> None:
    """Replace a module-level function everywhere the package bound it."""
    original = getattr(module, attr)
    wrapped = traced(rec, name, original, **kwargs)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro"):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _rows(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["points"])


def _arg_request(position: int):
    def request(args, kwargs):
        return args[position] if len(args) > position else kwargs.get("request_id")

    return request


def _kernel_bytes(args, kwargs, result):
    operands = [a for a in (*args, result) if isinstance(a, np.ndarray)]
    return int(sum(a.nbytes for a in operands))


def _race(args, kwargs, result):
    exact = sum(1 for attempt in result.attempts if attempt.status == "exact")
    return [result.method, len(result.attempts), exact]


def _method(default: str):
    return lambda args, kwargs, result: kwargs.get("method", default)


def install(rec: Recorder) -> None:
    """Wrap every layer's public entry points."""
    # serve.http: the per-request handler entry and the explain hop.
    patch_method(
        rec, http._Handler, "_handle", "serve.http.handle",
        request=lambda args, kwargs: args[0].headers.get("X-Request-ID"),
    )
    patch_method(rec, http.ExplanationHTTPServer, "explain", "serve.http.explain")
    # serve.service
    svc = service.ExplanationService
    patch_method(rec, svc, "submit_requests", "serve.service.submit_requests", info=_rows)
    patch_method(rec, svc, "explain", "serve.service.explain", request=_arg_request(5))
    patch_method(rec, svc, "add_points", "serve.service.mutate")
    patch_method(rec, svc, "remove_points", "serve.service.mutate")
    patch_method(rec, svc, "add_dataset", "serve.service.add_dataset")
    _install_queue_wait(rec, svc)
    # serve.cluster: the front's calls into its workers
    front = cluster.ClusterService
    patch_method(rec, front, "explain", "serve.cluster.explain", request=_arg_request(5))
    patch_method(rec, front, "add_points", "serve.cluster.mutate")
    patch_method(rec, front, "remove_points", "serve.cluster.mutate")
    patch_method(rec, front, "add_dataset", "serve.cluster.add_dataset")
    # serve.cache, serve.metrics, serve.durability
    result_cache = cache.ResultCache
    patch_method(
        rec, result_cache, "get", "serve.cache.get",
        info=lambda args, kwargs, result: int(bool(result and result[0])),
    )
    patch_method(rec, result_cache, "put", "serve.cache.put")
    patch_method(rec, result_cache, "invalidate", "serve.cache.invalidate")
    patch_method(rec, metrics.StructuredLogger, "log", "serve.metrics.log")
    store = durability.DurableStore
    patch_method(rec, store, "append_mutation", "serve.durability.append")
    patch_method(rec, store, "snapshot", "serve.durability.snapshot")
    # knn: engine construction, batch paths and mutations
    for engine in (QueryEngine, MultiClassEngine):
        patch_method(rec, engine, "__init__", "knn.build")
        for attr in ("classify_batch", "margins_batch", "radii_batch"):
            patch_method(rec, engine, attr, "knn.batch", info=_rows)
        for attr in ("add_points", "remove_points"):
            patch_method(rec, engine, attr, "knn.mutate")
    for attr in ("class_margins_batch", "class_radii_batch"):
        patch_method(rec, MultiClassEngine, attr, "knn.batch", info=_rows)
    # neighbors: the kernel dispatchers
    for attr in ("gram_l2_powers", "gram_hamming_counts", "xor_popcount_counts"):
        patch_function(rec, kernels, attr, "neighbors.kernel", info=_kernel_bytes)
    # portfolio, abductive, counterfactual, solvers
    for attr in ("portfolio_minimum_sufficient_reason", "portfolio_closest_counterfactual"):
        patch_function(rec, portfolio, attr, "portfolio.race", info=_race)
    patch_function(
        rec, minimum, "minimum_sufficient_reason", "abductive.solve", info=_method("auto")
    )
    patch_function(
        rec, minimum, "minimum_sat_hamming_k1_pooled", "abductive.solve", info=_method("sat")
    )
    patch_function(
        rec, counterfactual, "closest_counterfactual", "counterfactual.solve",
        info=_method("auto"),
    )
    patch_function(
        rec, hamming_sat, "closest_counterfactual_hamming_sat_pooled",
        "counterfactual.solve", info=_method("hamming-sat"),
    )
    patch_function(rec, minimum, "minimum_sr_canonical_witness", "abductive.canonical")
    patch_function(
        rec, hamming_sat, "counterfactual_canonical_witness", "counterfactual.canonical"
    )
    _install_pool_events(rec)
    _install_dump_on_close(rec, svc)


def _install_queue_wait(rec: Recorder, svc) -> None:
    """Time each asyncio request from ``asubmit`` to its ``submit_requests``.

    ``asubmit`` builds its request synchronously before its first
    ``await``, so the wrapped ``make_request`` can tag that request with
    the ``asubmit`` entry time; the wrapped ``submit_requests`` turns
    the tag into a wait when the flush picks the request up.
    """
    asubmit = svc.asubmit
    make_request = traced(rec, "serve.service.make_request", svc.make_request)
    submit_requests = svc.submit_requests

    @functools.wraps(make_request)
    def make_request_tagged(self, *args, **kwargs):
        entered = getattr(rec.local, "asubmit_entered", None)
        rec.local.asubmit_entered = None
        request = make_request(self, *args, **kwargs)
        if entered is not None:
            rec.enqueued[request] = entered
        return request

    @functools.wraps(asubmit)
    async def asubmit_timed(self, *args, **kwargs):
        rec.local.asubmit_entered = time.monotonic_ns()
        response = await asubmit(self, *args, **kwargs)
        rec.enqueued.pop(response.request, None)
        return response

    @functools.wraps(submit_requests)
    def submit_requests_waits(self, requests):
        start = time.monotonic_ns()
        for request in requests:
            entered = rec.enqueued.pop(request, None)
            if entered is not None:
                rec.waits.append([start, start - entered])
        return submit_requests(self, requests)

    svc.make_request = make_request_tagged
    svc.asubmit = asubmit_timed
    svc.submit_requests = submit_requests_waits


def _install_pool_events(rec: Recorder) -> None:
    """Count warm SAT-pool leases as hits or misses."""
    lease = SATSolverPool.lease

    @functools.wraps(lease)
    @contextmanager
    def lease_counted(self, key, build):
        hits = self.stats()["hits"]
        with lease(self, key, build) as entry:
            rec.event("solvers.lease", int(self.stats()["hits"] > hits))
            yield entry

    SATSolverPool.lease = lease_counted


def _install_dump_on_close(rec: Recorder, svc) -> None:
    """Forked cluster workers write their spans when their service closes."""
    close = svc.close

    @functools.wraps(close)
    def close_and_dump(self):
        close(self)
        if os.getpid() != rec.main_pid:
            rec.dump()

    svc.close = close_and_dump
    os.register_at_fork(after_in_child=rec.reset)


def main(argv: list[str]) -> int:
    """Install the wrappers, run ``repro`` with *argv*, write the spans."""
    rec = Recorder(Path(argv[0]))
    install(rec)
    try:
        return cli.main(argv[1:])
    finally:
        rec.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
