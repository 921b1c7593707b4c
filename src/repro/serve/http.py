"""Stdlib-only HTTP front end for single-process and clustered serving.

``repro serve --port 8000`` (or :func:`serve_http` from code) wraps an
:class:`~repro.serve.service.ExplanationService` **or** a
:class:`~repro.serve.cluster.ClusterService` in a
``ThreadingHTTPServer`` speaking JSON over the ``/v2`` resource scheme:

==============  ==============================  ==============================
method          path                            body / response
==============  ==============================  ==============================
GET             ``/healthz``                    ``{"status": "ok",
                                                "datasets": N}``
GET             ``/metrics``                    Prometheus text exposition of
                                                every serving/durability
                                                series (also reachable as
                                                ``/v2/metrics``); see
                                                ``docs/metrics.md``
GET             ``/v2/stats``                   service counters + cache stats
GET             ``/v2/cluster``                 topology: workers, replicas,
                                                placement, queue depths
POST            ``/v2/datasets``                ``{"positives", "negatives",
                                                "discrete", ...}`` →
                                                ``{"fingerprint", ...}``
GET             ``/v2/datasets/<fp>``           current metadata: versioned
                                                fingerprint, shape, counts
DELETE          ``/v2/datasets/<fp>``           drop dataset + invalidate its
                                                cache (a superseded
                                                ``<fp>@vN`` sweeps just that
                                                version's entries)
POST            ``/v2/datasets/<fp>/points``    ``{"points", "labels",
                                                "multiplicities"}`` →
                                                streaming insert; returns the
                                                new ``<fp>@vN`` fingerprint
DELETE          ``/v2/datasets/<fp>/points``    same body → streaming removal
POST            ``/v2/explain``                 one envelope for single and
                                                batch: ``{"fingerprint",
                                                "method", "params",
                                                "instances"}`` →
                                                ``{"results": [...]}``
==============  ==============================  ==============================

**Errors** are one envelope everywhere — ``{"error": {"type",
"message", "detail"}}`` — with the status mapping documented in
:mod:`repro.serve.errors` (``OverloadedError`` → 429,
``UnknownDatasetError`` → 404, validation → 400, other library errors →
422, internal → 500).

Bodies need a ``Content-Length`` of at most :data:`MAX_BODY_BYTES`; a
chunked, negative, malformed or oversized length is a 400.  A reply to a
request whose body was not read closes the connection, so the unread
bytes are never parsed as a next request.

Fingerprints in paths may be bare (always the *current* version) or
versioned (``<fp>@vN``); both are validated strictly before they can
reach the cache's disk sweep.

**Provenance**: every response carries an ``X-Request-ID`` header — the
caller's own header value when supplied, a fresh
:func:`~repro.serve.metrics.new_request_id` otherwise.  The same id is
threaded into the serving target (and, for a cluster, across the pipe
into the worker's ``explain_served`` log record), so one grep over the
structured logs follows a request front → worker → solver.

Each HTTP request is handled on its own thread.  With a single-process
service every explanation funnels through **one** asyncio loop (a
daemon thread) running the micro-batching queue, so concurrent clients
share vectorized engine calls, and every batch runs on **one** batch
thread: batches run one at a time anyway, and a second thread would
only spread the solvers' allocations over a second malloc arena.  With
a cluster the handler threads call
:meth:`~repro.serve.cluster.ClusterService.explain` directly — the
scatter/gather front is already thread-safe and the workers do the
batching.  Non-finite floats are encoded as the strings ``"Infinity"``
/ ``"-Infinity"`` / ``"NaN"`` so the wire format stays strict JSON.

Every reply — JSON, error envelope or ``/metrics`` text — leaves in
**one** write on a ``TCP_NODELAY`` socket.  A head and a body sent in
two writes with Nagle's algorithm on would hold the body back until
the client's delayed ACK of the head, about 40 ms on every reply.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter

import numpy as np

from ..exceptions import ValidationError
from ..knn import Dataset, MultiClassDataset
from .cache import split_fingerprint
from .errors import error_envelope, error_payload, status_for
from .metrics import PROMETHEUS_CONTENT_TYPE, StructuredLogger, new_request_id

#: largest accepted request body (16 MiB) — a serving process should not
#: be OOM-able by one oversized POST.
MAX_BODY_BYTES = 16 << 20

#: a well-formed URL fingerprint: 64 hex chars, optionally ``@v<digits>``.
#: Anything else is rejected before it can reach the cache's disk sweep
#: (no wildcard deletion via the URL), without loosening the hex check.
_FINGERPRINT_RE = re.compile(r"^[0-9a-f]{64}(@v[0-9]+)?$")

#: the path prefix of every versioned route.
_API_VERSION = "v2"


def jsonable(obj):
    """Recursively convert *obj* into strict-JSON-encodable values.

    numpy scalars/arrays become python scalars/lists; non-finite floats
    become ``"Infinity"`` / ``"-Infinity"`` / ``"NaN"`` strings (strict
    JSON has no literal for them and many clients reject the python
    extensions).
    """
    if isinstance(obj, dict):
        return {str(key): jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(value) for value in obj.tolist()]
    if isinstance(obj, (np.integer, np.bool_)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if value != value:
            return "NaN"
        if value == float("inf"):
            return "Infinity"
        if value == float("-inf"):
            return "-Infinity"
        return value
    return obj


class _NotFound(ValidationError):
    """Internal marker for an unroutable path (mapped to a plain 404)."""


class ExplanationHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one serving target.

    The target is an :class:`ExplanationService` (micro-batched through
    one asyncio loop) or a
    :class:`~repro.serve.cluster.ClusterService` (scatter/gather,
    called directly).  ``port=0`` binds an ephemeral port; read the
    actual one from :attr:`port`.  :meth:`shutdown` stops the HTTP
    threads, the batching loop and its batch thread, and closes the
    target.
    """

    daemon_threads = True

    def __init__(self, service, host: str = "127.0.0.1", port: int = 8000):
        super().__init__((host, port), _Handler)
        self.service = service
        # Share the target's structured-log stream (silent when the
        # target has none — libraries stay quiet by default).
        target_log = getattr(service, "log", None)
        if isinstance(target_log, StructuredLogger):
            self.log = target_log.child("http")
        else:
            self.log = StructuredLogger(None, component="http")
        self.loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._batch_executor: ThreadPoolExecutor | None = None
        if hasattr(service, "asubmit"):  # single-process: shared batching loop
            self.loop = asyncio.new_event_loop()
            # _flush_pending runs one batch at a time: one thread runs them all.
            self._batch_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve-batch"
            )
            self.loop.set_default_executor(self._batch_executor)
            self._loop_thread = threading.Thread(
                target=self.loop.run_forever, name="repro-serve-loop", daemon=True
            )
            self._loop_thread.start()

    @property
    def port(self) -> int:
        """The actually bound port (useful with ``port=0``)."""
        return self.server_address[1]

    def shutdown(self) -> None:
        """Stop serving HTTP, wind down the batching loop, close the target."""
        super().shutdown()
        if self.loop is not None:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._loop_thread.join(timeout=5)
            self._batch_executor.shutdown(wait=True)  # lets a running batch finish
            self.loop.close()
        close = getattr(self.service, "close", None)
        if close is not None:
            close()

    def explain(
        self, fingerprint: str, method: str, instances, params,
        request_id: str | None = None,
    ) -> list[dict]:
        """Serve one homogeneous batch; returns wire-ready result dicts.

        Single-process targets go through the shared asyncio
        micro-batching loop (concurrent HTTP clients share kernel
        calls); clusters are called directly on the handler thread.
        ``request_id`` rides along either way, so the target's
        ``explain_served`` record carries the id stamped on the HTTP
        response.
        """
        if self.loop is None:
            return self.service.explain(
                fingerprint, method, instances, params, request_id
            )

        async def gather():
            return await asyncio.gather(
                *(
                    self.service.asubmit(fingerprint, method, instance, **params)
                    for instance in instances
                )
            )

        start = perf_counter()
        responses = asyncio.run_coroutine_threadsafe(gather(), self.loop).result()
        if self.service.log.enabled:
            # The asyncio path bypasses ExplanationService.explain, so
            # emit its provenance record here, with the same fields.
            self.service.log.log(
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


class _Handler(BaseHTTPRequestHandler):
    """Route table and JSON plumbing for :class:`ExplanationHTTPServer`."""

    server: ExplanationHTTPServer
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # TCP_NODELAY on every accepted socket

    # -- verbs -----------------------------------------------------------

    def do_GET(self) -> None:
        """Route a GET through the shared handler table."""
        self._handle("GET")

    def do_POST(self) -> None:
        """Route a POST through the shared handler table."""
        self._handle("POST")

    def do_DELETE(self) -> None:
        """Route a DELETE through the shared handler table."""
        self._handle("DELETE")

    def _handle(self, verb: str) -> None:
        """Dispatch one request and map any exception to the error surface.

        Stamps every response with an ``X-Request-ID`` (honoring a
        caller-supplied header) and emits one structured
        ``http_request`` access record when the server has a log
        stream.
        """
        start = perf_counter()
        self.request_id = self.headers.get("X-Request-ID") or new_request_id()
        self._status = 500
        self._body_read = False
        try:
            segments = [part for part in self.path.split("/") if part]
            if verb == "GET" and self._is_metrics_path(segments):
                self._reply_metrics()
            else:
                self._reply(200, self._route(verb, segments))
        except _NotFound:
            self._reply_error(
                _NotFound(f"unknown path {self.path!r}"), status=404
            )
        except Exception as exc:
            self._reply_error(exc)
        finally:
            if self.server.log.enabled:
                self.server.log.log(
                    "http_request",
                    request_id=self.request_id,
                    verb=verb,
                    path=self.path,
                    status=self._status,
                    elapsed_ms=round((perf_counter() - start) * 1000.0, 3),
                )

    @staticmethod
    def _is_metrics_path(segments: list[str]) -> bool:
        """``/metrics`` (scrape-config friendly) or ``/v2/metrics``."""
        return segments in (["metrics"], [_API_VERSION, "metrics"])

    def _route(self, verb: str, segments: list[str]) -> dict:
        """The handler table: ``/healthz`` plus every ``/v2`` route."""
        if segments == ["healthz"] and verb == "GET":
            return {
                "status": "ok",
                "datasets": len(self.server.service.fingerprints()),
            }
        if not segments or segments[0] != _API_VERSION:
            raise _NotFound()
        rest = segments[1:]
        if rest == ["stats"] and verb == "GET":
            return self.server.service.stats()
        if rest == ["cluster"] and verb == "GET":
            return self._cluster_info()
        if rest == ["explain"] and verb == "POST":
            return self._explain(self._read_json())
        if rest == ["datasets"] and verb == "POST":
            return self._register_dataset(self._read_json())
        if len(rest) == 2 and rest[0] == "datasets":
            fingerprint = self._checked_fingerprint(rest[1])
            if verb == "GET":
                return self.server.service.describe(fingerprint)
            if verb == "DELETE":
                removed = self.server.service.remove_dataset(fingerprint)
                return {"fingerprint": fingerprint, "invalidated": removed}
        if len(rest) == 3 and rest[0] == "datasets" and rest[2] == "points":
            fingerprint = self._checked_fingerprint(rest[1])
            if verb in ("POST", "DELETE"):
                return self._mutate_dataset(
                    fingerprint, self._read_json(), add=verb == "POST"
                )
        raise _NotFound()

    # -- endpoint bodies --------------------------------------------------

    @staticmethod
    def _checked_fingerprint(fingerprint: str) -> str:
        """Reject anything but ``<64 hex>`` or ``<64 hex>@v<digits>``."""
        if _FINGERPRINT_RE.match(fingerprint) is None:
            raise ValidationError(
                "malformed fingerprint (want 64 hex chars, optionally @v<N>)"
            )
        return fingerprint

    def _cluster_info(self) -> dict:
        """``/v2/cluster``: topology of a cluster, or the 1-process shape."""
        info = getattr(self.server.service, "cluster_info", None)
        if info is None:
            return {"mode": "single-process", "workers": 1, "replicas": 1}
        return {"mode": "cluster", **info()}

    def _mutate_dataset(self, fingerprint: str, body: dict, *, add: bool) -> dict:
        """Apply one streaming insert/remove batch to a registered dataset."""
        if "points" not in body or "labels" not in body:
            raise ValidationError("body needs 'points' and 'labels'")
        mutate = (
            self.server.service.add_points if add else self.server.service.remove_points
        )
        return mutate(
            fingerprint,
            body["points"],
            body["labels"],
            multiplicities=body.get("multiplicities"),
        )

    def _register_dataset(self, body: dict) -> dict:
        """Build and register a dataset from a JSON body.

        ``{"positives", "negatives", ...}`` registers a binary
        :class:`~repro.knn.Dataset`; ``{"points", "labels", ...}`` (an
        integer label per row) registers a multiclass
        :class:`~repro.knn.MultiClassDataset`.  The two shapes are
        mutually exclusive — mixing them is a validation error.
        """
        multiclass = "points" in body or "labels" in body
        if multiclass and ("positives" in body or "negatives" in body):
            raise ValidationError(
                "register either a binary dataset (positives/negatives) or a "
                "multiclass one (points/labels), not both"
            )
        if multiclass:
            if "points" not in body or "labels" not in body:
                raise ValidationError(
                    "multiclass registration needs both 'points' and 'labels'"
                )
            data = MultiClassDataset(
                body["points"],
                body["labels"],
                multiplicities=body.get("multiplicities"),
                discrete=_discrete_flag(body),
            )
            fingerprint = self.server.service.add_dataset(data)
            return {
                "fingerprint": fingerprint,
                "dimension": data.dimension,
                "classes": [int(c) for c in data.classes],
                "counts": {str(c): int(n) for c, n in data.counts.items()},
            }
        data = Dataset(
            body["positives"],
            body["negatives"],
            positive_multiplicities=body.get("positive_multiplicities"),
            negative_multiplicities=body.get("negative_multiplicities"),
            discrete=_discrete_flag(body),
        )
        fingerprint = self.server.service.add_dataset(data)
        return {
            "fingerprint": fingerprint,
            "dimension": data.dimension,
            "n_positive": data.n_positive,
            "n_negative": data.n_negative,
        }

    def _explain(self, body: dict) -> dict:
        """One request envelope for single and batch explanation calls.

        Takes exactly ``{"fingerprint", "method", "params", "instances"}``
        and always answers ``{"results": [...]}``.
        """
        fingerprint = body["fingerprint"]
        method = body["method"]
        params = body.get("params", {})
        if not isinstance(params, dict):
            raise ValidationError("params must be a JSON object")
        if "instances" not in body:
            raise ValidationError("body needs 'instances'")
        instances = body["instances"]
        if not isinstance(instances, list):
            raise ValidationError("'instances' must be a list of vectors")
        results = self.server.explain(
            fingerprint, method, instances, params, self.request_id
        )
        return {"results": results}

    # -- plumbing ---------------------------------------------------------

    def _read_json(self) -> dict:
        """Decode the request body as a JSON object (size-capped)."""
        if "Transfer-Encoding" in self.headers:
            raise ValidationError(
                "chunked request bodies are not supported; send Content-Length"
            )
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise ValidationError("Content-Length must be an integer") from None
        if length < 0:
            raise ValidationError("Content-Length must not be negative")
        if length > MAX_BODY_BYTES:
            raise ValidationError(
                f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        raw = self.rfile.read(length) if length else b""
        self._body_read = True
        body = json.loads(raw.decode("utf-8") or "{}")
        if not isinstance(body, dict):
            raise ValidationError("request body must be a JSON object")
        return body

    def _reply_error(self, exc: BaseException, status: int | None = None) -> None:
        """Render *exc* through the unified envelope + status mapping."""
        status = status_for(exc) if status is None else status
        if status == 500:
            # Never leak arbitrary exception class names for unexpected
            # failures; the documented type for these is "InternalError".
            payload = error_envelope(
                "InternalError", str(exc) or exc.__class__.__name__
            )
        else:
            payload = error_payload(exc)
        self._reply(status, payload)

    def _reply_metrics(self) -> None:
        """``GET /metrics``: the target's Prometheus text exposition page."""
        render = getattr(self.server.service, "metrics_text", None)
        if render is None:
            raise _NotFound()
        self._reply_bytes(
            200, render().encode("utf-8"), content_type=PROMETHEUS_CONTENT_TYPE
        )

    def _reply(self, status: int, payload: dict) -> None:
        """Serialize *payload* as JSON and finish the response."""
        blob = json.dumps(jsonable(payload)).encode("utf-8")
        self._reply_bytes(status, blob, content_type="application/json")

    def _reply_bytes(self, status: int, blob: bytes, *, content_type: str) -> None:
        """Finish the response with *blob* (shared by JSON and text bodies)."""
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(blob)))
        self.send_header("X-Request-ID", getattr(self, "request_id", "-"))
        declared = self.headers.get("Content-Length", "0") != "0" or (
            "Transfer-Encoding" in self.headers
        )
        if declared and not self._body_read:
            # The unread body would otherwise be parsed as the next
            # request on this keep-alive connection.
            self.send_header("Connection", "close")
        # One write for head and body: end_headers() would send the head
        # by itself.  An HTTP/0.9 reply has no head, only the body.
        head = b"".join(getattr(self, "_headers_buffer", ()))
        self._headers_buffer = []
        self.wfile.write(head + b"\r\n" + blob if head else blob)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence per-request stderr logging (stats live at /v2/stats)."""


def _discrete_flag(body: dict) -> bool:
    """A registration's ``discrete`` field: JSON ``true``/``false``, default false.

    Anything else is rejected: ``bool("false")`` is true, and a wrong flag
    would register another lineage (new fingerprint, Hamming default).
    """
    discrete = body.get("discrete", False)
    if not isinstance(discrete, bool):
        raise ValidationError("'discrete' must be true or false")
    return discrete


def serve_http(service, *, host: str = "127.0.0.1", port: int = 8000):
    """Bind an :class:`ExplanationHTTPServer`; call ``serve_forever()`` on it.

    *service* may be a single-process :class:`ExplanationService` or a
    :class:`~repro.serve.cluster.ClusterService`.  Returned unstarted so
    callers (tests, the CLI) control the serving thread; ``server.port``
    holds the bound port when ``port=0``.
    """
    return ExplanationHTTPServer(service, host=host, port=port)
