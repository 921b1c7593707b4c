"""``repro.serve`` — the batched, cached, sharded explanation serving layer.

Where the rest of the library is one-shot ("build an engine, answer a
question, exit"), this package is the long-lived process the ROADMAP's
scaling north star calls for:

* :class:`ExplanationService` owns warm
  :class:`~repro.knn.QueryEngine` instances per registered dataset
  fingerprint, micro-batches compatible requests through the engine's
  vectorized paths, and memoizes every answer in a
  :class:`ResultCache` keyed by
  ``(dataset fingerprint, instance bytes, method, params)``;
* :class:`ClusterService` scales that out horizontally: dataset
  lineages are sharded over worker processes by content fingerprint,
  hot lineages get read replicas, and bounded per-worker queues shed
  overload as structured :class:`OverloadedError` (HTTP 429) instead
  of stalling — see :mod:`repro.serve.cluster`;
* :func:`serve_http` / :class:`~repro.serve.http.ExplanationHTTPServer`
  expose either target over a stdlib-only JSON HTTP endpoint speaking
  the ``/v2`` resource scheme with one documented error envelope
  (:mod:`repro.serve.errors`);
* :func:`run_load` / :class:`LoadSpec` generate deterministic open-loop
  mixed traffic against either target — the measurement harness behind
  the ``serve_scaleout`` benchmark headline;
* :func:`dataset_fingerprint` is the content hash that keys the engine
  registry, the cache, *and* cluster shard placement, making
  dataset-change invalidation and routing exact;
* :class:`DurableStore` (see :mod:`repro.serve.durability`) makes
  dataset lineages survive crashes — an fsync'd mutation WAL plus
  periodic snapshots, replayed on boot by either service when given a
  ``state_dir`` — and :class:`MetricsRegistry` /
  :class:`StructuredLogger` (see :mod:`repro.serve.metrics`) provide
  the ``GET /metrics`` Prometheus page and provenance-id structured
  logging documented in ``docs/metrics.md`` / ``docs/operations.md``.

See ``docs/api.md`` for the HTTP surface, ``docs/architecture.md`` for
the request flow and cluster topology, and the README's "Serving
explanations" quickstart.  The batched path's throughput is the
``serve_throughput`` headline and the cluster's tail latency the
``serve_scaleout`` headline (both gated ≥ 3× in CI).

This module's ``__all__`` is the **frozen public API** of the serving
layer — ``tests/test_api_surface.py`` asserts it never silently
shrinks.
"""

from __future__ import annotations

from ..exceptions import DurabilityError, OverloadedError, UnknownDatasetError
from .cache import (
    ResultCache,
    dataset_fingerprint,
    request_key,
    split_fingerprint,
    versioned_fingerprint,
)
from .cluster import ClusterService
from .durability import DurableStore, RestoredLineage
from .errors import error_envelope, status_for
from .http import ExplanationHTTPServer, serve_http
from .loadgen import LoadReport, LoadSpec, build_workload, run_load
from .metrics import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    StructuredLogger,
    new_request_id,
    render_states,
    stderr_logger,
)
from .service import (
    BATCH_METHODS,
    METHODS,
    SOLVER_METHODS,
    ExplanationRequest,
    ExplanationResponse,
    ExplanationService,
)

__all__ = [
    "BATCH_METHODS",
    "SOLVER_METHODS",
    "METHODS",
    "PROMETHEUS_CONTENT_TYPE",
    "ClusterService",
    "DurabilityError",
    "DurableStore",
    "ExplanationRequest",
    "ExplanationResponse",
    "ExplanationService",
    "ExplanationHTTPServer",
    "LoadReport",
    "LoadSpec",
    "MetricsRegistry",
    "OverloadedError",
    "RestoredLineage",
    "ResultCache",
    "StructuredLogger",
    "UnknownDatasetError",
    "build_workload",
    "dataset_fingerprint",
    "error_envelope",
    "new_request_id",
    "render_states",
    "request_key",
    "run_load",
    "serve_http",
    "split_fingerprint",
    "status_for",
    "stderr_logger",
    "versioned_fingerprint",
]
