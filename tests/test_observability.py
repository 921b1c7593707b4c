"""Observability layer: Prometheus rendering, merging, logs, and /metrics.

Covers the stdlib metric primitives (counter/gauge/histogram and the
text exposition format), the cross-process state merge the cluster
front relies on, the structured JSON logger with provenance ids, and
the ``GET /metrics`` endpoint on both serving topologies.
"""

from __future__ import annotations

import io
import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.knn import Dataset
from repro.serve import (
    PROMETHEUS_CONTENT_TYPE,
    ExplanationService,
    MetricsRegistry,
    StructuredLogger,
    new_request_id,
    render_states,
    serve_http,
)

# -- primitives ------------------------------------------------------------


def test_counter_renders_and_rejects_decrease():
    reg = MetricsRegistry()
    c = reg.counter("repro_things_total", "Things.", ("kind",))
    c.labels(kind="a").inc()
    c.labels(kind="a").inc(2)
    c.labels(kind="b").inc()
    text = reg.render()
    assert '# TYPE repro_things_total counter' in text
    assert 'repro_things_total{kind="a"} 3' in text
    assert 'repro_things_total{kind="b"} 1' in text
    with pytest.raises(ValueError):
        c.labels(kind="a").inc(-1)


def test_label_mismatch_and_kind_conflict_raise():
    reg = MetricsRegistry()
    c = reg.counter("repro_x_total", "X.", ("op",))
    with pytest.raises(ValueError):
        c.labels(wrong="a")
    with pytest.raises(ValueError):
        reg.gauge("repro_x_total")  # already registered as a counter
    # get-or-create returns the same object for the same name.
    assert reg.counter("repro_x_total") is c


def test_label_values_are_escaped():
    reg = MetricsRegistry()
    reg.gauge("repro_g", "G.", ("path",)).set(1, path='a"b\\c\nd')
    assert r'path="a\"b\\c\nd"' in reg.render()


def test_histogram_buckets_are_cumulative():
    reg = MetricsRegistry()
    h = reg.histogram("repro_h_seconds", "H.", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        h.observe(value)
    text = reg.render()
    assert 'repro_h_seconds_bucket{le="0.1"} 1' in text
    assert 'repro_h_seconds_bucket{le="1"} 2' in text
    assert 'repro_h_seconds_bucket{le="+Inf"} 3' in text
    assert "repro_h_seconds_count 3" in text
    assert "repro_h_seconds_sum 5.55" in text


def test_render_states_merges_across_registries():
    # Two "worker processes": counters sum, histogram buckets add up,
    # and worker-labeled gauges stay distinct series.
    a, b = MetricsRegistry(), MetricsRegistry()
    for index, reg in enumerate((a, b)):
        reg.counter("repro_req_total", "R.").inc(10)
        reg.histogram("repro_lat_seconds", "L.", buckets=(1.0,)).observe(0.5)
        reg.gauge("repro_depth", "D.", ("worker",)).set(index + 1, worker=str(index))
    text = render_states([a.state(), b.state()])
    assert "repro_req_total 20" in text
    assert 'repro_lat_seconds_bucket{le="1"} 2' in text
    assert "repro_lat_seconds_count 2" in text
    assert 'repro_depth{worker="0"} 1' in text
    assert 'repro_depth{worker="1"} 2' in text
    # States survive a JSON round trip (they cross a pipe in production).
    assert render_states([json.loads(json.dumps(a.state()))])


def test_set_total_mirrors_external_counters():
    reg = MetricsRegistry()
    c = reg.counter("repro_hits_total", "H.", ("outcome",))
    c.set_total(41, outcome="hit")
    c.set_total(42, outcome="hit")  # overwrite, not add: mirrors stats()
    assert 'repro_hits_total{outcome="hit"} 42' in reg.render()


# -- structured logs -------------------------------------------------------


def test_structured_logger_writes_json_lines():
    stream = io.StringIO()
    log = StructuredLogger(stream, component="test")
    log.log("hello", level="warning", base="abc", n=3)
    record = json.loads(stream.getvalue())
    assert record["event"] == "hello"
    assert record["level"] == "warning"
    assert record["component"] == "test"
    assert record["n"] == 3 and record["base"] == "abc"
    assert "ts" in record


def test_silent_logger_and_closed_stream_never_raise():
    silent = StructuredLogger(None)
    assert not silent.enabled
    silent.log("nothing")  # no-op
    stream = io.StringIO()
    log = StructuredLogger(stream)
    stream.close()
    log.log("after-close")  # swallowed, not raised


def test_logger_serializes_unjsonable_fields():
    stream = io.StringIO()
    StructuredLogger(stream).log("x", arr=np.arange(2))
    assert json.loads(stream.getvalue())["arr"] == "[0 1]"


def test_request_ids_are_unique():
    ids = {new_request_id() for _ in range(100)}
    assert len(ids) == 100


# -- service + HTTP integration -------------------------------------------


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def data(rng):
    return Dataset(rng.normal(size=(15, 3)), rng.normal(size=(15, 3)))


def _serve(service):
    server = serve_http(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


REQUIRED_SERIES = (
    "repro_request_latency_seconds_bucket",
    "repro_batch_occupancy_bucket",
    "repro_cache_requests_total",
    "repro_requests_total",
    "repro_datasets",
    "repro_solver_pool_requests_total",
    "repro_portfolio_races_total",
)


def test_single_process_metrics_page(rng, data, tmp_path):
    service = ExplanationService(state_dir=tmp_path / "state")
    fp = service.add_dataset(data)
    service.submit(fp, "classify", rng.normal(size=3), k=3)
    service.add_points(fp, rng.normal(size=(2, 3)), [1, -1])
    server = _serve(service)
    try:
        url = f"http://127.0.0.1:{server.port}/metrics"
        with urllib.request.urlopen(url) as response:
            assert response.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
            text = response.read().decode()
        for series in REQUIRED_SERIES:
            assert series in text, series
        # Durability series appear because the service has a state dir.
        assert "repro_wal_fsync_seconds_bucket" in text
        assert 'repro_wal_appends_total{op="add"} 1' in text
        assert 'repro_cache_requests_total{outcome="miss"} 1' in text
        # The versioned alias answers the same page.
        with urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}/v2/metrics"
        ) as response:
            assert response.status == 200
    finally:
        server.shutdown()


def test_metrics_page_is_parseable_prometheus(rng, data):
    # Minimal exposition-format validation: every non-comment line is
    # "<name>{labels} <float>", every series has a # TYPE header.
    service = ExplanationService()
    fp = service.add_dataset(data)
    service.submit(fp, "margin", rng.normal(size=3), k=3)
    typed = set()
    for line in service.metrics_text().splitlines():
        if line.startswith("# TYPE "):
            typed.add(line.split()[2])
            continue
        if line.startswith("#") or not line:
            continue
        name, value = line.rsplit(" ", 1)
        metric = name.split("{")[0]
        float(value)  # must parse
        family = metric
        for suffix in ("_bucket", "_sum", "_count"):
            if metric.endswith(suffix) and family.removesuffix(suffix) in typed:
                family = metric.removesuffix(suffix)
        assert family in typed, f"series {metric} has no TYPE header"


def test_cluster_metrics_page(rng, data):
    from repro.serve import ClusterService

    cluster = ClusterService(workers=2)
    fp = cluster.add_dataset(data)
    cluster.explain(fp, "classify", [rng.normal(size=3)], {"k": 3})
    server = _serve(cluster)
    try:
        url = f"http://127.0.0.1:{server.port}/metrics"
        with urllib.request.urlopen(url) as response:
            assert response.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
            text = response.read().decode()
        for series in REQUIRED_SERIES:
            assert series in text, series
        # Front-only series with per-worker labels.
        assert 'repro_worker_alive{worker="0"} 1' in text
        assert 'repro_worker_alive{worker="1"} 1' in text
        assert "repro_cluster_dispatched_total 1" in text
    finally:
        server.shutdown()


def test_response_carries_request_id_and_honors_callers(data):
    service = ExplanationService()
    server = _serve(service)
    try:
        url = f"http://127.0.0.1:{server.port}/healthz"
        with urllib.request.urlopen(url) as response:
            generated = response.headers["X-Request-ID"]
            assert generated and "-" in generated
        request = urllib.request.Request(url, headers={"X-Request-ID": "my-trace-7"})
        with urllib.request.urlopen(request) as response:
            assert response.headers["X-Request-ID"] == "my-trace-7"
    finally:
        server.shutdown()


def test_http_access_log_threads_request_id(rng, data):
    stream = io.StringIO()
    service = ExplanationService(log_stream=stream)
    fp = service.add_dataset(data)
    server = _serve(service)
    try:
        url = f"http://127.0.0.1:{server.port}/v2/explain"
        body = json.dumps({
            "fingerprint": fp, "method": "classify",
            "instances": [rng.normal(size=3).tolist()], "params": {"k": 3},
        }).encode()
        request = urllib.request.Request(
            url, data=body,
            headers={"Content-Type": "application/json",
                     "X-Request-ID": "trace-42"},
        )
        with urllib.request.urlopen(request) as response:
            assert response.headers["X-Request-ID"] == "trace-42"
    finally:
        server.shutdown()
    records = [json.loads(line) for line in stream.getvalue().splitlines()]
    http = [r for r in records if r["event"] == "http_request"]
    served = [r for r in records if r["event"] == "explain_served"]
    # The same provenance id appears at the HTTP front *and* in the
    # serving layer's record — that is the front→worker→solver thread.
    assert http and http[0]["request_id"] == "trace-42"
    assert http[0]["status"] == 200 and http[0]["verb"] == "POST"
    assert served and served[0]["request_id"] == "trace-42"
    # The single-process HTTP path logs the documented field set
    # (docs/metrics.md), the same one ExplanationService.explain logs.
    assert {
        "request_id", "base", "method", "instances", "cached", "errors", "elapsed_ms",
    } <= set(served[0])
    assert served[0]["base"] == fp[:16] and served[0]["elapsed_ms"] >= 0


def test_stats_and_metrics_agree(rng, data):
    service = ExplanationService()
    fp = service.add_dataset(data)
    for _ in range(3):
        service.submit(fp, "classify", rng.normal(size=3), k=3)
    stats = service.stats()
    text = service.metrics_text()
    assert f"repro_requests_total {stats['requests']}" in text
    assert (
        f"repro_cache_requests_total{{outcome=\"hit\"}} {stats['cache']['hits']}"
        in text
    )
    assert (
        f"repro_solver_pool_requests_total{{outcome=\"hit\"}} "
        f"{stats['solver_pool']['hits']}" in text
    )
    assert (
        f"repro_portfolio_races_total{{mode=\"parallel\"}} "
        f"{stats['portfolio']['parallel']}" in text
    )
