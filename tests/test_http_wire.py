"""Wire-level tests for the HTTP front: reply latency, batch thread, shutdown.

Every reply leaves in one write on a ``TCP_NODELAY`` socket.  A reply
split into a head write and a body write waits about 40 ms for the
client's delayed ACK, so a keep-alive round trip that should take a few
milliseconds takes ~40 ms instead — on both topologies, since they
share the handler.  The single-process front runs every micro-batch on
one batch thread, and :meth:`ExplanationHTTPServer.shutdown` stops that
thread and closes the loop before it returns.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import statistics
import threading
import time

import numpy as np
import pytest

from repro import ClusterService, ExplanationService, serve_http

from .helpers import random_discrete_dataset

#: a keep-alive round trip takes a few ms (under 1 ms for a cluster);
#: a reply stalled on the client's delayed ACK takes ~40 ms.
STALL_FREE_MEDIAN_S = 0.015


def _distinct_queries(rng, n: int, count: int) -> list[list[float]]:
    """*count* distinct random boolean vectors of length *n*."""
    seen: dict[bytes, list[float]] = {}
    while len(seen) < count:
        x = rng.integers(0, 2, size=n).astype(float)
        seen.setdefault(x.tobytes(), x.tolist())
    return list(seen.values())


@contextlib.contextmanager
def _serving(service):
    """*service* behind a live HTTP server on an ephemeral port."""
    server = serve_http(service, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def _batch_threads(service, monkeypatch) -> list[threading.Thread]:
    """The thread of every :meth:`submit_requests` call, in call order."""
    threads: list[threading.Thread] = []
    submit_requests = service.submit_requests

    def spy(requests):
        threads.append(threading.current_thread())
        return submit_requests(requests)

    monkeypatch.setattr(service, "submit_requests", spy)
    return threads


def _round_trip(connection, verb: str, path: str, body=None):
    """One request on *connection*: ``(status, body bytes, seconds)``."""
    start = time.perf_counter()
    connection.request(verb, path, None if body is None else json.dumps(body))
    response = connection.getresponse()
    payload = response.read()
    return response.status, payload, time.perf_counter() - start


def _classify(connection, fingerprint: str, x):
    """One single-instance ``classify`` explain on *connection*."""
    body = {"fingerprint": fingerprint, "method": "classify", "instances": [x], "params": {"k": 3}}
    return _round_trip(connection, "POST", "/v2/explain", body)


@pytest.mark.parametrize("topology", ["single-process", "cluster"])
def test_keep_alive_replies_are_not_stalled(rng, topology):
    data = random_discrete_dataset(rng, 8, 12, 12)
    if topology == "cluster":
        service = ClusterService(workers=2, replicas=2, cache_size=64)
    else:
        service = ExplanationService(cache_size=64)
    fp = service.add_dataset(data)
    timings: dict[str, list[float]] = {"explain": [], "metrics": [], "healthz": [], "400": []}
    with _serving(service) as server, contextlib.closing(
        http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    ) as connection:
        for x in _distinct_queries(rng, 8, 20):
            status, body, elapsed = _classify(connection, fp, x)
            assert status == 200
            assert json.loads(body)["results"][0]["result"]["label"] in (0, 1)
            timings["explain"].append(elapsed)
        sock = connection.sock
        for _ in range(5):
            status, body, elapsed = _round_trip(connection, "GET", "/metrics")
            assert status == 200 and b"repro_" in body
            timings["metrics"].append(elapsed)
            status, body, elapsed = _round_trip(connection, "GET", "/healthz")
            assert status == 200 and json.loads(body)["status"] == "ok"
            timings["healthz"].append(elapsed)
            # A body that is read but is not a JSON object: a 400 that
            # keeps the connection open.
            status, body, elapsed = _round_trip(connection, "POST", "/v2/explain", [])
            assert status == 400
            assert json.loads(body)["error"]["type"] == "ValidationError"
            timings["400"].append(elapsed)
        assert connection.sock is sock  # one keep-alive connection served all
    medians = {kind: statistics.median(values) for kind, values in timings.items()}
    assert all(m < STALL_FREE_MEDIAN_S for m in medians.values()), medians


def test_batches_run_on_one_thread(rng, monkeypatch):
    service = ExplanationService(cache_size=0)  # every request is cold
    fp = service.add_dataset(random_discrete_dataset(rng, 12, 16, 16))
    queries = _distinct_queries(rng, 12, 80)
    expected = [service.submit(fp, "classify", x, k=3).payload for x in queries]
    batch_threads = _batch_threads(service, monkeypatch)
    answers: list = [None] * len(queries)
    failures: list[str] = []

    def client(port: int, offset: int) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            for i in range(offset, len(queries), 2):
                status, body, _ = _classify(connection, fp, queries[i])
                if status != 200:
                    failures.append(f"query {i}: HTTP {status}")
                (answers[i],) = json.loads(body)["results"]
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            failures.append(f"client {offset}: {exc!r}")
        finally:
            connection.close()

    def job() -> str:
        time.sleep(0.05)
        return threading.current_thread().name

    async def two_overlapping_jobs() -> list[str]:
        # A pool of more than one thread would run these on two threads.
        loop = asyncio.get_running_loop()
        return await asyncio.gather(*(loop.run_in_executor(None, job) for _ in "ab"))

    with _serving(service) as server:
        clients = [threading.Thread(target=client, args=(server.port, c)) for c in range(2)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=60)
        jobs = asyncio.run_coroutine_threadsafe(two_overlapping_jobs(), server.loop)
        job_threads = set(jobs.result(timeout=10))
    assert not any(thread.is_alive() for thread in clients)
    assert not failures, failures[:3]
    assert [answer["result"] for answer in answers] == expected
    assert not any(answer["cached"] for answer in answers)
    names = {thread.name for thread in batch_threads}
    assert len(names) == 1, names
    assert job_threads == names


def test_shutdown_closes_the_loop_and_stops_the_batch_thread(rng, monkeypatch):
    service = ExplanationService(cache_size=0)
    fp = service.add_dataset(random_discrete_dataset(rng, 8, 12, 12))
    batch_threads = _batch_threads(service, monkeypatch)
    with _serving(service) as server, contextlib.closing(
        http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    ) as connection:
        status, _, _ = _classify(connection, fp, np.zeros(8).tolist())
        assert status == 200
    assert batch_threads, "the request never reached a batch"
    assert server.loop.is_closed()
    assert not any(thread.is_alive() for thread in batch_threads)
