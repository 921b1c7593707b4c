"""Tests for the :mod:`repro.serve` layer: cache semantics, batching, HTTP.

The cache tests pin the contract the ISSUE asks for: LRU eviction
order, dataset-fingerprint invalidation, cross-method key isolation,
and bit-identical answers on a cache hit versus a cold solve —
including the Proposition 1 tie case (``r+ == r-`` classifies 1).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import (
    Dataset,
    ExplanationService,
    ValidationError,
    closest_counterfactual,
    dataset_fingerprint,
    minimum_sufficient_reason,
    serve_http,
)
from repro.knn import QueryEngine
from repro.serve import BATCH_METHODS, ResultCache, request_key
from repro.serve.http import jsonable

from .helpers import random_discrete_dataset


@pytest.fixture
def data(rng):
    """A small random discrete dataset shared across the serve tests."""
    return random_discrete_dataset(rng, 8, 12, 12)


@pytest.fixture
def service(data):
    """A service with *data* registered; fingerprint on ``service.fp``."""
    service = ExplanationService(cache_size=64)
    service.fp = service.add_dataset(data)
    return service


def _queries(rng, n, count):
    """Distinct random boolean query vectors."""
    seen = set()
    out = []
    while len(out) < count:
        x = rng.integers(0, 2, size=n).astype(float)
        if x.tobytes() not in seen:
            seen.add(x.tobytes())
            out.append(x)
    return out


# -- fingerprints -------------------------------------------------------


def test_fingerprint_is_content_addressed():
    a = Dataset([[0, 1], [1, 0]], [[1, 1]], discrete=True)
    b = Dataset([[0, 1], [1, 0]], [[1, 1]], discrete=True)
    c = Dataset([[0, 1], [1, 0]], [[0, 0]], discrete=True)
    assert dataset_fingerprint(a) == dataset_fingerprint(b)
    assert dataset_fingerprint(a) != dataset_fingerprint(c)


def test_fingerprint_covers_multiplicities_and_flag():
    plain = Dataset([[0, 1]], [[1, 1]])
    weighted = Dataset([[0, 1]], [[1, 1]], positive_multiplicities=[3])
    discrete = Dataset([[0, 1]], [[1, 1]], discrete=True)
    prints = {dataset_fingerprint(d) for d in (plain, weighted, discrete)}
    assert len(prints) == 3


def test_add_dataset_is_idempotent(service, data):
    again = Dataset(data.positives, data.negatives, discrete=data.discrete)
    assert service.add_dataset(again) == service.fp
    assert service.stats()["datasets"] == 1


# -- LRU semantics ------------------------------------------------------


def test_lru_eviction_order(rng, service):
    service.cache.maxsize = 3
    queries = _queries(rng, 8, 4)
    keys = []
    for x in queries[:3]:
        keys.append(service.submit(service.fp, "classify", x, k=3).request.key)
    assert service.cache.keys() == keys  # oldest first
    # Touching the oldest entry refreshes its recency...
    assert service.submit(service.fp, "classify", queries[0], k=3).cached
    assert service.cache.keys() == [keys[1], keys[2], keys[0]]
    # ...so the next insertion evicts keys[1], not keys[0].
    k3 = service.submit(service.fp, "classify", queries[3], k=3).request.key
    assert service.cache.keys() == [keys[2], keys[0], k3]
    assert service.cache.stats()["evictions"] == 1
    assert not service.submit(service.fp, "classify", queries[1], k=3).cached


def test_cache_size_zero_disables_caching(rng, data):
    service = ExplanationService(cache_size=0)
    fp = service.add_dataset(data)
    x = rng.integers(0, 2, size=8).astype(float)
    assert not service.submit(fp, "classify", x, k=3).cached
    assert not service.submit(fp, "classify", x, k=3).cached
    assert len(service.cache) == 0


# -- invalidation -------------------------------------------------------


def test_fingerprint_invalidation_is_scoped(rng, service, data):
    other = random_discrete_dataset(rng, 8, 10, 10)
    fp2 = service.add_dataset(other)
    x = rng.integers(0, 2, size=8).astype(float)
    service.submit(service.fp, "classify", x, k=3)
    service.submit(fp2, "classify", x, k=3)
    removed = service.invalidate(service.fp)
    assert removed == 1
    # The invalidated dataset's entry re-solves; the other still hits.
    assert not service.submit(service.fp, "classify", x, k=3).cached
    assert service.submit(fp2, "classify", x, k=3).cached


def test_remove_dataset_drops_engines_and_cache(rng, service):
    x = rng.integers(0, 2, size=8).astype(float)
    service.submit(service.fp, "classify", x, k=3)
    assert service.stats()["engines"] == 1
    assert service.remove_dataset(service.fp) == 1
    stats = service.stats()
    assert stats["datasets"] == 0 and stats["engines"] == 0
    with pytest.raises(ValidationError):
        service.submit(service.fp, "classify", x, k=3)


# -- key isolation ------------------------------------------------------


def test_cross_method_key_isolation(rng, service):
    x = rng.integers(0, 2, size=8).astype(float)
    payloads = {}
    for method in BATCH_METHODS:
        payloads[method] = service.submit(service.fp, method, x, k=3).payload
    assert len(service.cache) == 3  # one entry per method, no collisions
    assert set(payloads["classify"]) == {"label"}
    assert set(payloads["margin"]) == {"margin"}
    assert set(payloads["radii"]) == {"r_pos", "r_neg"}
    # Params are part of the key too: a different k is a different entry.
    service.submit(service.fp, "classify", x, k=1)
    assert len(service.cache) == 4


def test_solver_choice_is_part_of_the_key(rng, service, data):
    x = rng.integers(0, 2, size=8).astype(float)
    milp = service.submit(service.fp, "minimum_sr", x, k=1, solver="milp")
    sat = service.submit(service.fp, "minimum_sr", x, k=1, solver="sat")
    assert milp.request.key != sat.request.key
    assert milp.payload["size"] == sat.payload["size"]  # both exact optima
    # Each cached payload matches its own pipeline run bit for bit.
    direct = minimum_sufficient_reason(data, 1, "hamming", x, method="milp")
    assert milp.payload["X"] == sorted(direct.X)


def test_key_isolation_across_instances(rng, service):
    a, b = _queries(rng, 8, 2)
    ka = request_key(service.fp, "classify", a, {"k": 1})
    kb = request_key(service.fp, "classify", b, {"k": 1})
    assert ka != kb


# -- cache hit vs cold solve parity -------------------------------------


@pytest.mark.parametrize(
    "method,params",
    [
        ("classify", {"k": 3}),
        ("margin", {"k": 3}),
        ("radii", {"k": 3}),
        ("minimal_sr", {"k": 1}),
        ("minimum_sr", {"k": 1, "solver": "milp"}),
        ("minimum_sr", {"k": 1, "solver": "sat"}),
        ("counterfactual", {"k": 1, "solver": "hamming-sat"}),
        ("counterfactual", {"k": 1, "solver": "hamming-brute"}),
    ],
)
def test_cache_hit_is_bit_identical_to_cold_solve(rng, data, method, params):
    x = rng.integers(0, 2, size=8).astype(float)
    warm = ExplanationService()
    fp = warm.add_dataset(data)
    cold_response = warm.submit(fp, method, x, **params)
    hit_response = warm.submit(fp, method, x, **params)
    assert not cold_response.cached and hit_response.cached
    assert hit_response.payload == cold_response.payload
    # A completely fresh service re-derives the same payload from scratch.
    fresh = ExplanationService()
    assert fresh.submit(fresh.add_dataset(data), method, x, **params).payload \
        == cold_response.payload


def test_cache_hit_parity_on_prop1_tie():
    # x is Hamming-equidistant from the positive and the negative point:
    # r+ == r- and the optimistic semantics classify 1 (Proposition 1).
    data = Dataset([[0, 1]], [[1, 0]], discrete=True)
    service = ExplanationService()
    fp = service.add_dataset(data)
    x = [0.0, 0.0]
    cold = service.submit(fp, "classify", x, k=1)
    hit = service.submit(fp, "classify", x, k=1)
    assert cold.payload == hit.payload == {"label": 1}
    radii = service.submit(fp, "radii", x, k=1).payload
    assert radii["r_pos"] == radii["r_neg"] == 1.0
    assert service.submit(fp, "margin", x, k=1).payload == {"margin": 0.0}
    assert service.submit(fp, "margin", x, k=1).cached


def test_portfolio_provenance_cached_with_answer(rng, data):
    service = ExplanationService()
    fp = service.add_dataset(data)
    x = rng.integers(0, 2, size=8).astype(float)
    cold = service.submit(fp, "minimum_sr", x, k=1, solver="portfolio")
    hit = service.submit(fp, "minimum_sr", x, k=1, solver="portfolio")
    assert hit.cached and hit.payload == cold.payload
    prov = cold.payload["provenance"]
    assert prov["winner"] == cold.payload["method"]
    assert prov["attempts"][0]["status"] in ("exact", "timeout", "unsupported")
    # The deterministic part matches the raced pipeline's own answer size.
    direct = minimum_sufficient_reason(data, 1, "hamming", x, method="milp")
    assert cold.payload["size"] == direct.size


def test_counterfactual_payload_matches_pipeline(rng, data):
    service = ExplanationService()
    fp = service.add_dataset(data)
    x = rng.integers(0, 2, size=8).astype(float)
    served = service.submit(fp, "counterfactual", x, k=1, solver="hamming-sat")
    direct = closest_counterfactual(data, 1, "hamming", x, method="hamming-sat")
    assert served.payload["distance"] == direct.distance
    assert served.payload["label_from"] == direct.label_from
    assert served.payload["found"] == direct.found


# -- disk persistence ---------------------------------------------------


def test_disk_persistence_survives_restart(rng, data, tmp_path):
    x = rng.integers(0, 2, size=8).astype(float)
    first = ExplanationService(cache_dir=tmp_path)
    fp = first.add_dataset(data)
    cold = first.submit(fp, "minimum_sr", x, k=1, solver="milp")
    assert not cold.cached
    # A new process (fresh service, same directory) starts warm.
    second = ExplanationService(cache_dir=tmp_path)
    second.add_dataset(data)
    warm = second.submit(fp, "minimum_sr", x, k=1, solver="milp")
    assert warm.cached
    assert warm.payload == cold.payload
    assert second.cache.stats()["disk_hits"] == 1


def test_disk_invalidation_removes_files(rng, data, tmp_path):
    service = ExplanationService(cache_dir=tmp_path)
    fp = service.add_dataset(data)
    x = rng.integers(0, 2, size=8).astype(float)
    service.submit(fp, "classify", x, k=3)
    assert list(tmp_path.glob("*.pkl"))
    service.remove_dataset(fp)
    assert not list(tmp_path.glob("*.pkl"))
    # A fresh service over the same directory finds nothing to reuse.
    fresh = ExplanationService(cache_dir=tmp_path)
    fresh.add_dataset(data)
    assert not fresh.submit(fp, "classify", x, k=3).cached


def test_result_cache_eviction_keeps_disk_copy(tmp_path):
    cache = ResultCache(maxsize=1, cache_dir=tmp_path)
    cache.put(b"fp1|a", {"v": 1})
    cache.put(b"fp1|b", {"v": 2})  # evicts a from memory, not from disk
    assert len(cache) == 1
    found, payload = cache.get(b"fp1|a")
    assert found and payload == {"v": 1}
    assert cache.stats()["disk_hits"] == 1


def test_cached_payloads_are_copies(rng, service):
    x = rng.integers(0, 2, size=8).astype(float)
    first = service.submit(service.fp, "classify", x, k=3)
    first.payload["label"] = 999  # a caller mutating its response...
    again = service.submit(service.fp, "classify", x, k=3)
    assert again.payload["label"] != 999  # ...cannot poison the cache


# -- batching -----------------------------------------------------------


def test_submit_many_matches_sequential(rng, service):
    queries = _queries(rng, 8, 10)
    batched = service.submit_many(
        [(service.fp, "classify", x, {"k": 3}) for x in queries]
    )
    fresh = ExplanationService()
    fp = fresh.add_dataset(service.dataset(service.fp))
    sequential = [fresh.submit(fp, "classify", x, k=3) for x in queries]
    assert [r.payload for r in batched] == [r.payload for r in sequential]
    assert service.stats()["largest_batch"] == 10
    assert fresh.stats()["largest_batch"] == 1


def test_submit_many_mixed_methods_and_duplicates(rng, service):
    x, y = _queries(rng, 8, 2)
    responses = service.submit_many(
        [
            (service.fp, "classify", x, {"k": 3}),
            (service.fp, "margin", x, {"k": 3}),
            (service.fp, "classify", x, {"k": 3}),  # duplicate: solved once
            (service.fp, "classify", y, {"k": 3}),
        ]
    )
    assert responses[0].payload == responses[2].payload
    stats = service.stats()
    assert stats["requests"] == 4
    assert stats["batched_requests"] == 3  # duplicate deduplicated pre-solve
    label = responses[0].payload["label"]
    margin = responses[1].payload["margin"]
    assert (margin >= 0) == (label == 1)


def test_submit_many_respects_max_batch(rng, data):
    service = ExplanationService(max_batch=4, cache_size=0)
    fp = service.add_dataset(data)
    queries = _queries(rng, 8, 10)
    responses = service.submit_many([(fp, "classify", x, {"k": 3}) for x in queries])
    direct = [service.submit(fp, "classify", x, k=3) for x in queries]
    assert [r.payload for r in responses] == [r.payload for r in direct]


def test_in_band_error_is_not_cached(rng, service):
    x = rng.integers(0, 2, size=8).astype(float)
    # The MILP Minimum-SR pipeline covers the discrete k=1 cell only.
    response = service.submit(service.fp, "minimum_sr", x, k=3, solver="milp")
    assert not response.ok
    assert response.payload["error"]["type"] == "UnsupportedSettingError"
    assert len(service.cache) == 0
    assert not service.submit(service.fp, "minimum_sr", x, k=3, solver="milp").cached


def test_make_request_validation(rng, service):
    x = rng.integers(0, 2, size=8).astype(float)
    with pytest.raises(ValidationError, match="unknown method"):
        service.make_request(service.fp, "nope", x)
    with pytest.raises(ValidationError, match="dimension"):
        service.make_request(service.fp, "classify", [1.0, 0.0])
    with pytest.raises(ValidationError, match="unknown params"):
        service.make_request(service.fp, "classify", x, nope=1)
    with pytest.raises(ValidationError, match="fingerprint"):
        service.make_request("beef" * 16, "classify", x)


# -- asyncio micro-batching ---------------------------------------------


def test_asubmit_batches_concurrent_requests(rng, data):
    service = ExplanationService(cache_size=0, max_wait_s=0.01)
    fp = service.add_dataset(data)
    queries = _queries(rng, 8, 8)

    async def fan_out():
        return await asyncio.gather(
            *(service.asubmit(fp, "classify", x, k=3) for x in queries)
        )

    responses = asyncio.run(fan_out())
    direct = [service.submit(fp, "classify", x, k=3) for x in queries]
    assert [r.payload for r in responses] == [r.payload for r in direct]
    assert service.stats()["largest_batch"] == 8


def test_asubmit_straggler_during_flush_is_drained(rng, data, monkeypatch):
    # A request arriving while a flush batch is mid-solve (the window
    # where the flush task exists but is not done) must be picked up by
    # the flush loop's next iteration, not stranded forever.
    service = ExplanationService(cache_size=0, max_wait_s=0.001)
    fp = service.add_dataset(data)
    a, b = _queries(rng, 8, 2)
    real = service.submit_requests

    def slow_submit(requests):
        time.sleep(0.08)  # hold the executor so the straggler queues behind it
        return real(requests)

    monkeypatch.setattr(service, "submit_requests", slow_submit)

    async def main():
        first = asyncio.ensure_future(service.asubmit(fp, "classify", a, k=3))
        await asyncio.sleep(0.03)  # flush task is now blocked in the executor
        second = asyncio.ensure_future(service.asubmit(fp, "classify", b, k=3))
        return await asyncio.wait_for(asyncio.gather(first, second), timeout=5)

    first, second = asyncio.run(main())
    assert first.payload["label"] in (0, 1)
    assert second.payload["label"] in (0, 1)


def test_asubmit_cache_hit_short_circuits(rng, service):
    x = rng.integers(0, 2, size=8).astype(float)
    service.submit(service.fp, "classify", x, k=3)

    async def one():
        return await service.asubmit(service.fp, "classify", x, k=3)

    response = asyncio.run(one())
    assert response.cached and response.payload["label"] in (0, 1)


# -- HTTP endpoint ------------------------------------------------------


def _post(url: str, body: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.load(response)


@pytest.fixture
def server(service):
    """The service behind a live HTTP server on an ephemeral port."""
    server = serve_http(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()


def test_http_end_to_end(rng, data, server, service):
    url = f"http://127.0.0.1:{server.port}"
    with urllib.request.urlopen(url + "/healthz") as response:
        assert json.load(response)["status"] == "ok"
    x = rng.integers(0, 2, size=8).astype(float).tolist()
    (single,) = _post(url + "/v2/explain", {
        "fingerprint": service.fp, "method": "classify",
        "instances": [x], "params": {"k": 3},
    })["results"]
    assert single["result"]["label"] in (0, 1)
    assert single["cached"] is False
    (again,) = _post(url + "/v2/explain", {
        "fingerprint": service.fp, "method": "classify",
        "instances": [x], "params": {"k": 3},
    })["results"]
    assert again["cached"] is True
    assert again["result"] == single["result"]
    batch = _post(url + "/v2/explain", {
        "fingerprint": service.fp, "method": "margin",
        "instances": [x, x], "params": {"k": 3},
    })
    assert len(batch["results"]) == 2
    with urllib.request.urlopen(url + "/v2/stats") as response:
        stats = json.load(response)
    assert stats["requests"] >= 4 and stats["cache"]["hits"] >= 1


def test_http_register_and_delete_dataset(server):
    url = f"http://127.0.0.1:{server.port}"
    registered = _post(url + "/v2/datasets", {
        "positives": [[0, 1], [1, 1]], "negatives": [[0, 0]], "discrete": True,
    })
    fp = registered["fingerprint"]
    assert registered["dimension"] == 2
    (answer,) = _post(url + "/v2/explain", {
        "fingerprint": fp, "method": "minimum_sr",
        "instances": [[1, 1]], "params": {"k": 1, "solver": "sat"},
    })["results"]
    assert answer["result"]["size"] >= 0
    request = urllib.request.Request(
        url + f"/v2/datasets/{fp}", method="DELETE"
    )
    with urllib.request.urlopen(request) as response:
        assert json.load(response)["invalidated"] == 1


def test_http_delete_rejects_malformed_fingerprint(rng, tmp_path):
    # A wildcard in the URL must not reach the disk cache's glob sweep.
    service = ExplanationService(cache_dir=tmp_path)
    fp = service.add_dataset(random_discrete_dataset(rng, 6, 8, 8))
    service.submit(fp, "classify", rng.integers(0, 2, size=6).astype(float), k=3)
    persisted = list(tmp_path.glob("*.pkl"))
    assert persisted
    server = serve_http(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.port}/v2/datasets/"
        for bad in ("*", "..%2F..", "a" * 63, "G" * 64):
            request = urllib.request.Request(url + bad, method="DELETE")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request)
            assert err.value.code == 400
        assert list(tmp_path.glob("*.pkl")) == persisted  # nothing deleted
        request = urllib.request.Request(url + fp, method="DELETE")
        with urllib.request.urlopen(request) as response:
            assert json.load(response)["invalidated"] >= 1
        assert not list(tmp_path.glob("*.pkl"))
    finally:
        server.shutdown()


def test_invalidate_ignores_glob_metacharacters(tmp_path):
    cache = ResultCache(maxsize=4, cache_dir=tmp_path)
    cache.put(b"aabbccddeeff0011|x", {"v": 1})
    assert cache.invalidate("*") == 0
    assert cache.invalidate("[a-f]" * 8) == 0
    assert list(tmp_path.glob("*.pkl"))
    assert cache.invalidate("aabbccddeeff0011") == 2  # memory + disk entry
    assert not list(tmp_path.glob("*.pkl"))


def test_http_error_codes(server, service):
    url = f"http://127.0.0.1:{server.port}"
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(url + "/v2/explain", {
            "fingerprint": service.fp, "method": "nope", "instances": [[0] * 8],
        })
    assert err.value.code == 400
    body = json.load(err.value)
    assert "unknown method" in body["error"]["message"]
    assert body["error"]["type"] == "ValidationError"
    assert set(body) == {"error"}
    assert err.value.headers["Deprecation"] is None
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(url + "/v2/explain", {"fingerprint": service.fp, "method": "classify"})
    assert err.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as err:
        with urllib.request.urlopen(url + "/nope"):
            pass
    assert err.value.code == 404


#: a complete request, smuggled in as the body of another one.
_SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"


def _raw_exchange(port: int, request: bytes) -> tuple[bytes | None, bytes, bool]:
    """Send *request* on a fresh connection.

    Returns the first reply's status, the bytes after that reply, and
    whether the server closed the connection.  Reads until the server
    closes or 3 s pass, so an unread body parsed as a second request
    shows up as trailing bytes, and a server blocked on the body as no
    reply, never as a hang.
    """
    data, closed = b"", False
    with socket.create_connection(("127.0.0.1", port), timeout=3.0) as sock:
        sock.sendall(request)
        try:
            while chunk := sock.recv(65536):
                data += chunk
            closed = True
        except TimeoutError:
            pass
    head, _, rest = data.partition(b"\r\n\r\n")
    match = re.search(rb"^HTTP/1\.1 (\d{3}) .*^Content-Length: (\d+)", head, re.M | re.S)
    if match is None:
        return None, data, closed
    return match[1], rest[int(match[2]):], closed


@pytest.mark.parametrize(
    "head, body, status",
    [
        ("POST /v2/explain HTTP/1.1\r\nContent-Length: 16777217", _SMUGGLED, b"400"),
        ("POST /v2/explain HTTP/1.1\r\nContent-Length: abc", _SMUGGLED, b"400"),
        ("POST /v2/explain HTTP/1.1\r\nContent-Length: -1", _SMUGGLED, b"400"),
        (
            "POST /v2/explain HTTP/1.1\r\nTransfer-Encoding: chunked",
            b"%x\r\n%s\r\n0\r\n\r\n" % (len(_SMUGGLED), _SMUGGLED),
            b"400",
        ),
        (f"POST /v2/nope HTTP/1.1\r\nContent-Length: {len(_SMUGGLED)}", _SMUGGLED, b"404"),
    ],
    ids=["oversized", "non-integer", "negative", "chunked", "rejected-unread"],
)
def test_http_unread_body_is_never_a_next_request(server, head, body, status):
    request = head.encode() + b"\r\nHost: x\r\n\r\n" + body
    assert _raw_exchange(server.port, request) == (status, b"", True)


def test_http_read_body_keeps_the_connection(server, service):
    # A rejected request whose body was read leaves keep-alive intact.
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        body = json.dumps(
            {"fingerprint": service.fp, "method": "nope", "instances": [[0] * 8]}
        )
        connection.request("POST", "/v2/explain", body)
        response = connection.getresponse()
        assert response.status == 400 and response.getheader("Connection") is None
        response.read()
        sock = connection.sock
        connection.request("GET", "/healthz")
        assert connection.getresponse().status == 200
        assert connection.sock is sock  # the same connection served both
    finally:
        connection.close()


@pytest.mark.parametrize(
    "body",
    [
        {"positives": [[0, 1], [1, 1]], "negatives": [[0, 0]]},
        {"points": [[0, 1], [1, 1], [0, 0]], "labels": [0, 1, 2]},
    ],
    ids=["binary", "multiclass"],
)
def test_http_register_rejects_non_boolean_discrete(server, body):
    url = f"http://127.0.0.1:{server.port}"
    for bad in ("false", "no", 1.5, 1, None):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(url + "/v2/datasets", {**body, "discrete": bad})
        with err.value as reply:
            assert reply.code == 400
            assert "discrete" in json.load(reply)["error"]["message"]
    missing = _post(url + "/v2/datasets", body)["fingerprint"]
    assert _post(url + "/v2/datasets", {**body, "discrete": False})["fingerprint"] == missing
    discrete = _post(url + "/v2/datasets", {**body, "discrete": True})["fingerprint"]
    assert discrete != missing
    for fingerprint, flag in ((missing, False), (discrete, True)):
        with urllib.request.urlopen(url + f"/v2/datasets/{fingerprint}") as response:
            assert json.load(response)["discrete"] is flag


def test_http_concurrent_requests_micro_batch(rng, data):
    service = ExplanationService(cache_size=0, max_wait_s=0.02)
    fp = service.add_dataset(data)
    server = serve_http(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.port}/v2/explain"
        queries = _queries(rng, 8, 6)
        results = [None] * len(queries)

        def worker(i, x):
            (results[i],) = _post(url, {
                "fingerprint": fp, "method": "classify",
                "instances": [x.tolist()], "params": {"k": 3},
            })["results"]

        threads = [
            threading.Thread(target=worker, args=(i, x))
            for i, x in enumerate(queries)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        direct = [service.submit(fp, "classify", x, k=3) for x in queries]
        assert [r["result"] for r in results] == [r.payload for r in direct]
        # Concurrent HTTP clients were grouped into shared engine calls.
        assert service.stats()["largest_batch"] >= 2
    finally:
        server.shutdown()


def test_jsonable_handles_nonfinite_and_numpy():
    payload = {
        "a": np.float64(np.inf),
        "b": float("-inf"),
        "c": float("nan"),
        "d": np.int64(3),
        "e": np.array([1.5, 2.5]),
        "f": (np.bool_(True), 0.5),
    }
    assert jsonable(payload) == {
        "a": "Infinity",
        "b": "-Infinity",
        "c": "NaN",
        "d": 3,
        "e": [1.5, 2.5],
        "f": [1, 0.5],
    }
    json.dumps(jsonable(payload))  # strict-JSON encodable


# -- bench + CLI wiring -------------------------------------------------


def test_serve_throughput_is_a_gated_headline():
    from repro.experiments import bench

    assert "serve_throughput" in bench.WORKLOADS
    assert "serve_throughput" in bench.GATED_HEADLINES


def test_cli_serve_parser():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["serve", "--port", "0", "--cache-size", "16", "--demo-size", "20"]
    )
    assert args.command == "serve"
    assert args.port == 0 and args.cache_size == 16 and args.demo_size == 20
    assert build_parser().epilog and "docs/" in build_parser().epilog


# -- streaming mutations and versioned fingerprints ---------------------


def _delete(url: str, body: dict | None = None) -> dict:
    request = urllib.request.Request(
        url,
        data=None if body is None else json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="DELETE",
    )
    with urllib.request.urlopen(request) as response:
        return json.load(response)


def test_versioned_fingerprint_helpers():
    from repro.serve import split_fingerprint, versioned_fingerprint

    assert split_fingerprint("ab12") == ("ab12", 0)
    assert split_fingerprint("ab12@v3") == ("ab12", 3)
    assert versioned_fingerprint("ab12", 0) == "ab12"
    assert versioned_fingerprint("ab12", 7) == "ab12@v7"
    for bad in ("ab12@", "ab12@v", "ab12@3", "ab12@v-1", "ab12@v1x", "a@v1@v2"):
        with pytest.raises(ValidationError):
            split_fingerprint(bad)


def test_result_cache_versioned_invalidation_is_scoped(tmp_path):
    from repro.serve import versioned_fingerprint

    cache = ResultCache(maxsize=16, cache_dir=tmp_path)
    base = "ab12cd34" * 8
    other = "ef56ab78" * 8
    cache.put(base.encode() + b"|x", {"v": 0})
    cache.put(versioned_fingerprint(base, 1).encode() + b"|x", {"v": 1})
    cache.put(versioned_fingerprint(base, 2).encode() + b"|x", {"v": 2})
    cache.put(other.encode() + b"|x", {"v": "other"})
    assert len(list(tmp_path.glob("*.pkl"))) == 4
    # Scoped: exactly the superseded version's entry goes (memory + disk).
    assert cache.invalidate(versioned_fingerprint(base, 1)) == 2
    assert cache.get(versioned_fingerprint(base, 2).encode() + b"|x")[0]
    assert cache.get(base.encode() + b"|x")[0]
    assert len(list(tmp_path.glob("*.pkl"))) == 3
    # Bare: every remaining version of the base goes, the other dataset stays.
    assert cache.invalidate(base) == 4
    assert not cache.get(base.encode() + b"|x")[0]
    assert cache.get(other.encode() + b"|x")[0]
    assert len(list(tmp_path.glob("*.pkl"))) == 1


def test_service_mutation_bumps_version_and_scopes_invalidation(rng, data):
    service = ExplanationService(cache_size=64)
    fp = service.add_dataset(data)
    other = service.add_dataset(random_discrete_dataset(rng, 8, 6, 6))
    x = rng.integers(0, 2, size=8).astype(float)
    service.submit(fp, "classify", x, k=3)
    service.submit(other, "classify", x, k=3)
    info = service.add_points(fp, [x], [1], multiplicities=[2])
    assert info["fingerprint"] == f"{fp}@v1" and info["version"] == 1
    assert info["invalidated"] == 1  # only the superseded version's entry
    # The untouched dataset still serves from cache; the mutated one re-solves.
    assert service.submit(other, "classify", x, k=3).cached
    fresh = service.submit(fp, "classify", x, k=3)
    assert not fresh.cached
    assert fresh.request.fingerprint == f"{fp}@v1"
    from repro.knn import QueryEngine

    assert fresh.payload["label"] == QueryEngine(
        service.dataset(fp), "hamming"
    ).classify(x, 3)
    # remove_points round-trips the dataset contents (version keeps moving).
    info = service.remove_points(fp, [x], [1], multiplicities=[2])
    assert info["version"] == 2
    assert dataset_fingerprint(service.dataset(fp)) == fp


def test_service_mutation_updates_every_metric_engine(rng, data):
    service = ExplanationService(cache_size=16)
    fp = service.add_dataset(data)
    hamming = service.engine(fp, "hamming")
    l2 = service.engine(fp, "l2")
    x = rng.integers(0, 2, size=8).astype(float)
    service.add_points(fp, [x, x], [1, 0])
    from repro.knn import QueryEngine

    for engine, metric in ((hamming, "hamming"), (l2, "l2")):
        assert engine.version == 1
        fresh = QueryEngine(service.dataset(fp), metric)
        queries = rng.integers(0, 2, size=(6, 8)).astype(float)
        np.testing.assert_array_equal(
            engine.classify_batch(queries, 3), fresh.classify_batch(queries, 3)
        )


def test_service_mutation_is_all_or_nothing_across_engines(rng):
    """A batch one engine must refuse leaves *every* engine untouched.

    With an explicit bitpack service backend, a non-binary insert is
    pre-validated against all warm engines before any is mutated — the
    refusal must not leave the dataset, the version, or any engine in a
    half-mutated state.
    """
    data = Dataset(
        rng.integers(0, 2, size=(8, 6)).astype(float),
        rng.integers(0, 2, size=(8, 6)).astype(float),
    )  # binary by chance, NOT discrete: with_added accepts general rows
    service = ExplanationService(cache_size=16, backend="bitpack")
    fp = service.add_dataset(data)
    engine = service.engine(fp, "hamming")
    with pytest.raises(ValidationError, match="bitpack"):
        service.add_points(fp, [[0.5] * 6], [1])
    assert engine.version == 0
    assert service.stats()["mutations"] == 0
    assert dataset_fingerprint(service.dataset(fp)) == fp


def test_superseded_version_pin_is_rejected(rng, data):
    service = ExplanationService(cache_size=16)
    fp = service.add_dataset(data)
    x = rng.integers(0, 2, size=8).astype(float)
    service.add_points(fp, [x], [1])
    assert service.submit(f"{fp}@v1", "classify", x, k=3).ok  # current pin
    service.add_points(fp, [x], [0])
    with pytest.raises(ValidationError, match="superseded"):
        service.make_request(f"{fp}@v1", "classify", x, k=3)
    with pytest.raises(ValidationError):
        service.make_request(f"{fp}@v9", "classify", x, k=3)


def test_in_flight_batch_repins_to_current_version(rng, data):
    """Requests built before a mutation answer against the mutated data."""
    service = ExplanationService(cache_size=64)
    fp = service.add_dataset(data)
    x = rng.integers(0, 2, size=8).astype(float)
    pinned = service.make_request(fp, "classify", x, k=1)
    assert pinned.fingerprint == fp  # pinned v0
    service.add_points(fp, [x, x, x], [1, 1, 1])  # flips x's 1-NN to positive
    response = service.submit_requests([pinned])[0]
    assert response.payload["label"] == 1  # the *mutated* answer
    # ... and it was cached under the current version, not the dead one.
    assert service.submit(fp, "classify", x, k=1).cached


def test_remove_dataset_with_superseded_version_keeps_dataset(rng, data):
    service = ExplanationService(cache_size=16)
    fp = service.add_dataset(data)
    x = rng.integers(0, 2, size=8).astype(float)
    service.submit(fp, "classify", x, k=3)
    service.add_points(fp, [x], [1])
    # Sweeping a dead version's cache keeps the live dataset serving.
    service.remove_dataset(f"{fp}")  # bare removes everything
    with pytest.raises(ValidationError):
        service.dataset(fp)
    fp = service.add_dataset(data)
    service.add_points(fp, [x], [1])
    assert service.remove_dataset(f"{fp}@v0") == 0  # stale version, no entries
    assert service.dataset(fp) is not None
    service.remove_dataset(f"{fp}@v1")  # current version: full removal
    with pytest.raises(ValidationError):
        service.dataset(fp)


def test_http_streaming_mutation_endpoints(rng, data, server, service):
    url = f"http://127.0.0.1:{server.port}"
    x = rng.integers(0, 2, size=8).astype(float)
    (before,) = _post(url + "/v2/explain", {
        "fingerprint": service.fp, "method": "radii",
        "instances": [x.tolist()], "params": {"k": 3},
    })["results"]
    added = _post(url + f"/v2/datasets/{service.fp}/points", {
        "points": [x.tolist()], "labels": [1], "multiplicities": [2],
    })
    assert added["fingerprint"] == f"{service.fp}@v1"
    assert added["version"] == 1
    assert added["n_positive"] == data.n_positive + 2
    (after,) = _post(url + "/v2/explain", {
        "fingerprint": service.fp, "method": "radii",
        "instances": [x.tolist()], "params": {"k": 3},
    })["results"]
    assert not after["cached"]
    assert after["result"]["r_pos"] == 0.0  # two copies of x are positives now
    removed = _delete(url + f"/v2/datasets/{service.fp}/points", {
        "points": [x.tolist()], "labels": [1], "multiplicities": [2],
    })
    assert removed["version"] == 2 and removed["n_positive"] == data.n_positive
    (restored,) = _post(url + "/v2/explain", {
        "fingerprint": service.fp, "method": "radii",
        "instances": [x.tolist()], "params": {"k": 3},
    })["results"]
    assert restored["result"] == before["result"]
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(url + "/v2/datasets/zz/points", {"points": [[0] * 8], "labels": [1]})
    assert err.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(url + f"/v2/datasets/{service.fp}/points", {"points": [[0] * 8]})
    assert err.value.code == 400  # missing labels
    with pytest.raises(urllib.error.HTTPError) as err:
        _delete(url + f"/v2/datasets/{service.fp}/points", {
            "points": [[0.0] * 8], "labels": [1], "multiplicities": [99],
        })
    assert err.value.code in (400, 422)  # invalid removal is rejected in full


def test_http_delete_accepts_versioned_fingerprint(rng, tmp_path):
    service = ExplanationService(cache_dir=tmp_path)
    fp = service.add_dataset(random_discrete_dataset(rng, 6, 8, 8))
    x = rng.integers(0, 2, size=6).astype(float)
    service.submit(fp, "classify", x, k=3)
    service.add_points(fp, [x], [1])
    service.submit(fp, "classify", x, k=3)
    assert any("@v1" in p.name for p in tmp_path.glob("*.pkl"))
    server = serve_http(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.port}/v2/datasets/"
        for bad in (fp + "@v", fp + "@vx", fp + "@1", fp + "@v*"):
            request = urllib.request.Request(url + bad, method="DELETE")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request)
            assert err.value.code == 400
        out = _delete(url + fp + "@v1")  # current version: drops everything
        assert out["invalidated"] >= 1
        assert not list(tmp_path.glob("*.pkl"))
    finally:
        server.shutdown()


def test_concurrent_mutation_and_query_stress(rng):
    """Mixed mutate/query traffic: no stale hits, no torn batches.

    A mutator alternately plants and removes a block of sentinel
    positives (flipping the sentinel query's 1-NN label) while hammer
    threads pour classify traffic over the same HTTP server.  After
    every mutation response, the very next sentinel query must reflect
    the new version (its label flips, never served from a stale cache),
    and every concurrent answer must be a well-formed label — a torn
    batch (half-mutated engine) would surface as an exception or a
    wrong-length response.
    """
    n = 8
    data = random_discrete_dataset(rng, n, 10, 10)
    # A sentinel absent from the data: its 1-NN label is controlled
    # purely by the copies the mutator plants.
    rows = {row.tobytes() for row in np.vstack([data.positives, data.negatives])}
    x = None
    while x is None or x.tobytes() in rows:
        x = rng.integers(0, 2, size=n).astype(float)
    service = ExplanationService(cache_size=256)
    fp = service.add_dataset(data)
    server = serve_http(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.port}"
    stop = threading.Event()
    failures: list[str] = []

    def hammer(worker: int) -> None:
        local = np.random.default_rng(worker)
        while not stop.is_set():
            batch = local.integers(0, 2, size=(3, n)).astype(float)
            try:
                out = _post(url + "/v2/explain", {
                    "fingerprint": fp, "method": "classify",
                    "instances": batch.tolist(), "params": {"k": 1},
                })
                results = out["results"]
                if len(results) != 3 or any(
                    r["result"].get("label") not in (0, 1) for r in results
                ):
                    failures.append(f"malformed batch answer: {out}")
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                failures.append(f"worker {worker}: {exc}")

    workers = [threading.Thread(target=hammer, args=(w,)) for w in range(3)]
    for worker in workers:
        worker.start()
    try:
        copies, labels = [x] * 3, [1, 1, 1]
        for round_no in range(8):
            planted = round_no % 2 == 0
            if planted:
                info = _post(url + f"/v2/datasets/{fp}/points", {
                    "points": [p.tolist() for p in copies], "labels": labels,
                })
            else:
                info = _delete(url + f"/v2/datasets/{fp}/points", {
                    "points": [p.tolist() for p in copies], "labels": labels,
                })
            assert info["version"] == round_no + 1
            # The first sentinel query after the mutation response must
            # see the new version: planted -> its own copies win (1).
            expected = 1 if planted else QueryEngine(data, "hamming").classify(x, 1)
            (answer,) = _post(url + "/v2/explain", {
                "fingerprint": fp, "method": "classify",
                "instances": [x.tolist()], "params": {"k": 1},
            })["results"]
            assert answer["result"]["label"] == expected
            assert not answer["cached"]  # the version bump voided old entries
            (again,) = _post(url + "/v2/explain", {
                "fingerprint": fp, "method": "classify",
                "instances": [x.tolist()], "params": {"k": 1},
            })["results"]
            assert again["cached"] and again["result"]["label"] == expected
    finally:
        stop.set()
        for worker in workers:
            worker.join(timeout=10)
        server.shutdown()
    assert not failures, failures[:3]
    stats = service.stats()
    assert stats["mutations"] == 8
    assert stats["versions"][fp[:16]] == 8
    assert stats["requests"] >= 16  # at least the sentinel checks landed
    cache_stats = stats["cache"]
    assert cache_stats["hits"] >= 8  # every 'again' probe hit
    assert cache_stats["size"] <= cache_stats["maxsize"]
    assert dataset_fingerprint(service.dataset(fp)) == fp  # fully unplanted


def test_portfolio_stress_under_mutation_with_counter_consistency(rng):
    """Portfolio racing + warm pool under live mutation churn.

    Hammer threads pour ``solver="portfolio"`` MSR and counterfactual
    traffic over a live HTTP server (parallel racing on, result cache
    off so every request genuinely races and leases pooled solvers)
    while a mutator plants and removes a block of points, superseding
    the versions the pooled solvers were keyed under.  Zero malformed
    answers are tolerated, and the pool / race counters the run
    produced must agree across ``service.stats()``, ``GET /v2/stats``
    and the rendered ``/metrics`` exposition.
    """
    n = 6
    data = random_discrete_dataset(rng, n, 8, 8)
    # Racer processes fork before the server/hammer threads start.
    service = ExplanationService(cache_size=0, parallel_portfolio=True, race_workers=2)
    fp = service.add_dataset(data)
    server = serve_http(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.port}"
    stop = threading.Event()
    failures: list[str] = []

    def hammer(worker: int) -> None:
        local = np.random.default_rng(worker)
        method = ("minimum_sr", "counterfactual")[worker % 2]
        while not stop.is_set():
            x = local.integers(0, 2, size=n).astype(float).tolist()
            try:
                out = _post(url + "/v2/explain", {
                    "fingerprint": fp, "method": method, "instances": [x],
                    "params": {"k": 1, "metric": "hamming", "solver": "portfolio"},
                })
                (answer,) = out["results"]
                result = answer["result"]
                if method == "minimum_sr":
                    ok = (
                        isinstance(result.get("X"), list)
                        and result.get("size") == len(result["X"])
                        and all(0 <= int(i) < n for i in result["X"])
                    )
                else:
                    y = result.get("y")
                    ok = y is None or (
                        len(y) == n and float(result["distance"]) >= 0
                    )
                if not ok:
                    failures.append(f"malformed portfolio answer: {out}")
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                failures.append(f"worker {worker}: {exc}")

    workers = [threading.Thread(target=hammer, args=(w,)) for w in range(3)]
    for worker in workers:
        worker.start()
    try:
        block = rng.integers(0, 2, size=(2, n)).astype(float)
        for round_no in range(4):
            planted = round_no % 2 == 0
            if planted:
                info = _post(url + f"/v2/datasets/{fp}/points", {
                    "points": block.tolist(), "labels": [1, 0],
                })
            else:
                info = _delete(url + f"/v2/datasets/{fp}/points", {
                    "points": block.tolist(), "labels": [1, 0],
                })
            assert info["version"] == round_no + 1
            time.sleep(0.3)  # let portfolio traffic land on this version
        stop.set()
        for worker in workers:
            worker.join(timeout=30)
        # Counters are quiescent now: compare the three surfaces.
        with urllib.request.urlopen(url + "/v2/stats") as response:
            v2 = json.load(response)
        with urllib.request.urlopen(url + "/metrics") as response:
            metrics = response.read().decode()
        # Snapshot before shutdown: closing the server closes the
        # service, which tears the race workers down.
        stats = service.stats()
        pooled = set(service.solver_pool.fingerprints())
        pool_keys = len(service.solver_pool.keys())
        current = set(service.fingerprints())
    finally:
        stop.set()
        server.shutdown()
    assert not failures, failures[:3]
    portfolio, pool = stats["portfolio"], stats["solver_pool"]
    assert v2["portfolio"] == portfolio
    assert v2["solver_pool"] == pool
    assert portfolio["races"] > 0
    assert portfolio["races"] == portfolio["parallel"] + portfolio["sequential"]
    assert sum(portfolio["attempts"].values()) >= portfolio["races"]
    assert pool["hits"] + pool["misses"] > 0
    assert pool["entries"] == pool_keys
    # Mutations superseded pooled versions: whatever remains pooled
    # belongs to the dataset's current version only.
    assert pooled <= current
    # The rendered exposition must agree with the JSON counters.
    pool_hit = f'repro_solver_pool_requests_total{{outcome="hit"}} {pool["hits"]}'
    pool_miss = f'repro_solver_pool_requests_total{{outcome="miss"}} {pool["misses"]}'
    races_par = f'repro_portfolio_races_total{{mode="parallel"}} {portfolio["parallel"]}'
    assert pool_hit in metrics and pool_miss in metrics
    assert races_par in metrics
    race_pool = portfolio["race_pool"]
    assert f'repro_race_events_total{{event="races"}} {race_pool["races"]}' in metrics
    service.close()  # idempotent: the server shutdown already closed it


def test_http_budget_must_be_finite_and_non_negative(rng, server, service):
    # NaN compares false against every deadline, so it would lift the cap.
    url = f"http://127.0.0.1:{server.port}/v2/explain"
    x = rng.integers(0, 2, size=8).astype(float).tolist()

    def minimum_sr(budget):
        return _post(url, {
            "fingerprint": service.fp, "method": "minimum_sr", "instances": [x],
            "params": {"k": 1, "metric": "hamming", "solver": "portfolio", "budget": budget},
        })

    for budget in (float("nan"), "Infinity", -1):
        with pytest.raises(urllib.error.HTTPError) as err:
            minimum_sr(budget)
        assert err.value.code == 400
        with err.value:
            body = json.load(err.value)
        assert body["error"]["type"] == "ValidationError"
        assert "budget" in body["error"]["message"]
    (answer,) = minimum_sr(0)["results"]
    assert answer["result"]["exact"] is False
