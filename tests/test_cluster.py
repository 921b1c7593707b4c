"""Tests for sharded multi-process serving: cluster, load harness, v2 API.

The contract under test is the ISSUE's acceptance bar, scaled to CI:

- the :class:`~repro.serve.ClusterService` answers **bit-identically**
  to the single-process :class:`~repro.serve.ExplanationService` over
  every method/solver combination, including the Proposition 1 tie;
- mutations route through lineage owners and bump versions in lockstep
  on every replica (the PR-5 ``<fp>@vN`` invalidation scheme);
- a full admission queue surfaces as a structured
  :class:`~repro.exceptions.OverloadedError` (HTTP 429), never a hang,
  and the worker recovers afterwards;
- the ``/v2`` resource scheme and the unified error envelope behave as
  documented in ``docs/api.md``.

Speed ratios are deliberately NOT asserted here — this box may have a
single core.  The >= 3x floors are the ``serve_scaleout`` row of the
``repro bench`` floor table (``repro bench --workloads serve_scaleout``).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import (
    ClusterService,
    Dataset,
    ExplanationService,
    OverloadedError,
    UnknownDatasetError,
    serve_http,
)
from repro.serve import LoadSpec, run_load, split_fingerprint

from .helpers import random_discrete_dataset

#: every (method, params) cell of the serving matrix; mirrors the
#: single-process cache-parity matrix in test_serve.py.
ALL_COMBOS = [
    ("classify", {"k": 3}),
    ("margin", {"k": 3}),
    ("radii", {"k": 3}),
    ("minimal_sr", {"k": 1}),
    ("minimum_sr", {"k": 1, "solver": "milp"}),
    ("minimum_sr", {"k": 1, "solver": "sat"}),
    ("counterfactual", {"k": 1, "solver": "hamming-sat"}),
    ("counterfactual", {"k": 1, "solver": "hamming-brute"}),
]


# Worker processes are expensive to fork, so one cluster (and one
# reference single-process service) is shared by the whole module; each
# test works on its own lineage or on the shared read-only one.
@pytest.fixture(scope="module")
def mod_rng():
    """Module-scoped twin of the suite ``rng`` fixture (same seed)."""
    return np.random.default_rng(20250123)


@pytest.fixture(scope="module")
def data(mod_rng):
    """The shared read-only dataset lineage."""
    return random_discrete_dataset(mod_rng, 8, 12, 12)


@pytest.fixture(scope="module")
def cluster(data):
    """A 2x2 cluster with *data* registered; fingerprint on ``.fp``."""
    with ClusterService(workers=2, replicas=2, queue_depth=32, cache_size=64) as svc:
        svc.fp = svc.add_dataset(data)
        yield svc


@pytest.fixture(scope="module")
def single(data):
    """The single-process reference; fingerprint on ``.fp``."""
    svc = ExplanationService(cache_size=64)
    svc.fp = svc.add_dataset(data)
    return svc


def _queries(rng, n, count):
    """Deterministic random boolean query vectors."""
    return [rng.integers(0, 2, size=n).astype(float) for _ in range(count)]


# -- exact parity -------------------------------------------------------


@pytest.mark.parametrize("method,params", ALL_COMBOS)
def test_cluster_answers_match_single_process(rng, cluster, single, method, params):
    queries = _queries(rng, 8, 4)
    expected = single.explain(single.fp, method, queries, params)
    actual = cluster.explain(cluster.fp, method, queries, params)
    assert [a["result"] for a in actual] == [e["result"] for e in expected]


def test_cluster_proposition1_tie_matches_single_process():
    # r+ == r- must classify positive (Proposition 1) on every replica.
    tie = Dataset([[0, 1]], [[1, 0]], discrete=True)
    x = np.array([0.0, 0.0])
    single = ExplanationService(cache_size=0)
    fp = single.add_dataset(tie)
    with ClusterService(workers=2, replicas=2, cache_size=0) as clustered:
        clustered.add_dataset(tie)
        results = {}
        for method in ("classify", "margin", "radii"):
            one = single.explain(fp, method, [x], {"k": 1})[0]["result"]
            many = clustered.explain(fp, method, [x], {"k": 1})[0]["result"]
            assert many == one
            results[method] = many
    assert results["radii"]["r_pos"] == results["radii"]["r_neg"] == 1.0
    assert results["classify"]["label"] == 1  # the tie classifies positive
    assert results["margin"]["margin"] == 0.0


def test_cluster_fingerprints_and_describe_match_single(cluster, single):
    assert cluster.fingerprints() == single.fingerprints()
    mine = cluster.describe(cluster.fp)
    theirs = single.describe(single.fp)
    assert mine == theirs
    assert mine["version"] == 0


def test_unknown_fingerprint_is_a_structured_404_error(cluster):
    ghost = "0" * 64
    with pytest.raises(UnknownDatasetError):
        cluster.explain(ghost, "classify", [np.zeros(8)], {"k": 1})
    with pytest.raises(UnknownDatasetError):
        cluster.describe(ghost)


# -- sharding and mutation routing --------------------------------------


def test_lineages_shard_by_fingerprint_and_replicate(mod_rng):
    with ClusterService(workers=3, replicas=2, cache_size=0) as svc:
        owners = set()
        for _ in range(6):
            fp = svc.add_dataset(random_discrete_dataset(mod_rng, 6, 5, 5))
            owner = svc.owner_of(fp)
            owners.add(owner)
            replicas = svc.replica_set(fp)
            assert replicas[0] == owner and len(set(replicas)) == 2
        assert len(owners) > 1  # content hashing actually spreads lineages


def test_mutation_bumps_version_on_every_replica(mod_rng):
    base_data = random_discrete_dataset(mod_rng, 6, 6, 6)
    point = mod_rng.integers(0, 2, size=6).astype(float)
    with ClusterService(workers=2, replicas=2, cache_size=16) as svc:
        fp = svc.add_dataset(base_data)
        x = mod_rng.integers(0, 2, size=6).astype(float)
        before = svc.explain(fp, "classify", [x], {"k": 1})[0]["result"]
        bumped = svc.add_points(fp, [point.tolist()], [1])
        base, version = split_fingerprint(bumped["fingerprint"])
        assert (base, version) == (fp, 1)
        assert svc.describe(fp)["version"] == 1
        # Every replica answers for the *new* version: compare against a
        # fresh single-process service holding the mutated dataset.
        reference = ExplanationService(cache_size=0)
        ref_fp = reference.add_dataset(base_data)
        reference.add_points(ref_fp, [point.tolist()], [1])
        after = svc.explain(fp, "classify", [x], {"k": 3})
        expected = reference.explain(ref_fp, "classify", [x], {"k": 3})
        assert [a["result"] for a in after] == [e["result"] for e in expected]
        # Undo restores the original lineage content at version 2.
        svc.remove_points(fp, [point.tolist()], [1])
        assert svc.describe(fp)["version"] == 2
        restored = svc.explain(fp, "classify", [x], {"k": 1})[0]["result"]
        assert restored == before


def test_remove_dataset_forgets_the_lineage(mod_rng):
    with ClusterService(workers=2, replicas=2, cache_size=16) as svc:
        fp = svc.add_dataset(random_discrete_dataset(mod_rng, 6, 5, 5))
        assert fp in svc.fingerprints()[0]
        svc.remove_dataset(fp)
        assert svc.fingerprints() == []
        with pytest.raises(UnknownDatasetError):
            svc.describe(fp)


# -- admission control and backpressure ---------------------------------


def _occupy(svc, fp, dim):
    """Start a slow solver batch in a worker; return the carrier thread."""
    xs = [np.zeros(dim) + (i % 2) for i in range(3)]

    def solve():
        svc.explain(fp, "minimum_sr", xs, {"k": 1, "solver": "sat"})

    thread = threading.Thread(target=solve, daemon=True)
    thread.start()
    return thread


def test_full_queue_raises_overloaded_then_recovers(mod_rng):
    slow_data = random_discrete_dataset(mod_rng, 10, 20, 20)
    with ClusterService(
        workers=1, replicas=1, queue_depth=1, cache_size=0, max_batch=8
    ) as svc:
        fp = svc.add_dataset(slow_data)
        x = np.zeros(10)
        thread = _occupy(svc, fp, 10)
        deadline = time.monotonic() + 10.0
        rejected = False
        while time.monotonic() < deadline and thread.is_alive():
            # The queue bound is 1; while the solver batch is in flight,
            # any further request must be refused, not queued behind it.
            try:
                svc.explain(fp, "classify", [x], {"k": 1})
            except OverloadedError:
                rejected = True
                break
            time.sleep(0.001)
        thread.join(timeout=30.0)
        if not rejected:  # explicit raise: survives `python -O`
            raise AssertionError("full admission queue never raised OverloadedError")
        assert svc.stats()["cluster"]["rejected"] >= 1
        # The worker is intact afterwards: same request now succeeds.
        answer = svc.explain(fp, "classify", [x], {"k": 1})
        assert answer[0]["result"]["label"] in (0, 1)


def test_stats_exposes_cluster_topology(cluster):
    stats = cluster.stats()
    section = stats["cluster"]
    assert section["workers"] == 2
    assert section["replicas"] == 2
    assert section["queue_depth"] == 32
    assert section["alive"] == [True, True]
    assert section["dispatched"] >= 1
    assert stats["requests"] >= 1  # summed worker counters


def test_cluster_close_is_idempotent(mod_rng):
    svc = ClusterService(workers=2, replicas=1, cache_size=0)
    svc.add_dataset(random_discrete_dataset(mod_rng, 6, 5, 5))
    svc.close()
    svc.close()
    assert svc.fingerprints() == []


# -- load-generation harness --------------------------------------------


def test_serve_scaleout_workload_is_deterministic():
    """Same seed, same schedule — the parity phase's precondition."""
    from repro.serve import build_workload

    fingerprints = ["f" * 64, "0" * 64]
    spec = LoadSpec(requests=20, seed=7)
    first = build_workload(fingerprints, 6, spec)
    second = build_workload(fingerprints, 6, spec)
    assert [i.arrival_s for i in first] == [i.arrival_s for i in second]
    assert [i.method for i in first] == [i.method for i in second]
    assert [i.fingerprint for i in first] == [i.fingerprint for i in second]
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.instance, b.instance)


def test_load_harness_smoke_counts_are_sound(cluster, single):
    spec = LoadSpec(
        rate=400.0,
        requests=60,
        classify_weight=0.95,
        minimum_sr_weight=0.03,
        counterfactual_weight=0.02,
        mutation_every_s=0.0,  # shared lineage stays read-only
        concurrency=8,
        seed=11,
    )
    report = run_load(cluster, [cluster.fp], 8, spec)
    assert report.malformed == 0
    assert report.errors == 0
    assert report.ok + report.overloaded == report.requests == 60
    assert report.throughput_rps > 0
    assert report.latency_ms["all"]["p99"] >= report.latency_ms["all"]["p50"] > 0
    # Counters are monotone across the run.
    for key in ("requests", "batches"):
        assert report.stats_after[key] >= report.stats_before[key]
    # The same harness drives the single-process reference unchanged.
    single_report = run_load(single, [single.fp], 8, spec)
    assert single_report.malformed == 0 and single_report.errors == 0


def test_load_harness_mutation_noise_keeps_answers_wellformed(mod_rng):
    churn = random_discrete_dataset(mod_rng, 6, 8, 8)
    with ClusterService(workers=2, replicas=2, cache_size=32) as svc:
        fp = svc.add_dataset(churn)
        spec = LoadSpec(
            rate=300.0,
            requests=40,
            mutation_every_s=0.01,
            concurrency=8,
            seed=3,
        )
        report = run_load(svc, [fp], 6, spec)
        assert report.malformed == 0
        assert report.errors == 0
        assert report.mutations >= 1
        assert svc.describe(fp)["version"] >= 1


# -- CLI factory --------------------------------------------------------


def _serve_args(*extra):
    from repro.cli import build_parser

    return build_parser().parse_args(["serve", *extra])


def test_cli_workers_1_builds_the_exact_single_process_service():
    from repro.cli import _build_serve_service

    args = _serve_args("--cache-size", "77", "--max-wait-ms", "4")
    built = _build_serve_service(args)
    assert type(built) is ExplanationService
    assert built.cache.maxsize == 77


def test_cli_workers_n_builds_a_cluster():
    from repro.cli import _build_serve_service

    args = _serve_args(
        "--workers", "2", "--replicas", "2", "--queue-depth", "5", "--cache-size", "8"
    )
    built = _build_serve_service(args)
    try:
        assert type(built) is ClusterService
        info = built.cluster_info()
        assert info["workers"] == 2
        assert info["replicas"] == 2
        assert info["queue_depth"] == 5
    finally:
        built.close()


# -- HTTP v2 API --------------------------------------------------------


def _post(url: str, body: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.load(response)


@pytest.fixture(scope="module")
def server(cluster):
    """The module cluster behind a live HTTP server on an ephemeral port."""
    server = serve_http(cluster, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()  # closing the module cluster here is fine: last user


def test_http_v2_explain_and_v1_is_gone(rng, server, cluster):
    url = f"http://127.0.0.1:{server.port}"
    x = rng.integers(0, 2, size=8).astype(float).tolist()
    body = {
        "fingerprint": cluster.fp,
        "method": "classify",
        "instances": [x, x],
        "params": {"k": 3},
    }
    v2 = _post(url + "/v2/explain", body)
    assert len(v2["results"]) == 2
    assert v2["results"][0]["result"]["label"] in (0, 1)
    # A repeat of the batch answers identically...
    again = _post(url + "/v2/explain", body)
    assert [r["result"] for r in again["results"]] == [r["result"] for r in v2["results"]]
    # ...and so does a one-instance envelope.
    one = _post(
        url + "/v2/explain",
        {
            "fingerprint": cluster.fp,
            "method": "classify",
            "instances": [x],
            "params": {"k": 3},
        },
    )
    assert one["results"][0]["result"] == v2["results"][0]["result"]
    # The /v1 prefix is no longer routed.
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(url + "/v1/explain", body)
    assert err.value.code == 404


def test_http_v2_scalar_instance_is_rejected(server, cluster):
    url = f"http://127.0.0.1:{server.port}"
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(
            url + "/v2/explain",
            {
                "fingerprint": cluster.fp,
                "method": "classify",
                "instance": [0.0] * 8,
                "params": {"k": 1},
            },
        )
    assert err.value.code == 400
    body = json.load(err.value)
    assert body["error"]["type"] == "ValidationError"
    assert "instances" in body["error"]["message"]


def test_http_v2_cluster_endpoint_reports_topology(server):
    url = f"http://127.0.0.1:{server.port}"
    with urllib.request.urlopen(url + "/v2/cluster") as response:
        info = json.load(response)
    assert info["mode"] == "cluster"
    assert info["workers"] == 2
    assert info["replicas"] == 2


def test_http_cluster_endpoint_single_process_shape(data):
    service = ExplanationService(cache_size=0)
    service.add_dataset(data)
    server = serve_http(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.port}"
        with urllib.request.urlopen(url + "/v2/cluster") as response:
            info = json.load(response)
        assert info == {"mode": "single-process", "workers": 1, "replicas": 1}
    finally:
        server.shutdown()


def test_http_unknown_fingerprint_is_404_with_envelope(server):
    url = f"http://127.0.0.1:{server.port}"
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(url + f"/v2/datasets/{'0' * 64}")
    assert err.value.code == 404
    body = json.load(err.value)
    assert body["error"]["type"] == "UnknownDatasetError"
    assert set(body) == {"error"}
    assert err.value.headers["Deprecation"] is None


def test_http_overload_is_a_structured_429(mod_rng):
    slow_data = random_discrete_dataset(mod_rng, 10, 20, 20)
    with ClusterService(
        workers=1, replicas=1, queue_depth=1, cache_size=0, max_batch=8
    ) as svc:
        fp = svc.add_dataset(slow_data)
        server = serve_http(svc, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.port}"
            solver = _occupy(svc, fp, 10)
            body = {
                "fingerprint": fp,
                "method": "classify",
                "instances": [[0.0] * 10],
                "params": {"k": 1},
            }
            deadline = time.monotonic() + 10.0
            status, payload = None, None
            while time.monotonic() < deadline and solver.is_alive():
                try:
                    _post(url + "/v2/explain", body)
                except urllib.error.HTTPError as exc:
                    status, payload = exc.code, json.load(exc)
                    break
                time.sleep(0.001)
            solver.join(timeout=30.0)
            if status is None:
                raise AssertionError("overloaded cluster never answered 429")
            assert status == 429
            assert payload["error"]["type"] == "OverloadedError"
        finally:
            server.shutdown()
