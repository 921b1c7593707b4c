"""Headline benchmark harness behind ``python -m repro bench`` and CI.

Measures a small set of *headline* workloads — the numbers the ROADMAP
tracks over time — and serializes them as ``BENCH_*.json``:

* ``engine_batch`` — :meth:`QueryEngine.classify_batch` against the
  seed's per-point classification loop (l2, 5000 x 64); the *headline*
  whose speedup the CI ``bench-baseline`` job gates against the
  committed ``benchmarks/BENCH_baseline.json``;
* ``hamming_bitpack`` — the bit-packed popcount backend against the
  dense Gram kernel on binary Hamming data (5000 x 128), asserted
  bit-identical;
* ``kdtree_lowdim`` — per-query KD-tree search against per-query brute
  force at dimension 3, where the tree's pruning wins;
* ``msr_incremental`` — the one (assumption-based, encode-once)
  Minimum-SR SAT sweep against its private rebuild-per-bound reference
  — the second gated headline, introduced with the incremental solver;
* ``serve_throughput`` — the :mod:`repro.serve` micro-batched service
  path against a sequential per-request loop on the same service
  (caching disabled on both sides, answers asserted identical) — the
  third gated headline, introduced with the serving layer;
* ``streaming_updates`` — an interleaved insert/query stream absorbed
  by one engine's incremental :meth:`~repro.knn.QueryEngine.add_points`
  path against rebuilding the engine after every mutation (labels
  asserted identical) — the fourth gated headline, introduced with
  mutable streaming datasets;
* ``million_point`` — the certified inverted-file backend against the
  dense kernels on clustered integer data (labels, margins and radii
  asserted bit-identical first) — the fifth gated headline, introduced
  with the IVF backend.  CI runs it at a scaled-down ``train`` (the
  default below); the nightly job passes ``--train 1000000`` for the
  full million-point measurement;
* ``serve_scaleout`` — the sharded multi-process
  :class:`~repro.serve.ClusterService` against the single-process
  service under the same deterministic open-loop mixed workload
  (classify + SAT solves), payloads asserted bit-identical request for
  request before timing — the sixth gated headline, introduced with
  the cluster front.  The gated number is the **classify-class p99
  latency ratio** (head-of-line blocking is what sharding removes;
  see :func:`measure_serve_scaleout` for why it is clamped).

Speedup *ratios* (not wall-clock seconds) are what the gate compares:
ratios are stable across runner hardware, absolute times are not.  Each
workload re-times both of its contestants in the same process, so a
slow runner slows both sides.

:data:`FLOORS` is the one threshold table: every gated workload must
reach its absolute floors and, given a committed baseline, stay within
``max_regression`` of the baseline's speedup.  :func:`compare_with_retry`
checks both, re-measuring a failing workload before the failure is
final.  The gate covers the workloads the run measured:
``repro bench --workloads <name>`` runs it for that workload alone, a
run without ``--workloads`` for all of them.
"""

from __future__ import annotations

import inspect
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..knn import Dataset, QueryEngine
from ..knn.engine import _kth_smallest_with_multiplicity
from ..neighbors import BruteForceIndex, KDTreeIndex

#: JSON schema version of the BENCH_*.json payload.
BENCH_SCHEMA = 1


@dataclass(frozen=True)
class Floor:
    """An absolute gate: a workload's ``metric`` must reach ``value``.

    A floor with ``min_cpus`` applies only to a measurement that records
    at least that many ``cpus``: below it the ratio measures parallelism
    the host does not have (~1x on one core however good the topology
    is), so it is reported and not gated.
    """

    value: float
    metric: str = "speedup"
    min_cpus: int = 0

    def applies(self, row: dict) -> bool:
        """Whether *row* was measured on enough cores to be gated."""
        return (row.get("cpus") or 0) >= self.min_cpus


#: the one threshold table: every gated workload and its absolute floors
#: (the acceptance bar each fast path was introduced with).
FLOORS: dict[str, tuple[Floor, ...]] = {
    "engine_batch": (Floor(10.0),),
    "hamming_bitpack": (Floor(3.0),),
    "msr_incremental": (Floor(3.0),),
    "serve_throughput": (Floor(3.0),),
    "serve_scaleout": (Floor(3.0), Floor(3.0, "throughput_ratio", min_cpus=4)),
    "portfolio_parallel": (Floor(2.0, min_cpus=4),),
    "streaming_updates": (Floor(3.0),),
    "million_point": (Floor(6.0),),
    "scenario_multiclass": (Floor(1.5),),
}

#: workloads the gate checks, primary first.  The primary headline must
#: exist in a baseline; the others are compared with a baseline only
#: when it records them (so an old baseline keeps gating what it knows
#: about).
GATED_HEADLINES = tuple(FLOORS)

#: the primary gated workload.
HEADLINE = GATED_HEADLINES[0]

#: default tolerated relative drop of a gated speedup (25%).
DEFAULT_MAX_REGRESSION = 0.25


def best_of(fn, *, repeats: int = 3) -> float:
    """Best (minimum) wall-clock seconds of ``fn()`` over *repeats* runs."""
    best = np.inf
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return float(best)


def classify_batch_loop(data: Dataset, metric, queries: np.ndarray, k: int) -> np.ndarray:
    """The seed's per-point classification path: one Python iteration (and
    two distance vectors) per query — kept verbatim as the baseline the
    engine-batch headline is measured against."""
    need = (k + 1) // 2
    out = np.empty(queries.shape[0], dtype=np.int64)
    for i, x in enumerate(queries):
        pos_d = metric.powers_to(data.positives, x)
        neg_d = metric.powers_to(data.negatives, x)
        r_pos = _kth_smallest_with_multiplicity(pos_d, data.positive_multiplicities, need)
        r_neg = _kth_smallest_with_multiplicity(neg_d, data.negative_multiplicities, need)
        out[i] = 1 if r_pos <= r_neg else 0
    return out


def _labeled_workload(rng, n_train: int, n_dim: int, n_queries: int, *, binary: bool):
    if binary:
        points = rng.integers(0, 2, size=(n_train, n_dim)).astype(float)
        queries = rng.integers(0, 2, size=(n_queries, n_dim)).astype(float)
    else:
        points = rng.normal(size=(n_train, n_dim))
        queries = rng.normal(size=(n_queries, n_dim))
    labels = rng.integers(0, 2, size=n_train).astype(bool)
    return Dataset(points[labels], points[~labels]), queries


def measure_engine_batch(seed: int = 20250601, repeats: int = 3) -> dict:
    """Headline: batched engine classification vs the per-point loop."""
    rng = np.random.default_rng(seed)
    data, queries = _labeled_workload(rng, 5_000, 64, 200, binary=False)
    engine = QueryEngine(data, "l2", backend="dense")
    looped = best_of(
        lambda: classify_batch_loop(data, engine.metric, queries, 3), repeats=repeats
    )
    batched = best_of(lambda: engine.classify_batch(queries, 3), repeats=repeats)
    np.testing.assert_array_equal(
        engine.classify_batch(queries, 3),
        classify_batch_loop(data, engine.metric, queries, 3),
    )
    return {
        "looped_s": looped,
        "batched_s": batched,
        "speedup": looped / batched,
        "queries": 200,
        "train": 5_000,
        "dim": 64,
        "metric": "l2",
        "k": 3,
    }


def measure_hamming_bitpack(seed: int = 20250601, repeats: int = 3) -> dict:
    """Bit-packed popcount backend vs the dense Gram kernel (binary data).

    Classifications are asserted bit-identical before timing — the
    backend contract the parity suite enforces more broadly.
    """
    rng = np.random.default_rng(seed)
    data, queries = _labeled_workload(rng, 5_000, 128, 200, binary=True)
    dense = QueryEngine(data, "hamming", backend="dense")
    bitpack = QueryEngine(data, "hamming", backend="bitpack")
    np.testing.assert_array_equal(
        dense.classify_batch(queries, 3), bitpack.classify_batch(queries, 3)
    )
    dense_s = best_of(lambda: dense.classify_batch(queries, 3), repeats=repeats)
    bitpack_s = best_of(lambda: bitpack.classify_batch(queries, 3), repeats=repeats)
    return {
        "dense_s": dense_s,
        "bitpack_s": bitpack_s,
        "speedup": dense_s / bitpack_s,
        "queries": 200,
        "train": 5_000,
        "dim": 128,
        "metric": "hamming",
        "k": 3,
    }


def measure_kdtree_lowdim(seed: int = 20250601, repeats: int = 3) -> dict:
    """Per-query KD-tree search vs per-query brute force at dimension 3."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(4_000, 3))
    queries = rng.normal(size=(50, 3))
    brute = BruteForceIndex(points, "l2")
    tree = KDTreeIndex(points, "l2")

    def sweep(index):
        return [index.query(x, 5)[1][0] for x in queries]

    assert sweep(brute) == sweep(tree)
    brute_s = best_of(lambda: sweep(brute), repeats=repeats)
    kdtree_s = best_of(lambda: sweep(tree), repeats=repeats)
    return {
        "brute_s": brute_s,
        "kdtree_s": kdtree_s,
        "speedup": brute_s / kdtree_s,
        "queries": 50,
        "train": 4_000,
        "dim": 3,
        "metric": "l2",
        "k": 5,
    }


def measure_msr_incremental(seed: int = 20250601, repeats: int = 3) -> dict:
    """Gated headline: the one Minimum-SR SAT sweep vs its per-bound rebuild.

    Both contestants run the same linear bound search (the paper's
    strategy when the optimum is small) over the same instances and
    shared query engine, with no solver pool; the only difference is
    that the sweep (``minimum_sat_hamming_k1_pooled``) encodes the
    Proposition-6 characterization once and sweeps the size bound
    through guarded cardinality constraints activated by assumption
    literals, while the private rebuild reference re-encodes onto a
    fresh throwaway solver per probed bound.  Optimum sizes are
    asserted identical before timing.
    """
    from ..abductive.minimum import _minimum_sat_rebuild, minimum_sat_hamming_k1_pooled
    from ..datasets import random_boolean_dataset

    rng = np.random.default_rng(seed)
    n, size, n_queries = 13, 24, 3
    data = random_boolean_dataset(rng, n, size)
    queries = [rng.integers(0, 2, size=n).astype(float) for _ in range(n_queries)]
    engine = QueryEngine(data, "hamming")

    def sweep(incremental: bool) -> list[int]:
        solve = minimum_sat_hamming_k1_pooled if incremental else _minimum_sat_rebuild
        return [solve(data, x, engine, strategy="linear").size for x in queries]

    incremental_sizes, rebuild_sizes = sweep(True), sweep(False)
    if incremental_sizes != rebuild_sizes:  # explicit: must survive python -O
        raise AssertionError(
            "incremental and rebuild optima diverged: "
            f"{incremental_sizes} vs {rebuild_sizes}"
        )
    rebuild = best_of(lambda: sweep(False), repeats=repeats)
    incremental = best_of(lambda: sweep(True), repeats=repeats)
    return {
        "rebuild_s": rebuild,
        "incremental_s": incremental,
        "speedup": rebuild / incremental,
        "queries": n_queries,
        "train": size,
        "dim": n,
        "metric": "hamming",
        "k": 1,
    }


def measure_serve_throughput(seed: int = 20250601, repeats: int = 3) -> dict:
    """Gated headline: micro-batched serving vs a sequential request loop.

    Both contestants are the *same* :class:`~repro.serve.ExplanationService`
    configuration (result cache disabled, so batching — not memoization —
    is what's measured) over a 5000-point binary Hamming dataset, whose
    integer distances make batched and per-request answers bit-identical
    by the backend parity contract.  The sequential side answers one
    ``classify`` request per :meth:`~repro.serve.ExplanationService.submit`
    call — the one-shot library/CLI pattern the serving layer replaces —
    while the batched side hands the identical request list to
    :meth:`~repro.serve.ExplanationService.submit_many`, which groups
    them into vectorized ``classify_batch`` calls.  Payloads are
    asserted identical before any timing happens.
    """
    from ..serve import ExplanationService

    rng = np.random.default_rng(seed)
    data, queries = _labeled_workload(rng, 5_000, 64, 400, binary=True)

    def fresh_service() -> tuple:
        # The dense Gram kernel (the default workhorse backend) keeps the
        # contest about batching: under bitpack both sides' kernels are so
        # cheap that fixed per-call overhead compresses the ratio.  Dense
        # Hamming is still exact on the binary data (integer counts).
        service = ExplanationService(cache_size=0, backend="dense")
        return service, service.add_dataset(data)

    def sequential(service, fingerprint) -> list:
        return [
            service.submit(fingerprint, "classify", x, k=3, metric="hamming")
            for x in queries
        ]

    def batched(service, fingerprint) -> list:
        requests = [
            service.make_request(fingerprint, "classify", x, k=3, metric="hamming")
            for x in queries
        ]
        return service.submit_requests(requests)

    service, fingerprint = fresh_service()
    sequential_payloads = [r.payload for r in sequential(service, fingerprint)]
    batched_payloads = [r.payload for r in batched(service, fingerprint)]
    if sequential_payloads != batched_payloads:  # explicit: survives python -O
        raise AssertionError("batched and sequential serving answers diverged")
    sequential_s = best_of(
        lambda: sequential(service, fingerprint), repeats=repeats
    )
    batched_s = best_of(lambda: batched(service, fingerprint), repeats=repeats)
    return {
        "sequential_s": sequential_s,
        "batched_s": batched_s,
        "speedup": sequential_s / batched_s,
        "requests_per_s_sequential": len(queries) / sequential_s,
        "requests_per_s_batched": len(queries) / batched_s,
        "queries": 400,
        "train": 5_000,
        "dim": 64,
        "metric": "hamming",
        "k": 3,
    }


def measure_streaming_updates(seed: int = 20250601, repeats: int = 3) -> dict:
    """Gated headline: incremental index updates vs rebuild-per-mutation.

    Both contestants replay the same interleaved stream — 30 rounds of
    "insert 4 labeled points, then answer 25 classify queries" over a
    4000-point binary Hamming dataset (bitpack backend, the streaming
    regime's workhorse).  The incremental side owns **one** engine and
    absorbs each batch through
    :meth:`~repro.knn.QueryEngine.add_points` (packed-word appends, no
    flush of anything the batch did not touch); the rebuild side does
    what the pre-mutation repo had to: fold the batch into a fresh
    :class:`~repro.knn.Dataset` and construct a new engine per mutation.
    Every label of the two streams is asserted identical before timing —
    the differential invariant the fuzz parity suite enforces broadly.
    """
    rng = np.random.default_rng(seed)
    n_train, n_dim, rounds, inserts, queries_per_round = 4_000, 64, 30, 4, 25
    data, _ = _labeled_workload(rng, n_train, n_dim, 1, binary=True)
    stream = [
        (
            rng.integers(0, 2, size=(inserts, n_dim)).astype(float),
            rng.integers(0, 2, size=inserts),
            rng.integers(0, 2, size=(queries_per_round, n_dim)).astype(float),
        )
        for _ in range(rounds)
    ]

    def incremental() -> np.ndarray:
        engine = QueryEngine(data, "hamming", backend="bitpack", cache_size=0)
        labels = []
        for points, point_labels, queries in stream:
            engine.add_points(points, point_labels)
            labels.append(engine.classify_batch(queries, 3))
        return np.concatenate(labels)

    def rebuild() -> np.ndarray:
        current = data
        labels = []
        for points, point_labels, queries in stream:
            current = current.with_added(points, point_labels)
            engine = QueryEngine(current, "hamming", backend="bitpack", cache_size=0)
            labels.append(engine.classify_batch(queries, 3))
        return np.concatenate(labels)

    if not np.array_equal(incremental(), rebuild()):  # explicit: survives python -O
        raise AssertionError("incremental and rebuilt streaming answers diverged")
    rebuild_s = best_of(rebuild, repeats=repeats)
    incremental_s = best_of(incremental, repeats=repeats)
    return {
        "rebuild_s": rebuild_s,
        "incremental_s": incremental_s,
        "speedup": rebuild_s / incremental_s,
        "rounds": rounds,
        "inserts_per_round": inserts,
        "queries": rounds * queries_per_round,
        "train": n_train,
        "dim": n_dim,
        "metric": "hamming",
        "k": 3,
    }


def measure_scenario_multiclass(seed: int = 20250601, repeats: int = 3) -> dict:
    """Gated headline: shared multiclass engine vs naive per-class rebuild.

    The multiclass tentpole's claim is that one shared
    :class:`~repro.knn.MultiClassEngine` serves every one-vs-rest
    question without materializing a merged dataset (or index) per
    class.  The naive contestant is what a user had before: for each of
    the C classes, build the merged binary :class:`~repro.knn.Dataset`,
    construct a fresh :class:`~repro.knn.QueryEngine` over it, and ask
    for its radii — C full index builds and C distance passes per batch.
    The shared side answers the same queries from one engine via
    :meth:`~repro.knn.MultiClassEngine.class_radii_batch` (one distance
    pass, per-class order statistics).  Per-class radii and the derived
    nearest-class labels are asserted bit-identical before timing —
    the invariant ``tests/test_multiclass_parity.py`` pins broadly.
    """
    from ..knn import MultiClassDataset, MultiClassEngine

    rng = np.random.default_rng(seed)
    n_train, n_dim, n_classes, n_queries, k = 3_000, 48, 5, 300, 3
    points = rng.integers(0, 2, size=(n_train, n_dim)).astype(float)
    labels = rng.integers(0, n_classes, size=n_train)
    labels[:n_classes] = np.arange(n_classes)
    data = MultiClassDataset(points, labels, discrete=True)
    queries = rng.integers(0, 2, size=(n_queries, n_dim)).astype(float)

    def merged() -> tuple:
        engine = MultiClassEngine(data, "hamming", backend="bitpack", cache_size=0)
        radii, rest = engine.class_radii_batch(queries, k)
        return radii, rest, engine.classify_batch(queries, 1)

    def naive() -> tuple:
        radii = np.empty((n_queries, n_classes))
        rest = np.empty((n_queries, n_classes))
        nearest = np.empty((n_queries, n_classes))
        for j, label in enumerate(data.classes):
            engine = QueryEngine(
                data.merged(label), "hamming", backend="bitpack", cache_size=0
            )
            radii[:, j], rest[:, j] = engine.radii_batch(queries, k)
            nearest[:, j] = engine.radii_batch(queries, 1)[0]
        # Nearest-class (k = 1) labels; argmin ties break toward the
        # smallest label, matching the engine's documented tie rule.
        return radii, rest, np.asarray(data.classes)[np.argmin(nearest, axis=1)]

    ours, theirs = merged(), naive()
    for mine, other in zip(ours, theirs):  # explicit: survives python -O
        if not np.array_equal(mine, other):
            raise AssertionError("shared-engine and per-class answers diverged")
    naive_s = best_of(naive, repeats=repeats)
    merged_s = best_of(merged, repeats=repeats)
    return {
        "naive_s": naive_s,
        "merged_s": merged_s,
        "speedup": naive_s / merged_s,
        "train": n_train,
        "dim": n_dim,
        "classes": n_classes,
        "queries": n_queries,
        "metric": "hamming",
        "k": k,
    }


def _clustered_integer_points(
    rng, n: int, dim: int, *, n_clusters: int, spread: int = 2, chunk: int = 262_144
) -> tuple[np.ndarray, np.ndarray]:
    """Integer points clustered around integer centers, generated in chunks.

    Streams ``chunk`` rows at a time into one preallocated output array,
    so peak temporary memory is O(chunk x dim) no matter how large ``n``
    grows — at the full million-point size a one-shot
    ``centers[assign] + offsets`` expression would materialize several
    extra copies of the half-gigabyte dataset.  Returns
    ``(centers, points)``; the integer grid keeps every distance exactly
    representable, which is what makes cross-backend parity assertable
    bit for bit.
    """
    centers = rng.integers(0, 41, size=(n_clusters, dim)).astype(float)
    points = np.empty((n, dim), dtype=float)
    for start in range(0, n, max(1, int(chunk))):
        stop = min(n, start + chunk)
        assign = rng.integers(0, n_clusters, size=stop - start)
        points[start:stop] = centers[assign]
        points[start:stop] += rng.integers(-spread, spread + 1, size=(stop - start, dim))
    return centers, points


def measure_million_point(
    seed: int = 20250601,
    repeats: int = 3,
    *,
    train: int = 120_000,
    dim: int = 64,
) -> dict:
    """Gated headline: the certified IVF backend vs the dense Gram kernel.

    Clustered integer data is the regime the inverted file is built for:
    the coarse quantizer recovers the clusters, the triangle-inequality
    certificate proves most buckets cannot hold a k-th nearest neighbor,
    and integer coordinates make every surrogate-distance gap >= 1 — so
    certification succeeds and each query scans a few percent of the
    points while staying bit-identical to the dense scan.  Labels,
    margins and radii are asserted identical before any timing happens.

    ``train``/``dim`` default to a CI-sized workload; the nightly job
    passes ``--train 1000000`` for the paper-scale measurement (the
    chunked generator keeps peak temporary memory flat).
    """
    rng = np.random.default_rng(seed)
    train, dim = int(train), int(dim)
    n_clusters = max(32, int(np.sqrt(train)) // 2)
    n_queries, k = 64, 3
    centers, points = _clustered_integer_points(rng, train, dim, n_clusters=n_clusters)
    labels = rng.integers(0, 2, size=train).astype(bool)
    queries = centers[rng.integers(0, n_clusters, size=n_queries)] + rng.integers(
        -2, 3, size=(n_queries, dim)
    )
    data = Dataset(points[labels], points[~labels])
    del points
    dense = QueryEngine(data, "l2", backend="dense", cache_size=0)
    ivf = QueryEngine(data, "l2", backend="ivf", cache_size=0)
    if not np.array_equal(
        dense.classify_batch(queries, k), ivf.classify_batch(queries, k)
    ):  # explicit: survives python -O
        raise AssertionError("ivf and dense labels diverged")
    np.testing.assert_array_equal(
        dense.margins_batch(queries, k), ivf.margins_batch(queries, k)
    )
    np.testing.assert_array_equal(
        np.column_stack(dense.radii_batch(queries, k)),
        np.column_stack(ivf.radii_batch(queries, k)),
    )
    dense_s = best_of(lambda: dense.classify_batch(queries, k), repeats=repeats)
    ivf_s = best_of(lambda: ivf.classify_batch(queries, k), repeats=repeats)
    stats = ivf.ivf_stats()
    return {
        "dense_s": dense_s,
        "ivf_s": ivf_s,
        "speedup": dense_s / ivf_s,
        "certified": stats["certified"],
        "fallback": stats["fallback"],
        "clusters": n_clusters,
        "queries": n_queries,
        "train": train,
        "dim": dim,
        "metric": "l2",
        "k": k,
    }


#: clamp applied to the recorded ``serve_scaleout`` speedup.  The raw
#: tail-latency ratio is heavy-tailed by nature — the numerator is "how
#: long a classify waited behind a SAT solve" (a solver duration, often
#: 100+ ms) and the denominator is scheduler noise (single-digit ms) —
#: so raw ratios of 10-60x are routine and machine-dependent.  Clamping
#: what the cross-machine regression gate compares keeps a 25% tolerance
#: meaningful; the unclamped ratio is recorded alongside as
#: ``p99_ratio``.
SCALEOUT_SPEEDUP_CLAMP = 8.0

#: cluster topology of the ``serve_scaleout`` contest.
SCALEOUT_WORKERS = 3
SCALEOUT_REPLICAS = 3


def measure_serve_scaleout(seed: int = 20250601, repeats: int = 3) -> dict:
    """Gated headline: the sharded cluster vs single-process tail latency.

    Both contestants serve the *same* deterministic open-loop workload
    (:func:`~repro.serve.build_workload`): ~96% single-instance
    ``classify`` traffic mixed with ``minimum_sr`` (SAT) and
    ``counterfactual`` (hamming-SAT) solves over four discrete dataset
    lineages, result caches disabled on both sides.  Before any timing,
    every request of the schedule is answered sequentially by both
    targets and the payloads are asserted bit-identical — the cluster
    must be a pure topology change, never an answer change.

    The gated ``"speedup"`` is the classify-class **p99 latency ratio**
    (clamped to :data:`SCALEOUT_SPEEDUP_CLAMP`): in one process a cheap
    classify stalls behind a multi-hundred-millisecond pure-Python SAT
    solve holding its lineage's engine lock (and the GIL), while the
    cluster's read replicas let it run in a different worker process.
    Aggregate throughput is measured separately as a saturating bulk of
    concurrent SAT solves (``throughput_ratio``); it tracks available
    cores, so its :data:`FLOORS` row gates it only where ``cpus`` >= 4.

    A run with any overloaded, errored, or malformed answer on either
    side fails outright — the contest is only valid when both targets
    answered everything.
    """
    import os
    from concurrent.futures import ThreadPoolExecutor

    from ..serve import (
        ClusterService,
        ExplanationService,
        LoadSpec,
        build_workload,
        run_load,
    )

    rng = np.random.default_rng(seed)
    n_lineages, dim, points_per_label = 4, 10, 20
    lineages = []
    for _ in range(n_lineages):
        pos = rng.integers(0, 2, size=(points_per_label, dim)).astype(float)
        neg = rng.integers(0, 2, size=(points_per_label, dim)).astype(float)
        lineages.append(Dataset(pos, neg, discrete=True))
    spec = LoadSpec(
        rate=60.0,
        requests=400,
        classify_weight=0.96,
        minimum_sr_weight=0.025,
        counterfactual_weight=0.015,
        seed=seed,
    )

    single = ExplanationService(cache_size=0)
    cluster = ClusterService(
        workers=SCALEOUT_WORKERS,
        replicas=SCALEOUT_REPLICAS,
        queue_depth=256,
        cache_size=0,
        max_batch=8,
    )
    try:
        fingerprints = [single.add_dataset(data) for data in lineages]
        for data in lineages:
            cluster.add_dataset(data)
        # Warm every engine on both sides (and every cluster replica —
        # the 24-instance batch scatters across workers) so the timed
        # phase never measures index construction.
        warm = [rng.integers(0, 2, size=dim).astype(float) for _ in range(24)]
        for fingerprint in fingerprints:
            single.explain(fingerprint, "classify", warm, {"k": 3})
            cluster.explain(fingerprint, "classify", warm, {"k": 3})

        # Phase 1 — parity: the full schedule, request by request, must
        # produce bit-identical payloads (explicit raise: survives -O).
        for item in build_workload(fingerprints, dim, spec):
            args = (item.fingerprint, item.method, [item.instance], item.params)
            single_payload = single.explain(*args)[0]["result"]
            cluster_payload = cluster.explain(*args)[0]["result"]
            if single_payload != cluster_payload:
                raise AssertionError(
                    f"cluster and single-process answers diverged for "
                    f"{item.method}: {cluster_payload} vs {single_payload}"
                )

        # Phase 2 — open-loop latency, best ratio over `repeats` paired
        # runs (same schedule; both sides warm).
        best: dict | None = None
        for _ in range(max(1, repeats)):
            report_single = run_load(single, fingerprints, dim, spec)
            report_cluster = run_load(cluster, fingerprints, dim, spec)
            for side, report in (("single", report_single), ("cluster", report_cluster)):
                bad = report.overloaded + report.errors + report.malformed
                if bad:  # explicit: survives python -O
                    raise AssertionError(
                        f"{side} run produced {bad} non-ok answers "
                        f"(overloaded={report.overloaded}, errors={report.errors}, "
                        f"malformed={report.malformed})"
                    )
            ratio = (
                report_single.latency_ms["batch"]["p99"]
                / report_cluster.latency_ms["batch"]["p99"]
            )
            if best is None or ratio > best["p99_ratio"]:
                best = {
                    "p99_ratio": ratio,
                    "single_p99_ms": report_single.latency_ms["batch"]["p99"],
                    "cluster_p99_ms": report_cluster.latency_ms["batch"]["p99"],
                    "single_p50_ms": report_single.latency_ms["batch"]["p50"],
                    "cluster_p50_ms": report_cluster.latency_ms["batch"]["p50"],
                    "single_rps": report_single.throughput_rps,
                    "cluster_rps": report_cluster.throughput_rps,
                }

        # Phase 3 — saturating aggregate throughput: a bulk of concurrent
        # SAT solves.  Tracks available cores (ratio ~1 on one core), so
        # its floor applies only on hosts with enough of them.
        bulk = [
            (fingerprints[i % n_lineages],
             rng.integers(0, 2, size=dim).astype(float))
            for i in range(12)
        ]

        def drain(target) -> float:
            start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(
                        target.explain, fingerprint, "minimum_sr", [x],
                        {"k": 1, "solver": "sat"},
                    )
                    for fingerprint, x in bulk
                ]
                for future in futures:
                    future.result()
            return time.perf_counter() - start

        single_bulk_s = drain(single)
        cluster_bulk_s = drain(cluster)
    finally:
        cluster.close()

    return {
        "speedup": min(best["p99_ratio"], SCALEOUT_SPEEDUP_CLAMP),
        **best,
        "throughput_ratio": single_bulk_s / cluster_bulk_s,
        "single_bulk_s": single_bulk_s,
        "cluster_bulk_s": cluster_bulk_s,
        "workers": SCALEOUT_WORKERS,
        "replicas": SCALEOUT_REPLICAS,
        "cpus": os.cpu_count(),
        "queries": spec.requests,
        "train": 2 * points_per_label,
        "dim": dim,
        "metric": "hamming",
        "k": 3,
    }


def measure_portfolio_parallel(seed: int = 20250601, repeats: int = 3) -> dict:
    """Gated headline: parallel-race + warm-pool portfolio vs sequential-cold.

    Both contestants serve the *same* mixed schedule of ``minimum_sr``
    and ``counterfactual`` portfolio solves (hamming, k = 1, the
    NP-complete Table-1 cells) over three discrete dataset lineages
    through the serving layer, result caches disabled.  The contest
    side races exact methods in the process pool and reuses warm
    pooled SAT solvers across queries of a lineage; the baseline side
    is the sequential racer with pooling disabled — every query pays a
    fresh encode.

    Phase 0 — before any timing — answers the whole schedule on both
    sides sequentially and asserts the payloads bit-identical except
    for provenance and ``method`` (the race winner, nondeterministic by
    design), and the contest side's answers canonical: the race and the
    pool may only change *when* answers arrive and which method
    delivers them, never *what* they are.  The gated ``"speedup"`` is
    the wall-clock ratio of draining the schedule through four client
    threads (best of *repeats* paired runs).  The parallel half of the
    gain tracks available cores, so its :data:`FLOORS` row gates >= 2x
    only where ``cpus`` >= 4; the warm-pool half shows on any core
    count.
    """
    import os
    from concurrent.futures import ThreadPoolExecutor

    from ..serve import ExplanationService
    from ..serve.service import PROVENANCE_KEY

    rng = np.random.default_rng(seed)
    n_lineages, dim, points_per_label = 3, 10, 16
    lineages = []
    for _ in range(n_lineages):
        pos = rng.integers(0, 2, size=(points_per_label, dim)).astype(float)
        neg = rng.integers(0, 2, size=(points_per_label, dim)).astype(float)
        lineages.append(Dataset(pos, neg, discrete=True))
    schedule = [
        (i % n_lineages,
         "minimum_sr" if i % 2 == 0 else "counterfactual",
         rng.integers(0, 2, size=dim).astype(float))
        for i in range(36)
    ]

    race_workers = max(1, min(4, os.cpu_count() or 1))
    contest = ExplanationService(
        cache_size=0, parallel_portfolio=True, race_workers=race_workers
    )
    baseline = ExplanationService(cache_size=0, solver_pool=0)
    try:
        contest_fps = [contest.add_dataset(data) for data in lineages]
        baseline_fps = [baseline.add_dataset(data) for data in lineages]
        warm = [rng.integers(0, 2, size=dim).astype(float) for _ in range(4)]
        for c_fp, b_fp in zip(contest_fps, baseline_fps):
            contest.explain(c_fp, "classify", warm, {"k": 1})
            baseline.explain(b_fp, "classify", warm, {"k": 1})

        # Phase 0 — parity: racing and pooling must never change an
        # answer, only its latency (explicit raise: survives -O).
        for lineage, method, x in schedule:
            got = contest.submit(
                contest_fps[lineage], method, x,
                k=1, metric="hamming", solver="portfolio",
            ).payload
            want = baseline.submit(
                baseline_fps[lineage], method, x,
                k=1, metric="hamming", solver="portfolio",
            ).payload
            provenance = got.get(PROVENANCE_KEY, {})
            if not provenance.get("canonical"):
                raise AssertionError(
                    f"contest answer for {method} is not canonical: {provenance}"
                )
            # ``method`` names the race winner, which racing leaves to
            # scheduling by design; every other field (the canonical
            # witness and ``exact``) must match.
            got = {k: v for k, v in got.items() if k not in (PROVENANCE_KEY, "method")}
            want = {k: v for k, v in want.items() if k not in (PROVENANCE_KEY, "method")}
            if got != want:
                raise AssertionError(
                    f"parallel+pooled and sequential-cold answers diverged "
                    f"for {method}: {got} vs {want}"
                )

        def drain(service, fingerprints) -> float:
            start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(
                        service.submit, fingerprints[lineage], method, x,
                        k=1, metric="hamming", solver="portfolio",
                    )
                    for lineage, method, x in schedule
                ]
                for future in futures:
                    future.result()
            return time.perf_counter() - start

        contest_s = min(drain(contest, contest_fps) for _ in range(max(1, repeats)))
        baseline_s = min(drain(baseline, baseline_fps) for _ in range(max(1, repeats)))
        pool_stats = contest.solver_pool.stats()
        race_stats = contest.racer.stats()
    finally:
        contest.close()
        baseline.close()

    return {
        "speedup": baseline_s / contest_s,
        "contest_s": contest_s,
        "baseline_s": baseline_s,
        "requests": len(schedule),
        "parity_checked": len(schedule),
        "pool_hits": pool_stats["hits"],
        "pool_misses": pool_stats["misses"],
        "races": race_stats["races"],
        "race_cancelled": race_stats["cancelled"],
        "race_hard_kills": race_stats["hard_kills"],
        "race_workers": race_workers,
        "cpus": os.cpu_count(),
        "lineages": n_lineages,
        "train": 2 * points_per_label,
        "dim": dim,
        "metric": "hamming",
        "k": 1,
    }


WORKLOADS = {
    "engine_batch": measure_engine_batch,
    "hamming_bitpack": measure_hamming_bitpack,
    "kdtree_lowdim": measure_kdtree_lowdim,
    "msr_incremental": measure_msr_incremental,
    "serve_throughput": measure_serve_throughput,
    "serve_scaleout": measure_serve_scaleout,
    "portfolio_parallel": measure_portfolio_parallel,
    "streaming_updates": measure_streaming_updates,
    "million_point": measure_million_point,
    "scenario_multiclass": measure_scenario_multiclass,
}


def _run_workload(name: str, seed: int, repeats: int, sizes: dict | None = None) -> dict:
    """Run one workload, forwarding any size overrides it understands.

    ``sizes`` maps override names (``train``, ``dim``) to values; each is
    passed only to measure functions whose signature accepts it, so a
    global ``--train 1000000`` scales the workloads built for scaling
    without disturbing the fixed-size ones.
    """
    fn = WORKLOADS[name]
    kwargs: dict = {"seed": seed, "repeats": repeats}
    if sizes:
        accepted = inspect.signature(fn).parameters
        kwargs.update({key: val for key, val in sizes.items() if key in accepted})
    return fn(**kwargs)


def collect(
    *,
    seed: int = 20250601,
    repeats: int = 3,
    workers: int = 1,
    workloads=None,
    train: int | None = None,
    dim: int | None = None,
) -> dict:
    """Run the selected workloads and return the ``BENCH_*.json`` payload.

    ``workers > 1`` shards the workloads over a process pool; expect
    extra noise when workers contend for cores — the gate compares
    same-process speedup ratios, which contention distorts far less
    than wall-clock times.  ``train``/``dim`` override the problem size
    of workloads that accept them (currently ``million_point``); the
    overrides are recorded in the payload's ``config`` so gate retries
    re-measure at the same size.
    """
    names = list(WORKLOADS) if workloads is None else list(workloads)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise ValueError(f"unknown workloads {unknown}; choose from {sorted(WORKLOADS)}")
    sizes = {
        key: int(val)
        for key, val in (("train", train), ("dim", dim))
        if val is not None
    }
    results: dict[str, dict] = {}
    workers = max(1, int(workers))
    if workers > 1 and len(names) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(names))) as pool:
            futures = {
                name: pool.submit(_run_workload, name, seed, repeats, sizes)
                for name in names
            }
            results = {name: future.result() for name, future in futures.items()}
    else:
        results = {name: _run_workload(name, seed, repeats, sizes) for name in names}
    config: dict = {"seed": seed, "repeats": repeats}
    config.update(sizes)
    return {
        "schema": BENCH_SCHEMA,
        "config": config,
        "workloads": results,
    }


def compare_with_retry(
    current: dict,
    baseline: dict | None = None,
    *,
    max_regression: float = DEFAULT_MAX_REGRESSION,
    attempts: int = 3,
) -> list[str]:
    """The benchmark gate: :data:`FLOORS`, plus *baseline* when given.

    Every gated workload in *current* must reach its floors and, given a
    *baseline*, stay within *max_regression* of it (:func:`compare`).  A
    workload failing either check is re-measured until it passes or has
    been measured *attempts* times.  *current* is updated in place with
    the best measurement — fewest failed checks, then highest speedup —
    and its ``"attempts"`` count, so a saved artifact shows the gated
    numbers.  Shared runners are noisy and committed baselines come from
    other machines: the gate must absorb one-off scheduler noise, not
    amplify it.
    """
    config = current.setdefault("config", {})
    workloads = current.setdefault("workloads", {})
    sizes = {key: config[key] for key in ("train", "dim") if key in config}
    measured = dict.fromkeys(workloads, 1)

    def rank(name: str, row: dict) -> tuple[int, float]:
        trial = {"workloads": {**workloads, name: row}}
        misses = sum(n == name for n, _ in _gate_failures(trial, baseline, max_regression))
        return misses, -row["speedup"]

    while True:
        retry = {
            name
            for name, _ in _gate_failures(current, baseline, max_regression)
            if name in WORKLOADS and measured.get(name, 0) < attempts
        }
        if not retry:
            break  # all passed, out of attempts, or baseline-side failures only
        for name in retry:
            row = _run_workload(
                name, config.get("seed", 20250601), config.get("repeats", 3), sizes
            )
            measured[name] = measured.get(name, 0) + 1
            if name not in workloads or rank(name, row) < rank(name, workloads[name]):
                workloads[name] = row
    for name in GATED_HEADLINES:
        if name in workloads:
            workloads[name]["attempts"] = measured[name]
    return [message for _, message in _gate_failures(current, baseline, max_regression)]


def compare(
    current: dict, baseline: dict, *, max_regression: float = DEFAULT_MAX_REGRESSION
) -> list[str]:
    """Regression-gate *current* against *baseline*; return failure messages.

    The baseline half of :func:`compare_with_retry`, without floors or
    re-measurement.  Only the :data:`GATED_HEADLINES` workloads are
    gated: each speedup ratio must not drop more than ``max_regression``
    (relative) below the baseline's.  The primary headline must exist in
    the baseline; secondary headlines are skipped when an older baseline
    predates them, and so are the headlines *current* did not measure
    (unless it measured none: then the primary one is required).  Other
    workloads are informational — they appear in the artifact and the
    report but cannot fail the job.
    """
    return [message for _, message in _baseline_failures(
        current, baseline, max_regression=max_regression
    )]


def _baseline_failures(
    current: dict, baseline: dict, *, max_regression: float
) -> list[tuple[str | None, str]]:
    """Gate failures as ``(retryable workload name or None, message)`` pairs."""
    failures: list[tuple[str | None, str]] = []
    base_workloads = baseline.get("workloads", {})
    current_workloads = current.get("workloads", {})
    # The gate covers the headlines the run measured; a run that measured
    # none of them must still show the primary one.
    required = {n for n in GATED_HEADLINES if n in current_workloads} or {HEADLINE}
    for name in GATED_HEADLINES:
        base = base_workloads.get(name)
        if base is None or "speedup" not in base:
            if name == HEADLINE:
                failures.append(
                    (None, f"baseline has no {name!r} workload to gate against")
                )
            continue
        if name not in required:
            continue
        cur = current_workloads.get(name)
        if cur is None or "speedup" not in cur:
            failures.append((name, f"current run has no {name!r} workload"))
            continue
        floor = base["speedup"] * (1.0 - max_regression)
        if cur["speedup"] < floor:
            failures.append((name, (
                f"{name} headline regressed: speedup {cur['speedup']:.1f}x is below "
                f"{floor:.1f}x (baseline {base['speedup']:.1f}x minus "
                f"{max_regression:.0%} tolerance)"
            )))
    return failures


def _gate_failures(
    current: dict, baseline: dict | None, max_regression: float
) -> list[tuple[str | None, str]]:
    """Floor misses, then baseline failures, as ``(workload, message)`` pairs.

    The workload is ``None`` for a failure re-measuring cannot fix.
    """
    failures: list[tuple[str | None, str]] = []
    workloads = current.get("workloads", {})
    for name, floors in FLOORS.items():
        row = workloads.get(name)
        if row is None:
            continue
        for floor in floors:
            if floor.applies(row) and row[floor.metric] < floor.value:
                failures.append((name, (
                    f"{name} {floor.metric} {row[floor.metric]:.2f}x is below "
                    f"its {floor.value:g}x floor"
                )))
    if baseline is not None:
        failures += _baseline_failures(current, baseline, max_regression=max_regression)
    return failures


def _describe_floor(floor: Floor, row: dict) -> str:
    """One floor as a report cell, e.g. ``≥ 2x at 4+ cpus, skipped: 2 cpus``."""
    text = f"≥ {floor.value:g}x"
    if floor.metric != "speedup":
        text = f"{floor.metric} {row[floor.metric]:.1f}x {text}"
    if floor.min_cpus:
        text += f" at {floor.min_cpus}+ cpus"
        if not floor.applies(row):
            text += f", skipped: {row.get('cpus') or 0} cpus"
    return text


def render_report(
    payload: dict,
    *,
    baseline: dict | None = None,
    max_regression: float = DEFAULT_MAX_REGRESSION,
) -> str:
    """Markdown table of a ``BENCH_*.json`` payload with gate verdicts.

    Gated rows show their floors and a pass/FAIL verdict from the same
    checks :func:`compare_with_retry` applies; other rows show ``—``.
    """
    failing = {name for name, _ in _gate_failures(payload, baseline, max_regression)}
    lines = [
        "| workload | speedup | floor | verdict | details |",
        "| --- | --- | --- | --- | --- |",
    ]
    for name, row in sorted(payload.get("workloads", {}).items()):
        details = ", ".join(
            f"{key}={row[key]}" for key in ("train", "dim", "queries", "metric", "k")
            if key in row
        )
        base_note = ""
        if baseline is not None:
            base_row = baseline.get("workloads", {}).get(name)
            if base_row and "speedup" in base_row:
                base_note = f" vs baseline {base_row['speedup']:.1f}x"
        floor, verdict = "—", "—"
        if name in FLOORS:
            floor = "; ".join(_describe_floor(f, row) for f in FLOORS[name])
            verdict = "FAIL" if name in failing else "pass"
            if row.get("attempts", 1) > 1:
                verdict += f" (best of {row['attempts']})"
        lines.append(
            f"| {name} | {row['speedup']:.1f}x{base_note} | {floor} | {verdict} "
            f"| {details} |"
        )
    return "\n".join(lines)


def load_json(path) -> dict:
    """Read a ``BENCH_*.json`` payload from *path*."""
    with open(path) as handle:
        return json.load(handle)


def save_json(payload: dict, path) -> None:
    """Write *payload* to *path* as indented, key-sorted JSON."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
