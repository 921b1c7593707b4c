"""Randomized differential harness for streaming mutations.

"Mutated engine ≡ freshly rebuilt engine" is the invariant that makes
mutable datasets safe: whatever script of inserts, deletes and queries
an engine absorbs incrementally, every answer must be **bit-identical**
to an engine built from scratch over the same final contents — labels,
margins, radii, and tie behavior (the Proposition 1 ``r+ == r-`` case)
alike, across all four backends and both metrics (the IVF backend's
bucket appends, tombstones and staleness-triggered requantizes ride the
same scripts).

The harness generates seeded random scripts (``FUZZ_ROUNDS`` seeds per
backend/metric configuration, default 50; the nightly CI job raises it
to 200), applies each to

* a **mutated engine** (incremental backend maintenance, targeted
  cache invalidation), and
* an independently **folded dataset** (the functional
  :meth:`~repro.knn.Dataset.with_added` /
  :meth:`~repro.knn.Dataset.with_removed` semantics),

and at every query step compares the mutated engine against a fresh
engine built from the folded dataset.  The same discipline covers the
multiclass engine (scripts over integer label vectors, parity on
per-class radii/margins and both vote modes against a rebuilt
:class:`~repro.knn.MultiClassEngine`) and the distance-weighted vote
(mutated engine ≡ rebuilt engine ≡ the brute-force weighted reference).
Alongside the differential core
live the metamorphic mutation properties the ISSUE calls out:
insert-then-remove is an identity (including multiplicity counts), and
removing a point never changes answers whose k-neighborhood excluded
it (which also pins the targeted radii-cache invalidation).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import Dataset, ValidationError
from repro.knn import QueryEngine
from repro.serve.cache import dataset_fingerprint

#: random scripts per (backend, metric) configuration; CI's fast fuzz
#: job runs the default, the nightly extended job sets FUZZ_ROUNDS=200.
FUZZ_ROUNDS = int(os.environ.get("FUZZ_ROUNDS", "50"))

#: every backend crossed with both metrics it supports (bitpack is
#: Hamming-only by construction).
CONFIGS = [
    ("dense", "l2"),
    ("dense", "hamming"),
    ("kdtree", "l2"),
    ("kdtree", "hamming"),
    ("bitpack", "hamming"),
    ("ivf", "l2"),
    ("ivf", "hamming"),
]


def _random_points(rng: np.random.Generator, count: int, dim: int, metric: str):
    """Random points from a *small* exact-arithmetic grid.

    Binary for Hamming (bitpack-compatible, tie-rich), a {0,1,2} grid
    for l2 — integer-valued data keeps every kernel exact, so
    "bit-identical" is a meaningful demand, and the tiny value space
    forces duplicate rows (multiplicity merging) and distance ties
    (the Proposition 1 case) to occur constantly.
    """
    high = 2 if metric == "hamming" else 3
    return rng.integers(0, high, size=(count, dim)).astype(float)


def _existing_rows(data: Dataset):
    """Every (row, label, multiplicity) triple currently in *data*."""
    triples = [
        (row, 1, int(m))
        for row, m in zip(data.positives, data.positive_multiplicities)
    ]
    triples += [
        (row, 0, int(m))
        for row, m in zip(data.negatives, data.negative_multiplicities)
    ]
    return triples


def _assert_query_parity(engine: QueryEngine, fresh: QueryEngine, queries, k: int):
    """Bit-identical labels, margins, radii and ties, batch and single."""
    np.testing.assert_array_equal(
        engine.classify_batch(queries, k), fresh.classify_batch(queries, k)
    )
    np.testing.assert_array_equal(
        engine.margins_batch(queries, k), fresh.margins_batch(queries, k)
    )
    mutated_radii = engine.radii_batch(queries, k)
    rebuilt_radii = fresh.radii_batch(queries, k)
    np.testing.assert_array_equal(mutated_radii[0], rebuilt_radii[0])
    np.testing.assert_array_equal(mutated_radii[1], rebuilt_radii[1])
    x = queries[0]
    assert engine.radii(x, k) == fresh.radii(x, k)
    assert engine.classify(x, k) == fresh.classify(x, k)
    assert engine.margin(x, k) == fresh.margin(x, k)
    # Tie behavior: the k nearest (multiplicity-expanded, positives
    # first, index-order tie-breaking) must agree point for point.
    points_a, labels_a = engine.neighbors(x, k)
    points_b, labels_b = fresh.neighbors(x, k)
    np.testing.assert_array_equal(points_a, points_b)
    np.testing.assert_array_equal(labels_a, labels_b)


def _run_script(seed: int, backend: str, metric: str) -> int:
    """One random insert/delete/query script; returns observed Prop-1 ties."""
    rng = np.random.default_rng(seed)
    dim = 5 if metric == "hamming" else 4
    data = Dataset(
        _random_points(rng, 6, dim, metric),
        _random_points(rng, 6, dim, metric),
    )
    engine = QueryEngine(data, metric, backend=backend)
    folded = data
    ties = 0
    for _ in range(rng.integers(8, 14)):
        op = rng.choice(["add", "remove", "query"], p=[0.35, 0.25, 0.4])
        if op == "remove" and len(folded) <= 3:
            op = "add"  # keep k=3 queries well-defined
        if op == "add":
            count = int(rng.integers(1, 4))
            points = _random_points(rng, count, dim, metric)
            labels = rng.integers(0, 2, size=count)
            mult = rng.integers(1, 3, size=count)
            version = engine.version
            engine.add_points(points, labels, mult)
            folded = folded.with_added(points, labels, mult)
            assert engine.version == version + 1
        elif op == "remove":
            row, label, available = _existing_rows(folded)[
                rng.integers(0, len(_existing_rows(folded)))
            ]
            count = int(rng.integers(1, available + 1))
            if len(folded) - count < 1:
                continue
            engine.remove_points([row], [label], [count])
            folded = folded.with_removed([row], [label], [count])
        else:
            k = int(rng.choice([1, 3]))
            if len(folded) < k:
                continue
            queries = _random_points(rng, 4, dim, metric)
            fresh = QueryEngine(folded, metric, backend=backend)
            _assert_query_parity(engine, fresh, queries, k)
            r_pos, r_neg = engine.radii_batch(queries, k)
            ties += int(np.sum((r_pos == r_neg) & np.isfinite(r_pos)))
    # The engine's own snapshot must equal the functional fold exactly —
    # same rows, same order, same multiplicities (fingerprints cover all).
    assert dataset_fingerprint(engine.dataset) == dataset_fingerprint(folded)
    final_queries = _random_points(rng, 4, dim, metric)
    _assert_query_parity(
        engine, QueryEngine(folded, metric, backend=backend), final_queries, 3
    )
    return ties


@pytest.mark.parametrize("backend,metric", CONFIGS)
def test_fuzz_differential_parity(backend, metric):
    """FUZZ_ROUNDS seeded scripts: mutated engine ≡ rebuilt engine."""
    ties = 0
    for seed in range(FUZZ_ROUNDS):
        try:
            ties += _run_script(seed, backend, metric)
        except AssertionError as exc:  # pragma: no cover - failure reporting
            raise AssertionError(
                f"differential parity broke for seed={seed}, "
                f"backend={backend}, metric={metric}: {exc}"
            ) from exc
    # The grid is tie-rich by construction; a run that never exercised
    # the Proposition 1 r+ == r- case would be vacuous on ties.
    assert ties > 0


# -- multiclass & weighted-vote differential scripts ---------------------

#: multiclass scripts compare full per-class batches plus two vote modes
#: per query step, so they run at half the binary round count.
MULTICLASS_FUZZ_ROUNDS = max(2, FUZZ_ROUNDS // 2)


def _existing_multiclass_rows(data):
    """Every (row, label, multiplicity) triple currently in *data*."""
    return [
        (row, int(label), int(m))
        for label in data.classes
        for row, m in zip(
            data.class_points(label), data.class_multiplicities(label)
        )
    ]


def _assert_multiclass_parity(engine, fresh, queries, k: int) -> int:
    """Bit-identical per-class answers and votes; returns observed ties."""
    from repro.knn.reference import multiclass_classify_by_definition

    radii, rest = engine.class_radii_batch(queries, k)
    fresh_radii, fresh_rest = fresh.class_radii_batch(queries, k)
    np.testing.assert_array_equal(radii, fresh_radii)
    np.testing.assert_array_equal(rest, fresh_rest)
    np.testing.assert_array_equal(
        engine.class_margins_batch(queries, k),
        fresh.class_margins_batch(queries, k),
    )
    for vote in ("uniform", "distance"):
        got = engine.classify_batch(queries, k, vote=vote)
        np.testing.assert_array_equal(got, fresh.classify_batch(queries, k, vote=vote))
        # ... and the brute reference agrees with both (oracle triangle).
        np.testing.assert_array_equal(
            got,
            [
                multiclass_classify_by_definition(
                    fresh.dataset, k, engine.metric, x, vote=vote
                )
                for x in queries
            ],
        )
    x = queries[0]
    np.testing.assert_array_equal(engine.class_radii(x, k), fresh.class_radii(x, k))
    assert engine.classify(x, k) == fresh.classify(x, k)
    return int(np.sum((radii == rest) & np.isfinite(radii)))


def _run_multiclass_script(seed: int, backend: str, metric: str) -> int:
    """One random multiclass insert/delete/query script; returns ties."""
    from repro.knn import MultiClassDataset, MultiClassEngine

    rng = np.random.default_rng(seed)
    dim = 5 if metric == "hamming" else 4
    n_classes = 3
    points = _random_points(rng, 9, dim, metric)
    labels = rng.integers(0, n_classes, size=9)
    labels[:n_classes] = np.arange(n_classes)
    data = MultiClassDataset(points, labels)
    engine = MultiClassEngine(data, metric, backend=backend)
    folded = data
    ties = 0
    for _ in range(int(rng.integers(8, 14))):
        op = rng.choice(["add", "remove", "query"], p=[0.35, 0.25, 0.4])
        if op == "remove" and len(folded) <= 4:
            op = "add"
        if op == "add":
            count = int(rng.integers(1, 4))
            batch = _random_points(rng, count, dim, metric)
            batch_labels = rng.integers(0, n_classes, size=count)
            mult = rng.integers(1, 3, size=count)
            version = engine.version
            engine.add_points(batch, batch_labels, mult)
            folded = folded.with_added(batch, batch_labels, mult)
            assert engine.version == version + 1
        elif op == "remove":
            rows = _existing_multiclass_rows(folded)
            row, label, available = rows[rng.integers(0, len(rows))]
            count = int(rng.integers(1, available + 1))
            try:
                engine.remove_points([row], [label], [count])
            except ValidationError:
                # Emptying a class (multiclass needs >= 2) must fail the
                # functional fold identically, and leave the engine as-is.
                with pytest.raises(ValidationError):
                    folded.with_removed([row], [label], [count])
                continue
            folded = folded.with_removed([row], [label], [count])
        else:
            k = int(rng.choice([1, 3]))
            if len(folded) < k:
                continue
            queries = _random_points(rng, 3, dim, metric)
            fresh = MultiClassEngine(folded, metric, backend=backend)
            ties += _assert_multiclass_parity(engine, fresh, queries, k)
    # The engine's snapshot must equal the functional fold exactly — the
    # multiclass fingerprint hashes per-class points and multiplicities.
    assert dataset_fingerprint(engine.dataset) == dataset_fingerprint(folded)
    final = _random_points(rng, 3, dim, metric)
    ties += _assert_multiclass_parity(
        engine, MultiClassEngine(folded, metric, backend=backend), final, 3
    )
    return ties


@pytest.mark.parametrize("backend,metric", CONFIGS)
def test_fuzz_multiclass_differential_parity(backend, metric):
    """Seeded multiclass scripts: mutated engine ≡ rebuilt ≡ reference."""
    ties = 0
    for seed in range(MULTICLASS_FUZZ_ROUNDS):
        try:
            ties += _run_multiclass_script(seed, backend, metric)
        except AssertionError as exc:  # pragma: no cover - failure reporting
            raise AssertionError(
                f"multiclass parity broke for seed={seed}, "
                f"backend={backend}, metric={metric}: {exc}"
            ) from exc
    # Per-class r == rest ties are the multiclass Proposition 1 case.
    assert ties > 0


def _run_weighted_script(seed: int, backend: str, metric: str) -> int:
    """One weighted-vote script: mutated ≡ rebuilt ≡ weighted reference."""
    from repro.knn.reference import classify_weighted_by_definition

    rng = np.random.default_rng(seed)
    dim = 5 if metric == "hamming" else 4
    data = Dataset(
        _random_points(rng, 6, dim, metric),
        _random_points(rng, 6, dim, metric),
    )
    engine = QueryEngine(data, metric, backend=backend)
    folded = data
    ties = 0
    for _ in range(int(rng.integers(6, 10))):
        op = rng.choice(["add", "remove", "query"], p=[0.35, 0.25, 0.4])
        if op == "remove" and len(folded) <= 3:
            op = "add"
        if op == "add":
            count = int(rng.integers(1, 4))
            points = _random_points(rng, count, dim, metric)
            labels = rng.integers(0, 2, size=count)
            engine.add_points(points, labels)
            folded = folded.with_added(points, labels)
        elif op == "remove":
            rows = _existing_rows(folded)
            row, label, available = rows[rng.integers(0, len(rows))]
            if len(folded) - 1 < 1:
                continue
            engine.remove_points([row], [label])
            folded = folded.with_removed([row], [label])
        else:
            k = int(rng.choice([1, 3]))
            if len(folded) < k:
                continue
            queries = _random_points(rng, 3, dim, metric)
            fresh = QueryEngine(folded, metric, backend=backend)
            got = engine.classify_batch(queries, k, vote="distance")
            np.testing.assert_array_equal(
                got, fresh.classify_batch(queries, k, vote="distance")
            )
            reference = [
                classify_weighted_by_definition(folded, k, metric, x)
                for x in queries
            ]
            np.testing.assert_array_equal(got, reference)
            assert engine.classify(queries[0], k, vote="distance") == int(got[0])
            r_pos, r_neg = engine.radii_batch(queries, k)
            ties += int(np.sum((r_pos == r_neg) & np.isfinite(r_pos)))
    assert dataset_fingerprint(engine.dataset) == dataset_fingerprint(folded)
    return ties


@pytest.mark.parametrize("backend,metric", CONFIGS)
def test_fuzz_weighted_vote_parity(backend, metric):
    """Seeded weighted-vote scripts across mutations, all backends."""
    ties = 0
    for seed in range(MULTICLASS_FUZZ_ROUNDS):
        try:
            ties += _run_weighted_script(seed, backend, metric)
        except AssertionError as exc:  # pragma: no cover - failure reporting
            raise AssertionError(
                f"weighted-vote parity broke for seed={seed}, "
                f"backend={backend}, metric={metric}: {exc}"
            ) from exc
    assert ties > 0


# -- metamorphic properties ---------------------------------------------


@pytest.fixture(params=["dense", "kdtree", "bitpack", "ivf"])
def backend(request):
    """Every mutable backend (metric fixed to Hamming, which all support)."""
    return request.param


def _random_engine(rng, backend, *, dim=5, size=8):
    data = Dataset(
        _random_points(rng, size, dim, "hamming"),
        _random_points(rng, size, dim, "hamming"),
    )
    return data, QueryEngine(data, "hamming", backend=backend)


def test_insert_then_remove_is_identity(rng, backend):
    """Adding a batch and removing it restores the dataset bit for bit."""
    data, engine = _random_engine(rng, backend)
    before = dataset_fingerprint(engine.dataset)
    queries = _random_points(rng, 6, 5, "hamming")
    answers = [engine.classify_batch(queries, 3), *engine.radii_batch(queries, 3)]
    points = _random_points(rng, 4, 5, "hamming")
    labels = rng.integers(0, 2, size=4)
    mult = rng.integers(1, 4, size=4)
    engine.add_points(points, labels, mult)
    engine.remove_points(points, labels, mult)
    after = dataset_fingerprint(engine.dataset)
    # Identity includes multiplicity counts: the fingerprint hashes both
    # point matrices and both multiplicity vectors.
    assert before == after
    np.testing.assert_array_equal(answers[0], engine.classify_batch(queries, 3))
    r_pos, r_neg = engine.radii_batch(queries, 3)
    np.testing.assert_array_equal(answers[1], r_pos)
    np.testing.assert_array_equal(answers[2], r_neg)


def test_insert_then_remove_identity_on_existing_row(rng, backend):
    """Multiplicity round-trips through increments of pre-existing rows."""
    data, engine = _random_engine(rng, backend)
    row = np.array(data.positives[0])
    engine.add_points([row, row], [1, 1], [2, 3])
    assert int(engine.dataset.positive_multiplicities[0]) == 6
    engine.remove_points([row], [1], [5])
    assert dataset_fingerprint(engine.dataset) == dataset_fingerprint(data)


def test_removal_outside_neighborhood_changes_nothing(rng, backend):
    """Removing a point beyond a query's k-neighborhood leaves its answer.

    The far point's power exceeds both radii, and Proposition 1's radii
    are k-th order statistics, so the engine must answer with the
    identical radii afterwards.
    """
    rng_local = np.random.default_rng(7)
    for trial in range(20):
        n = 6
        pos = rng_local.integers(0, 2, size=(6, n)).astype(float)
        neg = rng_local.integers(0, 2, size=(6, n)).astype(float)
        data = Dataset(pos, neg)
        engine = QueryEngine(data, "hamming", backend=backend)
        x = rng_local.integers(0, 2, size=n).astype(float)
        k = 3
        r_pos, r_neg = engine.radii(x, k)
        label, margin = engine.classify(x, k), engine.margin(x, k)
        ball = max(r_pos, r_neg)
        far = [
            (row, lab)
            for row, lab, _ in _existing_rows(data)
            if float(np.abs(np.asarray(row) - x).sum()) > ball
        ]
        if not far:
            continue
        row, lab = far[rng_local.integers(0, len(far))]
        engine.remove_points([row], [lab])
        assert engine.radii(x, k) == (r_pos, r_neg)
        assert engine.classify(x, k) == label
        assert engine.margin(x, k) == margin
        fresh = QueryEngine(engine.dataset, "hamming", backend=backend)
        assert fresh.radii(x, k) == (r_pos, r_neg)


def test_targeted_invalidation_evicts_inside_ball(rng, backend):
    """The converse: a point landing inside the ball moves the radii."""
    data, engine = _random_engine(rng, backend)
    x = _random_points(rng, 1, 5, "hamming")[0]
    engine.radii(x, 3)
    # Insert k copies of the query point itself: distance 0, inside any
    # finite ball — the radii after the insert must see it.
    engine.add_points([x], [1], [3])
    fresh = QueryEngine(engine.dataset, "hamming", backend=backend)
    assert engine.radii(x, 3) == fresh.radii(x, 3)
    assert engine.radii(x, 3)[0] == 0.0


# -- mutation validation ------------------------------------------------


def test_mutation_validation_errors(rng):
    data = Dataset([[0.0, 1.0]], [[1.0, 0.0]], discrete=True)
    engine = QueryEngine(data, "hamming")
    with pytest.raises(ValidationError):
        engine.add_points([[0.5, 0.5]], [1])  # discrete data must be 0/1
    with pytest.raises(ValidationError):
        engine.add_points([[0.0, 1.0, 0.0]], [1])  # dimension mismatch
    with pytest.raises(ValidationError):
        engine.add_points(np.empty((0, 2)), [])  # empty batch
    with pytest.raises(ValidationError):
        engine.add_points([[0.0, 0.0]], [1], [0])  # multiplicity < 1
    with pytest.raises(ValidationError):
        engine.remove_points([[0.0, 0.0]], [1])  # absent point
    with pytest.raises(ValidationError):
        engine.remove_points([[0.0, 1.0]], [0])  # wrong class
    with pytest.raises(ValidationError):
        engine.remove_points([[0.0, 1.0]], [1], [2])  # multiplicity too high
    with pytest.raises(ValidationError):  # cannot empty the dataset
        engine.remove_points([[0.0, 1.0], [1.0, 0.0]], [1, 0])
    # A failed removal must leave the engine untouched (validated upfront).
    assert engine.version == 0
    assert len(engine.dataset) == 2


def test_bitpack_rejects_non_binary_insert():
    """An *explicitly requested* bitpack backend is a contract: reject."""
    data = Dataset([[0.0, 1.0]], [[1.0, 0.0]])
    engine = QueryEngine(data, "hamming", backend="bitpack")
    with pytest.raises(ValidationError):
        engine.add_points([[2.0, 0.0]], [1])
    assert engine.version == 0 and engine.backend == "bitpack"


def test_auto_bitpack_degrades_to_dense_on_non_binary_insert(rng):
    """An auto-selected bitpack backend degrades instead of refusing.

    Mutation acceptance must not depend on which backend the auto rule
    happened to pick for the data seen so far: the same insert that a
    dense engine accepts is accepted here, and answers stay identical
    to a rebuilt engine after the fallback.
    """
    data = Dataset([[0.0, 1.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]])
    engine = QueryEngine(data, "hamming")  # binary + hamming -> auto bitpack
    assert engine.backend == "bitpack"
    engine.add_points([[2.0, 0.0]], [1])
    assert engine.backend == "dense" and engine.version == 1
    fresh = QueryEngine(engine.dataset, "hamming")
    queries = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(
        engine.classify_batch(queries, 3), fresh.classify_batch(queries, 3)
    )
    assert engine.radii(queries[0], 3) == fresh.radii(queries[0], 3)


def test_dataset_functional_mutation_validation():
    data = Dataset([[0.0, 1.0]], [[1.0, 0.0]])
    with pytest.raises(ValidationError):
        data.with_removed([[0.0, 0.0]], [1])
    with pytest.raises(ValidationError):
        data.with_removed([[0.0, 1.0]], [1], [2])
    with pytest.raises(ValidationError):
        data.with_removed([[0.0, 1.0], [1.0, 0.0]], [1, 0])
    with pytest.raises(ValidationError):
        data.with_added(np.empty((0, 2)), [])
    grown = data.with_added([[0.0, 1.0], [1.0, 1.0]], [1, 1], [2, 1])
    assert grown.n_positive == 4 and grown.n_negative == 1
    assert int(grown.positive_multiplicities[0]) == 3


def test_distance_cache_is_extended_not_flushed(rng):
    """A query's distance vectors after an insert equal a fresh engine's."""
    data, engine = _random_engine(rng, "dense")
    x = _random_points(rng, 1, 5, "hamming")[0]
    engine.powers(x)
    points = _random_points(rng, 3, 5, "hamming")
    engine.add_points(points, [1, 0, 1])
    pos_d, neg_d = engine.powers(x)
    fresh = QueryEngine(engine.dataset, "hamming")
    fresh_pos, fresh_neg = fresh.powers(x)
    np.testing.assert_array_equal(pos_d, fresh_pos)
    np.testing.assert_array_equal(neg_d, fresh_neg)


# -- portfolio warm-pool parity under mutation ---------------------------

#: portfolio scripts are NP-solve heavy, so the differential harness
#: runs a tenth of the engine-level round count per run.
PORTFOLIO_FUZZ_ROUNDS = max(2, FUZZ_ROUNDS // 10)


def _portfolio_script(seed: int, probe_reuse: bool) -> int:
    """One add/remove/query script: warm-pool serving vs cold solves.

    Every query step answers through the serving layer (warm pooled SAT
    solvers, keyed by the ``@vN`` versioned fingerprint) and through a
    cold portfolio call over the independently folded dataset — the two
    must be bit-identical, whatever mutations the pool absorbed.  After
    every step, pooled solvers for superseded versions must be provably
    gone: each pooled fingerprint equals the service's *current*
    versioned fingerprint.  With *probe_reuse* the closing probe must
    lease a pooled solver.  Returns the pool's lifetime hit count.
    """
    from repro.portfolio import (
        portfolio_closest_counterfactual,
        portfolio_minimum_sufficient_reason,
    )
    from repro.serve import ExplanationService

    rng = np.random.default_rng(seed)
    dim = 5
    data = Dataset(
        _random_points(rng, 6, dim, "hamming"),
        _random_points(rng, 6, dim, "hamming"),
    )
    service = ExplanationService(cache_size=0)  # no result cache: every
    fingerprint = service.add_dataset(data)     # query exercises the pool
    folded = data
    for _ in range(int(rng.integers(6, 10))):
        op = rng.choice(["add", "remove", "query"], p=[0.3, 0.2, 0.5])
        if op == "remove" and len(folded) <= 4:
            op = "add"
        if op == "add":
            count = int(rng.integers(1, 3))
            points = _random_points(rng, count, dim, "hamming")
            labels = rng.integers(0, 2, size=count)
            out = service.add_points(fingerprint, points, labels)
            folded = folded.with_added(points, labels)
            fingerprint = out["fingerprint"]
        elif op == "remove":
            rows = _existing_rows(folded)
            row, label, _ = rows[rng.integers(0, len(rows))]
            try:
                out = service.remove_points(fingerprint, [row], [label])
            except ValidationError:
                continue  # e.g. removal would empty a class; skip the step
            folded = folded.with_removed([row], [label])
            fingerprint = out["fingerprint"]
        else:
            x = _random_points(rng, 1, dim, "hamming")[0]
            got = service.submit(
                fingerprint, "minimum_sr", x,
                k=1, metric="hamming", solver="portfolio",
            ).payload
            cold = portfolio_minimum_sufficient_reason(folded, 1, "hamming", x)
            assert got["X"] == sorted(int(i) for i in cold.answer.X)
            assert got["size"] == int(cold.answer.size)
            got_cf = service.submit(
                fingerprint, "counterfactual", x,
                k=1, metric="hamming", solver="portfolio",
            ).payload
            cold_cf = portfolio_closest_counterfactual(folded, 1, "hamming", x)
            if cold_cf.answer.y is None:
                assert got_cf["y"] is None
            else:
                assert got_cf["distance"] == float(cold_cf.answer.distance)
                np.testing.assert_array_equal(
                    np.asarray(got_cf["y"]), cold_cf.answer.y
                )
        # Superseded @vN pooled solvers are provably evicted: whatever
        # the script did, every pooled fingerprint is the current one.
        assert set(service.solver_pool.fingerprints()) <= set(service.fingerprints())
    # Deterministic warm-reuse probe: the same query twice with no
    # mutation in between — the second solve must lease the solver the
    # first one pooled, whatever keys the random script happened to use.
    x = _random_points(rng, 1, dim, "hamming")[0]
    hits_before = service.solver_pool.stats()["hits"]
    for _ in range(2):
        got = service.submit(
            fingerprint, "minimum_sr", x,
            k=1, metric="hamming", solver="portfolio",
        ).payload
    cold = portfolio_minimum_sufficient_reason(folded, 1, "hamming", x)
    assert got["X"] == sorted(int(i) for i in cold.answer.X)
    assert got["size"] == int(cold.answer.size)
    if probe_reuse:
        assert service.solver_pool.stats()["hits"] > hits_before
    # ... and the engine the pool answered against equals the fold.
    assert dataset_fingerprint(service.dataset(fingerprint)) == dataset_fingerprint(
        folded
    )
    return service.solver_pool.stats()["hits"]


def test_fuzz_portfolio_pool_parity(monkeypatch):
    """Seeded scripts: warm-pool portfolio serving ≡ cold solves.

    Each seed runs twice: at the default brute-force cap, where brute
    force wins these small cells, and with the cap forced to zero, where
    brute yields at once so the pooled SAT sweeps and canonicalization
    answer.
    """
    from repro import portfolio

    hits = 0
    for seed in range(PORTFOLIO_FUZZ_ROUNDS):
        for cap in (portfolio.BRUTE_CAP, 0):
            monkeypatch.setattr(portfolio, "BRUTE_CAP", cap)
            try:
                pooled = _portfolio_script(seed, probe_reuse=cap == 0)
            except AssertionError as exc:  # pragma: no cover - failure reporting
                raise AssertionError(
                    f"portfolio pool parity broke for seed={seed}, cap={cap}: {exc}"
                ) from exc
            if cap == 0:
                hits += pooled
    # Vacuity guard: the zero-cap scripts must actually have reused warm solvers.
    assert hits > 0


def _strip_to(engine, rows, keep: int) -> None:
    """Remove every ``(row, label, multiplicity)`` past the first *keep* per label.

    One call per row, last rows first: row lookups resolve a duplicated
    row to its last occurrence, so each call then addresses its own row.
    """
    per_label = {}
    for row, label, m in rows:
        per_label.setdefault(label, []).append((row, m))
    for label, entries in per_label.items():
        for row, m in reversed(entries[keep:]):
            engine.remove_points([row], [label], [m])


@pytest.mark.parametrize("kind", ["binary", "multiclass"])
def test_map_shards_and_pickling_after_mutation(rng, backend, kind):
    """A mutated engine still pickles (binary: and shards) identically.

    Before the round trip the mutations reach every store path: appends,
    rows removed outright, bitpack tombstones past the compaction
    threshold followed by fresh ones below it and, for the multiclass
    engine (which has no ``map_shards``), a new label and an emptied
    class.
    """
    import pickle

    from repro.knn import MultiClassDataset, MultiClassEngine

    if kind == "multiclass":
        labels = rng.integers(0, 3, size=60)
        labels[:3] = [0, 1, 2]
        engine = MultiClassEngine(
            MultiClassDataset(_random_points(rng, 60, 5, "hamming"), labels),
            "hamming", backend=backend,
        )
        points = _random_points(rng, 5, 5, "hamming")
        engine.add_points(points, [3, 3, 1, 2, 3])  # a new label
        class_zero = [t for t in _existing_multiclass_rows(engine.dataset) if t[1] == 0]
        _strip_to(engine, class_zero, 0)  # an emptied class
        assert engine.classes == (1, 2, 3)
        _strip_to(engine, _existing_multiclass_rows(engine.dataset), 3)
        engine.add_points(points[:2], [1, 2])
        last = [t for t in _existing_multiclass_rows(engine.dataset) if t[1] == 1][-1]
        engine.remove_points([last[0]], [1], [last[2]])
        queries = _random_points(rng, 70, 5, "hamming")
        clone = pickle.loads(pickle.dumps(engine))
        np.testing.assert_array_equal(
            engine.classify_batch(queries, 3), clone.classify_batch(queries, 3)
        )
        for got, want in zip(clone.class_radii_batch(queries, 1),
                             engine.class_radii_batch(queries, 1)):
            np.testing.assert_array_equal(got, want)
        clone.add_points(points[:1], [0])  # the emptied label returns
        fresh = MultiClassEngine(clone.dataset, "hamming", backend=backend)
        np.testing.assert_array_equal(
            clone.classify_batch(queries, 3), fresh.classify_batch(queries, 3)
        )
        return
    data, engine = _random_engine(rng, backend, size=40)
    points = _random_points(rng, 5, 5, "hamming")
    engine.add_points(points, [1, 0, 1, 0, 1])
    engine.remove_points(points[:2], [1, 0])
    # Past the bitpack compaction threshold, then live tombstones again.
    _strip_to(engine, _existing_rows(engine.dataset), 4)
    engine.add_points(points[2:], [0, 1, 0])
    last = [t for t in _existing_rows(engine.dataset) if t[1] == 1][-1]
    engine.remove_points([last[0]], [1], [last[2]])
    queries = _random_points(rng, 70, 5, "hamming")
    direct = engine.classify_batch(queries, 3)
    clone = pickle.loads(pickle.dumps(engine))
    np.testing.assert_array_equal(direct, clone.classify_batch(queries, 3))
    np.testing.assert_array_equal(
        direct, engine.map_shards("classify_batch", queries, 3, workers=2,
                                  min_shard_rows=16)
    )
    # ... and the clone keeps mutating correctly (views re-derived).
    clone.add_points(points[:1], [0])
    fresh = QueryEngine(clone.dataset, "hamming", backend=backend)
    np.testing.assert_array_equal(
        clone.classify_batch(queries, 3), fresh.classify_batch(queries, 3)
    )
