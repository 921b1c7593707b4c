"""Property tests: the QueryEngine batch primitives against per-point oracles.

The exactness contract of the batch layer, verified here across
continuous and discrete datasets, every metric, every odd k, and
datasets with multiplicities:

* on **integer-valued** data (the paper's exact-tie constructions,
  binarized data, digit images) every batched method agrees *bit for
  bit* with the per-point oracle — the l2/Hamming Gram kernels only
  produce exactly representable integers there;
* on **general real** data the surrogates agree up to floating-point
  roundoff and the classifications (which is what the semantics are
  about) agree outright.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.knn import Dataset, KNNClassifier, QueryEngine
from repro.knn.reference import classify_weighted_by_definition
from repro.metrics import get_metric

from .helpers import random_continuous_dataset, random_discrete_dataset

CONTINUOUS_METRICS = ["l1", "l2", "lp:3", "linf"]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _engine_case(seed: int, metric: str, *, q: int = 12, integer: bool = False):
    rng = _rng(seed)
    n = int(rng.integers(1, 7))
    if metric == "hamming":
        data = random_discrete_dataset(rng, n, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        queries = rng.integers(0, 2, size=(q, n)).astype(float)
    else:
        data = random_continuous_dataset(
            rng, n, int(rng.integers(1, 7)), int(rng.integers(1, 7)), integer=integer
        )
        queries = (
            rng.integers(-4, 5, size=(q, n)).astype(float)
            if integer
            else rng.normal(size=(q, n))
        )
    return data, queries


def _oracle_powers(m, data, x):
    return np.concatenate([m.powers_to(data.positives, x), m.powers_to(data.negatives, x)])


class TestMatrixPrimitives:
    @pytest.mark.parametrize("metric", CONTINUOUS_METRICS + ["hamming"])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20)
    def test_powers_matrix_exact_on_integer_data(self, metric, seed):
        data, queries = _engine_case(seed, metric, integer=True)
        engine = QueryEngine(data, metric)
        m = get_metric(metric)
        matrix = engine.powers_matrix(queries)
        assert matrix.shape == (queries.shape[0], len(data))
        for i, x in enumerate(queries):
            np.testing.assert_array_equal(matrix[i], _oracle_powers(m, data, x))

    @pytest.mark.parametrize("metric", CONTINUOUS_METRICS)
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20)
    def test_powers_matrix_close_on_real_data(self, metric, seed):
        data, queries = _engine_case(seed, metric)
        engine = QueryEngine(data, metric)
        m = get_metric(metric)
        matrix = engine.powers_matrix(queries)
        for i, x in enumerate(queries):
            np.testing.assert_allclose(
                matrix[i], _oracle_powers(m, data, x), rtol=1e-9, atol=1e-9
            )

    @pytest.mark.parametrize("metric", CONTINUOUS_METRICS + ["hamming"])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20)
    def test_distances_matrix_matches_distances_to(self, metric, seed):
        data, queries = _engine_case(seed, metric, integer=True)
        m = get_metric(metric)
        stacked = np.vstack([data.positives, data.negatives])
        matrix = m.distances_matrix(queries, stacked)
        for i, x in enumerate(queries):
            np.testing.assert_array_equal(matrix[i], m.distances_to(stacked, x))

    def test_pairwise_is_loop_free_alias(self):
        # pairwise must route through the vectorized matrix primitive.
        m = get_metric("l2")
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(m.pairwise(a, b), m.distances_matrix(a, b))

    def test_empty_sides(self):
        data = Dataset([[0.0, 1.0], [1.0, 0.0]], np.empty((0, 2)))
        engine = QueryEngine(data, "l2")
        matrix = engine.powers_matrix([[0.5, 0.5]])
        assert matrix.shape == (1, 2)
        r_pos, r_neg = engine.radii_batch([[0.5, 0.5]], 1)
        assert np.isfinite(r_pos[0]) and np.isinf(r_neg[0])


class TestBatchAgainstOracles:
    @pytest.mark.parametrize("metric", CONTINUOUS_METRICS)
    @pytest.mark.parametrize("k", [1, 3])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15)
    def test_continuous_classify_and_margin(self, metric, k, seed):
        data, queries = _engine_case(seed, metric)
        if len(data) < k:
            return
        clf = KNNClassifier(data, k=k, metric=metric)
        labels = clf.classify_batch(queries)
        margins = clf.margins_batch(queries)
        for i, x in enumerate(queries):
            assert labels[i] == clf.classify(x)
            np.testing.assert_allclose(margins[i], clf.margin(x), rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("metric", CONTINUOUS_METRICS)
    @pytest.mark.parametrize("k", [1, 3])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15)
    def test_integer_classify_and_margin_exact(self, metric, k, seed):
        data, queries = _engine_case(seed, metric, integer=True)
        if len(data) < k:
            return
        clf = KNNClassifier(data, k=k, metric=metric)
        labels = clf.classify_batch(queries)
        margins = clf.margins_batch(queries)
        for i, x in enumerate(queries):
            assert labels[i] == clf.classify(x)
            assert margins[i] == clf.margin(x)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15)
    def test_discrete_classify_and_margin(self, k, seed):
        data, queries = _engine_case(seed, "hamming")
        if len(data) < k:
            return
        clf = KNNClassifier(data, k=k, metric="hamming")
        labels = clf.classify_batch(queries)
        margins = clf.margins_batch(queries)
        for i, x in enumerate(queries):
            assert labels[i] == clf.classify(x)
            assert margins[i] == clf.margin(x)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15)
    def test_radii_batch_with_multiplicities(self, k, seed):
        # Integer coordinates so exact ties occur and the two kth-element
        # code paths (stable sort + cumsum vs scalar scan) must agree
        # bit for bit, multiplicities included.
        rng = _rng(seed)
        n = int(rng.integers(1, 5))
        pos = rng.integers(-3, 4, size=(int(rng.integers(1, 5)), n)).astype(float)
        neg = rng.integers(-3, 4, size=(int(rng.integers(1, 5)), n)).astype(float)
        data = Dataset(
            pos,
            neg,
            positive_multiplicities=rng.integers(1, 4, size=pos.shape[0]),
            negative_multiplicities=rng.integers(1, 4, size=neg.shape[0]),
        )
        if len(data) < k:
            return
        engine = QueryEngine(data, "l2")
        queries = rng.integers(-3, 4, size=(10, n)).astype(float)
        r_pos, r_neg = engine.radii_batch(queries, k)
        for i, x in enumerate(queries):
            expected = engine.radii(x, k)
            assert (r_pos[i], r_neg[i]) == expected
            # And the multiplicity-expanded dataset gives the same radii.
            flat = QueryEngine(data.expanded(), "l2")
            assert flat.radii(x, k) == expected

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10)
    def test_margin_infinite_cases(self, seed):
        rng = _rng(seed)
        pos = rng.normal(size=(3, 2))
        data = Dataset(pos, np.empty((0, 2)))
        engine = QueryEngine(data, "l2")
        queries = rng.normal(size=(4, 2))
        # No negatives: margin is +inf, label always 1.
        assert np.all(np.isinf(engine.margins_batch(queries, 3)))
        assert np.all(engine.margins_batch(queries, 3) > 0)
        assert np.all(engine.classify_batch(queries, 3) == 1)
        # k exceeding the dataset size is rejected, matching the seed
        # classifier's guard (both-infinite radii are unreachable for
        # any valid k).
        with pytest.raises(ValidationError):
            engine.radii_batch(queries, 7)
        with pytest.raises(ValidationError):
            engine.classify(queries[0], 5)


class TestEngineCacheAndSharing:
    def test_classifier_shares_engine(self):
        data = Dataset([[0.0, 0.0], [1.0, 1.0]], [[3.0, 3.0]])
        engine = QueryEngine(data, "l2")
        clf1 = KNNClassifier(data, k=1, engine=engine)
        clf3 = KNNClassifier(data, k=3, engine=engine)
        assert clf1.engine is engine and clf3.engine is engine
        x = [0.5, 0.5]
        clf1.classify(x)
        clf3.classify(x)

    def test_mismatched_engine_rejected(self):
        data = Dataset([[0.0, 0.0], [1.0, 1.0]], [[3.0, 3.0]])
        other = Dataset([[9.0, 9.0]], [[8.0, 8.0]])
        engine = QueryEngine(data, "l2")
        with pytest.raises(ValidationError):
            KNNClassifier(other, k=1, engine=engine)
        with pytest.raises(ValidationError):
            KNNClassifier(data, k=1, metric="l1", engine=engine)


class TestSingleQueryPaths:
    def test_distance_vote_keeps_an_exact_tie(self):
        # Both row-wise powers are 1.01; the Gram batch kernel reads
        # 1.0099999999999998 for S-, which would hand the vote to S-.
        data = Dataset([[0.0, 0.0]], [[2.0, 0.0]])
        engine = QueryEngine(data, "l2")
        x = [1.0, 0.1]
        assert classify_weighted_by_definition(data, 1, "l2", x) == 1
        assert engine.classify(x, 1, vote="distance") == 1
        assert engine.classify(x, 1) == 1

    @pytest.mark.parametrize("k", [1, 3])
    def test_distance_vote_matches_reference_on_a_grid(self, k):
        # A 0.1-spaced grid puts many queries on exact distance ties.
        rng = _rng(0)
        for _ in range(100):
            grid = rng.integers(0, 21, size=(6, 2)) / 10
            data = Dataset(grid[:3], grid[3:])
            engine = QueryEngine(data, "l2")
            for x in rng.integers(0, 21, size=(30, 2)) / 10:
                want = classify_weighted_by_definition(data, k, "l2", x)
                assert engine.classify(x, k, vote="distance") == want

    def test_engine_keeps_no_per_query_memory(self):
        rng = _rng(0)
        data = Dataset(
            rng.integers(0, 2, size=(1000, 32)).astype(float),
            rng.integers(0, 2, size=(1000, 32)).astype(float),
        )
        engine = QueryEngine(data, "hamming")
        queries = np.unique(rng.integers(0, 2, size=(512, 32)), axis=0).astype(float)
        assert queries.shape[0] == 512
        engine.classify(queries[0], 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for x in queries:
                engine.classify(x, 1)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1 << 20


class TestWarningSatellite:
    def test_continuous_metric_over_discrete_warns(self):
        data = Dataset([[0.0, 1.0]], [[1.0, 0.0]], discrete=True)
        with pytest.warns(UserWarning, match="continuous metric"):
            KNNClassifier(data, k=1, metric="l2")

    def test_default_discrete_metric_does_not_warn(self):
        data = Dataset([[0.0, 1.0]], [[1.0, 0.0]], discrete=True)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            KNNClassifier(data, k=1)
