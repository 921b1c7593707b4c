"""Backend parity suite: every index backend computes the same classifier.

The :class:`~repro.knn.QueryEngine` contract is that ``backend=`` is a
pure performance decision: ``"dense"``, ``"kdtree"``, ``"bitpack"`` and ``"ivf"``
must return identical labels, radii and margins (``"ivf"`` included:
its certificate makes the inverted-file plan exact).  On integer-valued
data (where the paper's exact tie-breaking semantics live — including
the optimistic ties of Proposition 1) agreement is bit for bit; on
general real data under the KD-tree backend the surrogates may differ
by kernel roundoff, so radii are compared to tolerance and labels
outright.

Also covers the backend auto rule, validation, engine pickling, the
process-pool sharded batch path (:meth:`QueryEngine.map_shards`), and
``run_sweep(workers=N)``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.knn import Dataset, KNNClassifier, QueryEngine
from repro.knn.engine import BACKENDS
from repro.experiments.runner import run_sweep

from .helpers import random_continuous_dataset, random_discrete_dataset

LP_METRICS = ["l1", "l2", "lp:3", "linf"]
LP_BACKENDS = ["dense", "kdtree", "ivf"]
HAMMING_BACKENDS = ["dense", "kdtree", "bitpack", "ivf"]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _hamming_case(seed: int, *, q: int = 10):
    rng = _rng(seed)
    n = int(rng.integers(1, 9))
    data = random_discrete_dataset(rng, n, int(rng.integers(1, 8)), int(rng.integers(1, 8)))
    queries = rng.integers(0, 2, size=(q, n)).astype(float)
    return data, queries


def _lp_case(seed: int, *, integer: bool, q: int = 10):
    rng = _rng(seed)
    n = int(rng.integers(1, 5))
    data = random_continuous_dataset(
        rng, n, int(rng.integers(1, 8)), int(rng.integers(1, 8)), integer=integer
    )
    queries = (
        rng.integers(-4, 5, size=(q, n)).astype(float)
        if integer
        else rng.normal(size=(q, n))
    )
    return data, queries


def _assert_bitwise_parity(reference: QueryEngine, other: QueryEngine, queries, k: int):
    np.testing.assert_array_equal(
        reference.classify_batch(queries, k), other.classify_batch(queries, k)
    )
    np.testing.assert_array_equal(
        reference.margins_batch(queries, k), other.margins_batch(queries, k)
    )
    for ref_side, other_side in zip(
        reference.radii_batch(queries, k), other.radii_batch(queries, k)
    ):
        np.testing.assert_array_equal(ref_side, other_side)


class TestHammingParity:
    @pytest.mark.parametrize("backend", HAMMING_BACKENDS)
    @pytest.mark.parametrize("k", [1, 3, 5])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15)
    def test_identical_to_dense(self, backend, k, seed):
        data, queries = _hamming_case(seed)
        if len(data) < k:
            return
        dense = QueryEngine(data, "hamming", backend="dense")
        other = QueryEngine(data, "hamming", backend=backend)
        assert other.backend == backend
        _assert_bitwise_parity(dense, other, queries, k)

    @pytest.mark.parametrize("backend", ["kdtree", "bitpack", "ivf"])
    def test_powers_matrix_bit_identical(self, backend):
        data, queries = _hamming_case(99)
        dense = QueryEngine(data, "hamming", backend="dense")
        other = QueryEngine(data, "hamming", backend=backend)
        np.testing.assert_array_equal(
            dense.powers_matrix(queries), other.powers_matrix(queries)
        )

    def test_bitpack_nonbinary_queries_fall_back(self, rng):
        data, _ = _hamming_case(7)
        dense = QueryEngine(data, "hamming", backend="dense")
        bitpack = QueryEngine(data, "hamming", backend="bitpack")
        queries = rng.normal(size=(6, data.dimension))
        np.testing.assert_allclose(
            dense.powers_matrix(queries), bitpack.powers_matrix(queries)
        )
        np.testing.assert_array_equal(
            dense.classify_batch(queries, 1), bitpack.classify_batch(queries, 1)
        )


class TestLpParity:
    @pytest.mark.parametrize("backend", ["kdtree", "ivf"])
    @pytest.mark.parametrize("metric", LP_METRICS)
    @pytest.mark.parametrize("k", [1, 3])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10)
    def test_identical_on_integer_data(self, backend, metric, k, seed):
        data, queries = _lp_case(seed, integer=True)
        if len(data) < k:
            return
        dense = QueryEngine(data, metric, backend="dense")
        other = QueryEngine(data, metric, backend=backend)
        _assert_bitwise_parity(dense, other, queries, k)

    @pytest.mark.parametrize("backend", ["kdtree", "ivf"])
    @pytest.mark.parametrize("metric", LP_METRICS)
    @pytest.mark.parametrize("k", [1, 3])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10)
    def test_labels_match_on_real_data(self, backend, metric, k, seed):
        data, queries = _lp_case(seed, integer=False)
        if len(data) < k:
            return
        dense = QueryEngine(data, metric, backend="dense")
        other = QueryEngine(data, metric, backend=backend)
        np.testing.assert_array_equal(
            dense.classify_batch(queries, k), other.classify_batch(queries, k)
        )
        for dense_side, other_side in zip(
            dense.radii_batch(queries, k), other.radii_batch(queries, k)
        ):
            np.testing.assert_allclose(dense_side, other_side, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10)
    def test_multiplicities(self, k, seed):
        rng = _rng(seed)
        n = int(rng.integers(1, 4))
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
        queries = rng.integers(-3, 4, size=(8, n)).astype(float)
        dense = QueryEngine(data, "l2", backend="dense")
        for backend in ("kdtree", "ivf"):
            _assert_bitwise_parity(
                dense, QueryEngine(data, "l2", backend=backend), queries, k
            )


class TestProposition1Ties:
    """The optimistic tie rule survives every backend, bit for bit."""

    def test_equidistant_tie_classifies_positive_hamming(self):
        # x = 00 sits at Hamming distance 1 from the positive 01 and the
        # negative 10: r+ == r- == 1, the optimistic rule says f(x) = 1.
        data = Dataset([[0.0, 1.0]], [[1.0, 0.0]])
        x = [[0.0, 0.0]]
        for backend in HAMMING_BACKENDS:
            engine = QueryEngine(data, "hamming", backend=backend)
            assert engine.classify_batch(x, 1)[0] == 1, backend
            assert engine.margins_batch(x, 1)[0] == 0.0, backend

    @pytest.mark.parametrize("metric", LP_METRICS)
    def test_equidistant_tie_classifies_positive_lp(self, metric):
        data = Dataset([[1.0, 0.0]], [[-1.0, 0.0]])
        x = [[0.0, 5.0]]
        for backend in LP_BACKENDS:
            engine = QueryEngine(data, metric, backend=backend)
            assert engine.classify_batch(x, 1)[0] == 1, (metric, backend)
            assert engine.margins_batch(x, 1)[0] == 0.0, (metric, backend)

    def test_tie_with_multiplicities(self):
        # Two copies of one positive at distance 1 vs two copies of one
        # negative at distance 1: with k=3 both sides reach majority
        # (need=2) at radius 1 — still a tie, still positive.
        data = Dataset(
            [[0.0, 1.0]],
            [[1.0, 0.0]],
            positive_multiplicities=[2],
            negative_multiplicities=[2],
        )
        x = [[0.0, 0.0]]
        for backend in HAMMING_BACKENDS:
            engine = QueryEngine(data, "hamming", backend=backend)
            r_pos, r_neg = engine.radii_batch(x, 3)
            assert r_pos[0] == r_neg[0]
            assert engine.classify_batch(x, 3)[0] == 1, backend

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15)
    def test_randomized_integer_grids_force_ties(self, seed):
        # Tiny integer grids make exact cross-class ties common; every
        # backend must break them identically.
        rng = _rng(seed)
        n = int(rng.integers(1, 3))
        pos = rng.integers(0, 2, size=(int(rng.integers(1, 5)), n)).astype(float)
        neg = rng.integers(0, 2, size=(int(rng.integers(1, 5)), n)).astype(float)
        data = Dataset(pos, neg)
        queries = rng.integers(0, 2, size=(6, n)).astype(float)
        dense = QueryEngine(data, "hamming", backend="dense")
        for backend in ("kdtree", "bitpack", "ivf"):
            _assert_bitwise_parity(
                dense, QueryEngine(data, "hamming", backend=backend), queries, 1
            )


class TestBackendSelection:
    def test_auto_picks_bitpack_for_binary_hamming(self):
        data = random_discrete_dataset(_rng(0), 6, 10, 10)
        assert QueryEngine(data, "hamming").backend == "bitpack"

    def test_auto_picks_dense_for_continuous(self):
        data = random_continuous_dataset(_rng(0), 6, 10, 10)
        assert QueryEngine(data, "l2").backend == "dense"

    def test_auto_picks_dense_for_nonbinary_hamming(self):
        data = Dataset([[0.0, 2.0]], [[1.0, 0.0]])
        assert QueryEngine(data, "hamming").backend == "dense"

    def test_auto_picks_kdtree_for_large_low_dim(self):
        rng = _rng(0)
        pts = rng.normal(size=(17_000, 3))
        labels = rng.integers(0, 2, size=17_000).astype(bool)
        data = Dataset(pts[labels], pts[~labels])
        assert QueryEngine(data, "l2").backend == "kdtree"

    def test_explicit_backends_reported(self):
        data = random_discrete_dataset(_rng(0), 5, 8, 8)
        for backend in ("dense", "kdtree", "bitpack", "ivf"):
            assert QueryEngine(data, "hamming", backend=backend).backend == backend

    def test_unknown_backend_rejected(self):
        data = random_discrete_dataset(_rng(0), 4, 3, 3)
        with pytest.raises(ValidationError):
            QueryEngine(data, "hamming", backend="faiss")

    def test_bitpack_requires_hamming_metric(self):
        data = random_continuous_dataset(_rng(0), 4, 3, 3)
        with pytest.raises(ValidationError):
            QueryEngine(data, "l2", backend="bitpack")

    def test_bitpack_requires_binary_data(self):
        data = Dataset([[0.0, 2.0]], [[1.0, 0.0]])
        with pytest.raises(ValidationError):
            QueryEngine(data, "hamming", backend="bitpack")

    def test_classifier_forwards_backend(self):
        data = random_discrete_dataset(_rng(0), 5, 8, 8)
        clf = KNNClassifier(data, k=3, metric="hamming", backend="bitpack")
        assert clf.engine.backend == "bitpack"
        dense = KNNClassifier(data, k=3, metric="hamming", backend="dense")
        queries = _rng(1).integers(0, 2, size=(10, 5)).astype(float)
        np.testing.assert_array_equal(
            clf.classify_batch(queries), dense.classify_batch(queries)
        )

    def test_backends_tuple_is_public(self):
        assert BACKENDS == ("auto", "dense", "kdtree", "bitpack", "ivf")

    def test_ivf_requires_lp_or_hamming_like_kdtree(self):
        # Both certificate-based backends share the metric requirement;
        # nothing else is rejected (any lp/Hamming data quantizes).
        data = random_continuous_dataset(_rng(0), 4, 6, 6)
        engine = QueryEngine(data, "l2", backend="ivf")
        assert engine.backend == "ivf"


class TestEnginePickling:
    def test_roundtrip_drops_cache_and_preserves_results(self):
        data = random_discrete_dataset(_rng(3), 5, 6, 6)
        engine = QueryEngine(data, "hamming", backend="bitpack")
        queries = _rng(4).integers(0, 2, size=(8, 5)).astype(float)
        engine.classify(queries[0], 1)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.backend == "bitpack"
        np.testing.assert_array_equal(
            engine.classify_batch(queries, 3), clone.classify_batch(queries, 3)
        )

    @pytest.mark.parametrize("backend", ["kdtree", "ivf"])
    def test_tree_and_ivf_engines_roundtrip(self, backend):
        data = random_continuous_dataset(_rng(5), 3, 30, 30, integer=True)
        engine = QueryEngine(data, "l2", backend=backend)
        clone = pickle.loads(pickle.dumps(engine))
        queries = _rng(6).integers(-4, 5, size=(5, 3)).astype(float)
        for orig_side, clone_side in zip(
            engine.radii_batch(queries, 3), clone.radii_batch(queries, 3)
        ):
            np.testing.assert_array_equal(orig_side, clone_side)


class TestMapShards:
    @pytest.mark.parametrize("backend", ["dense", "bitpack"])
    def test_sharded_matches_direct(self, backend):
        data, queries = _hamming_case(11, q=40)
        engine = QueryEngine(data, "hamming", backend=backend)
        direct = engine.classify_batch(queries, 3)
        sharded = engine.map_shards(
            "classify_batch", queries, 3, workers=2, min_shard_rows=4
        )
        np.testing.assert_array_equal(direct, sharded)

    def test_radii_and_matrix_methods(self):
        data, queries = _hamming_case(12, q=30)
        engine = QueryEngine(data, "hamming")
        r_direct = engine.radii_batch(queries, 1)
        r_shard = engine.map_shards("radii_batch", queries, 1, workers=2, min_shard_rows=4)
        for direct_side, shard_side in zip(r_direct, r_shard):
            np.testing.assert_array_equal(direct_side, shard_side)
        np.testing.assert_array_equal(
            engine.powers_matrix(queries),
            engine.map_shards("powers_matrix", queries, workers=2, min_shard_rows=4),
        )

    def test_small_batches_stay_in_process(self):
        data, queries = _hamming_case(13, q=6)
        engine = QueryEngine(data, "hamming")
        # 6 rows < min_shard_rows: the direct path runs in this process.
        out = engine.map_shards("margins_batch", queries, 1, workers=4)
        np.testing.assert_array_equal(out, engine.margins_batch(queries, 1))

    def test_validation(self):
        data, queries = _hamming_case(14)
        engine = QueryEngine(data, "hamming")
        with pytest.raises(ValidationError):
            engine.map_shards("classify", queries, 1)
        with pytest.raises(ValidationError):
            engine.map_shards("classify_batch", queries)  # k missing
        with pytest.raises(ValidationError):
            engine.map_shards("classify_batch", queries, 99, workers=2)


def _double_n(params: dict):
    # module-level so run_sweep(workers=2) can pickle the factory
    value = params["n"]
    return lambda: value * 2


class TestRunSweepWorkers:
    def test_parallel_matches_serial_grid(self):
        grid = [{"n": n, "N": N} for n in (1, 2) for N in (10, 20)]
        serial = run_sweep("demo", grid, _double_n, repeats=1)
        parallel = run_sweep("demo", grid, _double_n, repeats=1, workers=2)
        assert [
            {k: row[k] for k in ("n", "N")} for row in serial.rows
        ] == [{k: row[k] for k in ("n", "N")} for row in parallel.rows]
        assert all(row["repeats"] == 1 for row in parallel.rows)

    def test_unpicklable_task_falls_back_serially(self):
        grid = [{"n": 1}, {"n": 2}]
        closure_local = 3
        with pytest.warns(UserWarning, match="picklable"):
            result = run_sweep(
                "demo",
                grid,
                lambda p: (lambda: p["n"] * closure_local),
                repeats=1,
                workers=2,
            )
        assert len(result.rows) == 2

    def test_save_json_roundtrip(self, tmp_path):
        grid = [{"n": 1}]
        result = run_sweep("demo", grid, _double_n, repeats=1)
        path = tmp_path / "BENCH_sweep.json"
        result.save_json(path)
        import json

        payload = json.loads(path.read_text())
        assert payload["name"] == "demo"
        assert payload["rows"][0]["n"] == 1
        assert "median" in payload["rows"][0]
