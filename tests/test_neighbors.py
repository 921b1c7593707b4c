"""Tests for the NN-index substrate (brute force, KD-tree, bit-packed)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.neighbors import (
    BitPackedHammingIndex,
    BruteForceIndex,
    IVFIndex,
    KDTreeIndex,
    build_index,
)
from repro.neighbors.base import IVF_AUTO_MIN_POINTS


def reference_query(points, metric, x, k):
    """Straight-line oracle: full sort by (distance, index)."""
    from repro.metrics import get_metric

    d = get_metric(metric).distances_to(
        np.asarray(points, dtype=float), np.asarray(x, dtype=float)
    )
    order = np.argsort(d, kind="stable")[:k]
    return d[order], order


class TestBruteForce:
    def test_single_nearest(self):
        idx = BruteForceIndex([[0.0, 0.0], [5.0, 5.0]], "l2")
        d, i = idx.nearest([1.0, 1.0])
        assert i == 0
        assert d == pytest.approx(np.sqrt(2))

    def test_ties_break_by_index(self):
        idx = BruteForceIndex([[1.0], [-1.0], [1.0]], "l2")
        _, order = idx.query([0.0], k=3)
        np.testing.assert_array_equal(order, [0, 1, 2])

    def test_k_bounds(self):
        idx = BruteForceIndex([[0.0]], "l2")
        with pytest.raises(ValidationError):
            idx.query([0.0], k=0)
        with pytest.raises(ValidationError):
            idx.query([0.0], k=2)

    def test_dimension_check(self):
        idx = BruteForceIndex([[0.0, 1.0]], "l2")
        with pytest.raises(ValidationError):
            idx.query([0.0], k=1)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            BruteForceIndex(np.empty((0, 2)), "l2")


class TestKDTree:
    @pytest.mark.parametrize("metric", ["l1", "l2", "lp:3", "linf"])
    def test_matches_brute_force_random(self, metric, rng):
        points = rng.normal(size=(200, 3))
        tree = KDTreeIndex(points, metric)
        brute = BruteForceIndex(points, metric)
        for _ in range(25):
            x = rng.normal(size=3) * 2
            for k in (1, 5, 17):
                dt, it = tree.query(x, k)
                db, ib = brute.query(x, k)
                np.testing.assert_array_equal(it, ib)
                np.testing.assert_allclose(dt, db, rtol=1e-10)

    def test_hamming_matches_brute(self, rng):
        points = rng.integers(0, 2, size=(150, 10)).astype(float)
        tree = KDTreeIndex(points, "hamming")
        brute = BruteForceIndex(points, "hamming")
        for _ in range(20):
            x = rng.integers(0, 2, size=10).astype(float)
            dt, it = tree.query(x, 7)
            db, ib = brute.query(x, 7)
            np.testing.assert_array_equal(it, ib)
            np.testing.assert_array_equal(dt, db)

    def test_duplicate_points(self):
        points = np.zeros((40, 2))
        tree = KDTreeIndex(points, "l2")
        d, i = tree.query([0.0, 0.0], k=3)
        np.testing.assert_array_equal(i, [0, 1, 2])
        np.testing.assert_array_equal(d, [0, 0, 0])

    def test_query_point_far_outside(self, rng):
        points = rng.uniform(size=(100, 2))
        tree = KDTreeIndex(points, "l2")
        d, i = tree.query([100.0, 100.0], k=1)
        db, ib = BruteForceIndex(points, "l2").query([100.0, 100.0], k=1)
        assert i[0] == ib[0]

    @given(
        seed=st.integers(0, 100_000),
        m=st.integers(1, 60),
        n=st.integers(1, 4),
        metric=st.sampled_from(["l1", "l2", "linf"]),
    )
    @settings(max_examples=40)
    def test_property_agreement(self, seed, m, n, metric):
        rng = np.random.default_rng(seed)
        # Integer grid points force many exact ties.
        points = rng.integers(-3, 4, size=(m, n)).astype(float)
        x = rng.integers(-3, 4, size=n).astype(float)
        k = int(rng.integers(1, m + 1))
        tree = KDTreeIndex(points, metric)
        dr, ir = reference_query(points, metric, x, k)
        dt, it = tree.query(x, k)
        np.testing.assert_array_equal(it, ir)
        np.testing.assert_allclose(dt, dr, rtol=1e-10)


class TestBitPacked:
    @given(seed=st.integers(0, 100_000), m=st.integers(1, 80), n=st.integers(1, 70))
    @settings(max_examples=40)
    def test_property_agreement_with_brute(self, seed, m, n):
        rng = np.random.default_rng(seed)
        points = rng.integers(0, 2, size=(m, n)).astype(float)
        x = rng.integers(0, 2, size=n).astype(float)
        k = int(rng.integers(1, m + 1))
        packed = BitPackedHammingIndex(points, "hamming")
        brute = BruteForceIndex(points, "hamming")
        dp, ip = packed.query(x, k)
        db, ib = brute.query(x, k)
        np.testing.assert_array_equal(ip, ib)
        np.testing.assert_array_equal(dp, db)

    def test_word_boundary_dimensions(self):
        # 64 and 65 columns straddle a uint64 word; pad bits must not
        # contribute to any distance.
        for n in (1, 8, 63, 64, 65, 128):
            rng = np.random.default_rng(n)
            points = rng.integers(0, 2, size=(40, n)).astype(float)
            queries = rng.integers(0, 2, size=(10, n)).astype(float)
            packed = BitPackedHammingIndex(points, "hamming")
            expected = np.stack(
                [np.abs(points - q).sum(axis=1) for q in queries]
            )
            np.testing.assert_array_equal(packed.powers_matrix(queries), expected)

    def test_ties_break_by_index(self):
        points = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        packed = BitPackedHammingIndex(points, "hamming")
        _, order = packed.query([0.0, 0.0], k=3)
        np.testing.assert_array_equal(order, [0, 1, 2])

    def test_rejects_non_hamming_metric(self, rng):
        points = rng.integers(0, 2, size=(5, 4)).astype(float)
        with pytest.raises(ValidationError):
            BitPackedHammingIndex(points, "l2")

    def test_rejects_non_binary_points(self):
        with pytest.raises(ValidationError):
            BitPackedHammingIndex([[0.0, 2.0]], "hamming")

    def test_rejects_non_binary_queries(self, rng):
        points = rng.integers(0, 2, size=(5, 4)).astype(float)
        packed = BitPackedHammingIndex(points, "hamming")
        with pytest.raises(ValidationError):
            packed.query([0.5, 0.0, 1.0, 0.0], k=1)
        with pytest.raises(ValidationError):
            packed.counts_matrix([[0.0, 2.0, 1.0, 0.0]])


class TestBuildIndex:
    def test_prefer_overrides(self, rng):
        pts = rng.normal(size=(10, 2))
        assert isinstance(build_index(pts, prefer="brute"), BruteForceIndex)
        assert isinstance(build_index(pts, prefer="dense"), BruteForceIndex)
        assert isinstance(build_index(pts, prefer="kdtree"), KDTreeIndex)
        with pytest.raises(ValidationError):
            build_index(pts, prefer="faiss")

    def test_prefer_bitpack(self, rng):
        pts = rng.integers(0, 2, size=(10, 6)).astype(float)
        assert isinstance(
            build_index(pts, "hamming", prefer="bitpack"), BitPackedHammingIndex
        )

    def test_auto_low_dim_uses_tree(self, rng):
        pts = rng.normal(size=(200, 2))
        assert isinstance(build_index(pts), KDTreeIndex)

    def test_auto_high_dim_uses_brute(self, rng):
        pts = rng.normal(size=(200, 50))
        assert isinstance(build_index(pts), BruteForceIndex)

    def test_auto_binary_hamming_uses_bitpack(self, rng):
        pts = rng.integers(0, 2, size=(100, 30)).astype(float)
        assert isinstance(build_index(pts, "hamming"), BitPackedHammingIndex)

    def test_auto_nonbinary_hamming_falls_back(self, rng):
        pts = rng.integers(0, 3, size=(100, 30)).astype(float)
        index = build_index(pts, "hamming")
        assert not isinstance(index, BitPackedHammingIndex)

    def test_auto_rule_prefers_ivf_at_scale(self, rng):
        """``build_index`` reaches for IVF above the measured crossover."""
        small = rng.integers(0, 5, size=(256, 16)).astype(float)
        assert not isinstance(build_index(small, "l2"), IVFIndex)
        assert IVF_AUTO_MIN_POINTS >= 4_096  # the crossover is a large-n rule
        large = rng.integers(0, 5, size=(IVF_AUTO_MIN_POINTS, 16)).astype(float)
        assert isinstance(build_index(large, "l2"), IVFIndex)


class TestKthPowerBatch:
    @pytest.mark.parametrize("metric", ["l1", "l2", "linf"])
    def test_matches_sorted_powers(self, metric, rng):
        from repro.metrics import get_metric

        points = rng.integers(-3, 4, size=(120, 3)).astype(float)
        tree = KDTreeIndex(points, metric)
        queries = rng.integers(-3, 4, size=(15, 3)).astype(float)
        m = get_metric(metric)
        for k in (1, 4, 120):
            got = tree.kth_power_batch(queries, k)
            expected = np.array(
                [np.sort(m.powers_to(points, x))[k - 1] for x in queries]
            )
            np.testing.assert_array_equal(got, expected)

    def test_k_beyond_size_is_inf(self, rng):
        points = rng.normal(size=(10, 2))
        tree = KDTreeIndex(points, "l2")
        assert np.isinf(tree.kth_power(points[0], 11))
