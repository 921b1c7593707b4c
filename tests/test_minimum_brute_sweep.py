"""The brute-force Minimum-SR sweep decides a block of subsets per batch.

On the k = 1 projection cells (Hamming, Proposition 6; l1,
Proposition 4) ``minimum_sufficient_reason(method="brute")`` builds the
projection candidates of a whole block of same-size subsets and
classifies them with one ``classify_batch``.  It must return exactly
what one Check-SR per subset, in ``combinations`` order, returns: the
same size and the same witness, with the cap raising at the same
subset.  perfbench's Minimum-SR reference calls this same pipeline, so
the per-subset loop below is the independent oracle.
"""

from __future__ import annotations

import threading
from itertools import combinations
from math import comb

import numpy as np
import pytest

from repro._budget import install_cancel_event
from repro.abductive.check import _BRUTE_BATCH, check_sufficient_reason
from repro.abductive.minimum import minimum_sr_canonical_witness, minimum_sufficient_reason
from repro.exceptions import ResourceLimitError, ValidationError
from repro.knn import Dataset, QueryEngine

from .helpers import random_continuous_dataset, random_discrete_dataset


def _loop_reference(data, metric, x, engine, cap=None):
    """One Check-SR per subset; the cap counts one row per opposite point."""
    label = engine.classify(x, 1)
    expanded = data.expanded()
    rows = (expanded.negatives if label == 1 else expanded.positives).shape[0]
    n, enumerated = data.dimension, 0
    for size in range(n + 1):
        for X in combinations(range(n), size):
            enumerated += rows
            if cap is not None and enumerated > cap:
                raise ValidationError("cap")
            if check_sufficient_reason(data, 1, metric, x, X, engine=engine):
                return frozenset(X)
    raise AssertionError("the full component set is always sufficient")


def _sweep(data, metric, x, engine, cap=None):
    return minimum_sufficient_reason(
        data, 1, metric, x, method="brute", engine=engine, max_enumeration=cap
    )


def _assert_matches_loop(data, metric, x, *, canonical=False):
    engine = QueryEngine(data, metric)
    want = _loop_reference(data, metric, x, engine)
    got = _sweep(data, metric, x, engine)
    assert (got.X, got.size, got.method) == (want, len(want), "brute")
    if canonical:
        assert minimum_sr_canonical_witness(data, x, engine, got.size) == want


def _hamming_cases():
    rng = np.random.default_rng(7)
    for n in (1, 3, 5, 7, 9):
        for m_pos, m_neg in ((1, 1), (4, 3), (8, 8)):
            data = random_discrete_dataset(rng, n, m_pos, m_neg)
            for _ in range(3):
                yield data, rng.integers(0, 2, size=n).astype(float)


@pytest.mark.parametrize("case", list(_hamming_cases()), ids=lambda c: f"n{c[0].dimension}")
def test_hamming_sweep_matches_per_subset_loop(case):
    data, x = case
    _assert_matches_loop(data, "hamming", x, canonical=True)


def test_hamming_sweep_with_multiplicities():
    rng = np.random.default_rng(11)
    for n in (4, 6, 8):
        pos = rng.integers(0, 2, size=(5, n)).astype(float)
        neg = rng.integers(0, 2, size=(4, n)).astype(float)
        data = Dataset(
            pos, neg,
            positive_multiplicities=rng.integers(1, 4, size=5),
            negative_multiplicities=rng.integers(1, 4, size=4),
            discrete=True,
        )
        assert data.has_multiplicities
        for _ in range(4):
            _assert_matches_loop(data, "hamming", rng.integers(0, 2, size=n).astype(float),
                                 canonical=True)


def test_hamming_sweep_on_tie_rich_grids():
    # Every point of {0,1}^3 in both classes, or split by parity: every
    # query sits on exact distance ties.
    grid = np.array([[(c >> b) & 1 for b in range(3)] for c in range(8)], dtype=float)
    parity = grid.sum(axis=1) % 2 == 0
    for data in (
        Dataset(grid, grid, discrete=True),
        Dataset(grid[parity], grid[~parity], discrete=True),
        Dataset(grid[:4], grid[2:], discrete=True),
    ):
        for x in grid:
            _assert_matches_loop(data, "hamming", x, canonical=True)


@pytest.mark.parametrize("positive", [True, False])
def test_one_class_data_answers_the_empty_set(positive):
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 2, size=(6, 5)).astype(float)
    empty = np.empty((0, 5))
    data = Dataset(rows, empty, discrete=True) if positive else Dataset(empty, rows, discrete=True)
    engine = QueryEngine(data, "hamming")
    x = rng.integers(0, 2, size=5).astype(float)
    got = _sweep(data, "hamming", x, engine, cap=0)
    assert (got.X, got.size) == (frozenset(), 0)
    assert _loop_reference(data, "hamming", x, engine, cap=0) == frozenset()
    assert minimum_sr_canonical_witness(data, x, engine, 0) == frozenset()


@pytest.mark.parametrize("integer", [True, False], ids=["integer", "real"])
def test_l1_sweep_matches_per_subset_loop(integer):
    rng = np.random.default_rng(13 if integer else 17)
    for n in (2, 4, 6, 8):
        for m_pos, m_neg in ((1, 2), (5, 5), (9, 7)):
            data = random_continuous_dataset(rng, n, m_pos, m_neg, integer=integer)
            for _ in range(2):
                if integer:
                    x = rng.integers(-4, 5, size=n).astype(float)
                else:
                    x = rng.normal(size=n)
                _assert_matches_loop(data, "l1", x)


def _optimal_index(n: int, X: frozenset[int]) -> int:
    """1-based position of *X* in the size-ascending ``combinations`` order."""
    before = sum(comb(n, s) for s in range(len(X)))
    return before + list(combinations(range(n), len(X))).index(tuple(sorted(X))) + 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cap_boundary_matches_per_subset_loop(seed):
    rng = np.random.default_rng(seed)
    data = random_discrete_dataset(rng, 9, 10, 10)
    x = rng.integers(0, 2, size=9).astype(float)
    engine = QueryEngine(data, "hamming")
    best = _loop_reference(data, "hamming", x, engine)
    label = engine.classify(x, 1)
    rows = (data.negatives if label == 1 else data.positives).shape[0]
    j = _optimal_index(9, best)
    assert j > 1
    classified = []
    real = engine.classify_batch

    def counting(points, k, **kwargs):
        classified.append(len(points))
        return real(points, k, **kwargs)

    engine.classify_batch = counting
    for cap in (j * rows - 1, j * rows, j * rows + 1):
        classified.clear()
        try:
            want = _loop_reference(data, "hamming", x, QueryEngine(data, "hamming"), cap=cap)
        except ValidationError:
            with pytest.raises(ValidationError, match=f"exceeded {cap} candidate rows"):
                _sweep(data, "hamming", x, engine, cap=cap)
            assert cap < j * rows
        else:
            assert _sweep(data, "hamming", x, engine, cap=cap).X == want == best
        # Rows past the cap are never classified.
        assert sum(classified) <= cap


def test_time_limit_zero_raises():
    rng = np.random.default_rng(3)
    data = random_discrete_dataset(rng, 8, 6, 6)
    x = rng.integers(0, 2, size=8).astype(float)
    with pytest.raises(ResourceLimitError):
        minimum_sufficient_reason(data, 1, "hamming", x, method="brute", time_limit=0)


def test_set_cancel_event_raises():
    rng = np.random.default_rng(3)
    data = random_discrete_dataset(rng, 8, 6, 6)
    x = rng.integers(0, 2, size=8).astype(float)
    event = threading.Event()
    event.set()
    install_cancel_event(event)
    try:
        with pytest.raises(ResourceLimitError, match="cancelled"):
            minimum_sufficient_reason(data, 1, "hamming", x, method="brute")
    finally:
        install_cancel_event(None)


def test_one_classify_batch_per_block():
    rng = np.random.default_rng(1)
    data = random_discrete_dataset(rng, 10, 16, 16)
    engine = QueryEngine(data, "hamming")
    x = rng.integers(0, 2, size=10).astype(float)
    want = _loop_reference(data, "hamming", x, engine)
    calls = []
    real = engine.classify_batch

    def counting(points, k, **kwargs):
        calls.append(len(points))
        return real(points, k, **kwargs)

    engine.classify_batch = counting
    got = _sweep(data, "hamming", x, engine)
    assert got.X == want
    # 16 rows per subset: a block holds 512 subsets, more than any one
    # size of 10 features, so every size visited is one block.
    assert _BRUTE_BATCH // 16 >= max(comb(10, s) for s in range(11))
    assert len(calls) <= got.size + 1
    assert max(calls) <= _BRUTE_BATCH
