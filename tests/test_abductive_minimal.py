"""Tests for minimal sufficient reasons (greedy, Proposition 2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abductive import (
    check_sufficient_reason,
    is_minimal_sufficient_reason,
    minimal_sufficient_reason,
)
from repro.exceptions import ValidationError
from repro.knn import Dataset, QueryEngine

from .helpers import random_continuous_dataset, random_discrete_dataset


@pytest.mark.parametrize(
    "metric,k", [("hamming", 1), ("l1", 1), ("hamming", 3), ("l2", 1)]
)
def test_greedy_classifies_x_once(rng, metric, k):
    """Every Check-SR of one greedy call decides against one f(x).

    Hamming k = 3 runs the brute checker; the others run Propositions
    3, 4 and 6.  The subset checks classify candidates in batches only,
    so the engine's single-query ``classify`` sees x once per call.
    """
    n = 6
    if metric == "hamming":
        data = random_discrete_dataset(rng, n, 4, 4)
        x = rng.integers(0, 2, size=n).astype(float)
    else:
        data = random_continuous_dataset(rng, n, 4, 4)
        x = rng.normal(size=n)
    engine = QueryEngine(data, metric)
    calls = []
    classify = engine.classify

    def counting(point, *args, **kwargs):
        calls.append(np.array(point, dtype=float))
        return classify(point, *args, **kwargs)

    engine.classify = counting
    X = minimal_sufficient_reason(data, k, metric, x, engine=engine)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], x)
    calls.clear()
    assert is_minimal_sufficient_reason(data, k, metric, x, X, engine=engine)
    assert len(calls) == 1
    calls.clear()
    minimal_sufficient_reason(data, k, metric, x, start=range(n), engine=engine)
    assert len(calls) == 1


class TestGreedy:
    def test_result_is_sufficient_and_minimal_hamming(self, rng):
        for _ in range(10):
            data = random_discrete_dataset(rng, 5, 3, 3)
            x = rng.integers(0, 2, size=5).astype(float)
            X = minimal_sufficient_reason(data, 1, "hamming", x)
            assert is_minimal_sufficient_reason(data, 1, "hamming", x, X)

    def test_result_is_sufficient_and_minimal_l2(self, rng):
        for k in (1, 3):
            data = random_continuous_dataset(rng, 4, 3, 3)
            x = rng.normal(size=4)
            X = minimal_sufficient_reason(data, k, "l2", x)
            assert is_minimal_sufficient_reason(data, k, "l2", x, X)

    def test_result_is_sufficient_and_minimal_l1_k1(self, rng):
        data = random_continuous_dataset(rng, 4, 3, 3)
        x = rng.normal(size=4)
        X = minimal_sufficient_reason(data, 1, "l1", x)
        assert is_minimal_sufficient_reason(data, 1, "l1", x, X)

    def test_start_must_be_sufficient(self):
        # Example 2 dataset: {0} is not sufficient.
        positives = [[0, 1, 1], [1, 0, 1], [1, 1, 1]]
        negatives = [
            [a, b, c]
            for a in (0, 1)
            for b in (0, 1)
            for c in (0, 1)
            if [a, b, c] not in positives
        ]
        data = Dataset(positives, negatives, discrete=True)
        with pytest.raises(ValidationError):
            minimal_sufficient_reason(data, 1, "hamming", np.zeros(3), start={0})

    def test_order_steers_which_minimal_reason(self):
        """Example 2: both {0,1} and {2} are minimal; order selects one."""
        positives = [[0, 1, 1], [1, 0, 1], [1, 1, 1]]
        negatives = [
            [a, b, c]
            for a in (0, 1)
            for b in (0, 1)
            for c in (0, 1)
            if [a, b, c] not in positives
        ]
        data = Dataset(positives, negatives, discrete=True)
        x = np.zeros(3)
        # Try removing component 2 first: forced to keep {0, 1}.
        X1 = minimal_sufficient_reason(data, 1, "hamming", x, order=[2, 0, 1])
        assert X1 == frozenset({0, 1})
        # Try removing 0 then 1 first: left with {2}.
        X2 = minimal_sufficient_reason(data, 1, "hamming", x, order=[0, 1, 2])
        assert X2 == frozenset({2})

    def test_order_must_cover_start(self, rng):
        data = random_discrete_dataset(rng, 3, 2, 2)
        with pytest.raises(ValidationError):
            minimal_sufficient_reason(
                data, 1, "hamming", np.zeros(3), order=[0, 1]
            )

    def test_shrinks_given_start(self, rng):
        data = random_discrete_dataset(rng, 5, 3, 3)
        x = rng.integers(0, 2, size=5).astype(float)
        X = minimal_sufficient_reason(data, 1, "hamming", x, start=range(5))
        assert X <= frozenset(range(5))
        assert check_sufficient_reason(data, 1, "hamming", x, X)


class TestIsMinimal:
    def test_non_sufficient_is_not_minimal(self):
        positives = [[0, 1, 1], [1, 0, 1], [1, 1, 1]]
        negatives = [
            [a, b, c]
            for a in (0, 1)
            for b in (0, 1)
            for c in (0, 1)
            if [a, b, c] not in positives
        ]
        data = Dataset(positives, negatives, discrete=True)
        assert not is_minimal_sufficient_reason(data, 1, "hamming", np.zeros(3), {0})

    def test_sufficient_but_not_minimal(self):
        positives = [[0, 1, 1], [1, 0, 1], [1, 1, 1]]
        negatives = [
            [a, b, c]
            for a in (0, 1)
            for b in (0, 1)
            for c in (0, 1)
            if [a, b, c] not in positives
        ]
        data = Dataset(positives, negatives, discrete=True)
        # {0, 1, 2} is sufficient but contains {2}.
        assert not is_minimal_sufficient_reason(
            data, 1, "hamming", np.zeros(3), {0, 1, 2}
        )

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=25)
    def test_greedy_output_accepted(self, seed):
        rng = np.random.default_rng(seed)
        data = random_discrete_dataset(rng, 4, 3, 3)
        x = rng.integers(0, 2, size=4).astype(float)
        X = minimal_sufficient_reason(data, 1, "hamming", x)
        assert is_minimal_sufficient_reason(data, 1, "hamming", x, X)
