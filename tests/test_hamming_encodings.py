"""Unit tests for the Section 9.2 encoding internals."""

from __future__ import annotations

import math
from itertools import product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counterfactual.hamming_milp import _hamming_terms
from repro.counterfactual.hamming_sat import _ensure_cf_bound, build_flip_encoding
from repro.knn import KNNClassifier
from repro.solvers.sat import PoolEntry

from .helpers import random_discrete_dataset


class TestHammingTerms:
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 8))
    @settings(max_examples=30)
    def test_linearization_exact(self, seed, n):
        rng = np.random.default_rng(seed)
        z = rng.integers(0, 2, size=n).astype(float)
        y = rng.integers(0, 2, size=n).astype(float)
        constant, coeff = _hamming_terms(z)
        assert constant + float(coeff @ y) == float(np.abs(z - y).sum())


class TestFlipEncoding:
    def _models_of(self, builder, y_vars):
        """All assignments of the y variables extendable to a model."""
        found = set()
        n = len(y_vars)
        for bits in product([0, 1], repeat=n):
            probe = builder.build_solver()
            for yv, b in zip(y_vars, bits):
                probe.add_clause([yv if b else -yv])
            if probe.solve() is not None:
                found.add(bits)
        return found

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=20)
    def test_encoding_models_are_exactly_the_flipped_points(self, seed):
        """The y-projections of the encoding's models must be exactly the
        points of the opposite class region (k = 1 semantics)."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        data = random_discrete_dataset(rng, n, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        clf = KNNClassifier(data, k=1, metric="hamming")
        x = rng.integers(0, 2, size=n).astype(float)
        label = clf.classify(x)
        expanded = data.expanded()
        if label == 1:
            winning, losing, margin = expanded.negatives, expanded.positives, 1
        else:
            winning, losing, margin = expanded.positives, expanded.negatives, 0
        builder, y_vars = build_flip_encoding(x, winning, losing, margin)
        models = self._models_of(builder, y_vars)
        for bits in product([0, 1], repeat=n):
            point = np.array(bits, dtype=float)
            expected = clf.classify(point) != label
            assert ((bits in models) == expected), (bits, label)

    def test_distance_bound_restricts_models(self, rng):
        data = random_discrete_dataset(rng, 4, 2, 2)
        clf = KNNClassifier(data, k=1, metric="hamming")
        x = rng.integers(0, 2, size=4).astype(float)
        label = clf.classify(x)
        expanded = data.expanded()
        winning = expanded.negatives if label == 1 else expanded.positives
        losing = expanded.positives if label == 1 else expanded.negatives
        builder, y_vars = build_flip_encoding(x, winning, losing, 1 if label else 0)
        entry = PoolEntry((), builder.build_solver(), {"y": y_vars, "bounds": {}})
        model = entry.solver.solve([_ensure_cf_bound(entry, x, 1)])
        if model is not None:
            y = np.array([1.0 if model[v] else 0.0 for v in y_vars])
            assert np.abs(y - x).sum() <= 1

    def test_cardinality_bound_formula(self):
        """The paper's bound: strict win over a rival with |Delta| diffs
        needs agreement on at least floor(|Delta|/2) + 1 of them."""
        for delta_size in range(1, 9):
            strict = math.ceil((delta_size + 1) / 2)
            assert strict == delta_size // 2 + 1
            weak = math.ceil(delta_size / 2)
            assert weak <= strict
