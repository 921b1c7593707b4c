"""Parity of the best-first l2 counterfactual sweep with the exhaustive one.

``closest_counterfactual_l2`` visits the Proposition-1 pieces in order of
a per-piece lower bound and stops once no unvisited piece can beat its
candidate.  The reference below projects ``x`` onto *every* piece,
stably sorts the candidates by squared distance and commits the first
one the classifier (or the interior nudge) certifies — Theorem 2 taken
literally.  Both must agree bit for bit on ``found``, ``y``,
``distance``, ``infimum`` and ``label_from``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.counterfactual.l2 as l2
from repro.counterfactual import CounterfactualResult, closest_counterfactual
from repro.exceptions import InfeasibleError, ResourceLimitError
from repro.geometry import decision_region_polyhedra
from repro.geometry.regions import count_region_polyhedra
from repro.knn import Dataset, QueryEngine
from repro.solvers.lp import feasible_point_strict
from repro.solvers.qp import project_onto_polyhedron


def exhaustive_l2(dataset: Dataset, k: int, x: np.ndarray) -> CounterfactualResult:
    """Project onto every piece, sort, commit the first certified candidate."""
    knn = QueryEngine(dataset, "l2")
    label = knn.classify(x, k)
    target = 1 - label
    candidates = []
    for piece in decision_region_polyhedra(dataset, k, target):
        closure = piece.closure()
        interior = feasible_point_strict(
            A_strict=closure.A, b_strict=closure.b, n=piece.dimension
        )
        if piece.has_strict and interior is None:
            continue
        try:
            y, sq = project_onto_polyhedron(x, closure.A, closure.b)
        except InfeasibleError:
            continue
        candidates.append((float(sq), y, interior))
    candidates.sort(key=lambda item: item[0])
    for sq, y, interior in candidates:
        if knn.classify(y, k) != target:
            if interior is None:
                continue
            y = l2._nudge_toward_interior(knn, k, target, y, interior)
            if y is None:
                continue
        return CounterfactualResult(
            y=y,
            distance=float(np.linalg.norm(y - x)),
            infimum=float(np.sqrt(sq)),
            label_from=label,
            method="l2-qp",
        )
    return CounterfactualResult(
        y=None, distance=np.inf, infimum=np.inf, label_from=label, method="l2-qp"
    )


def _assert_bit_identical(got: CounterfactualResult, want: CounterfactualResult) -> None:
    assert got.found == want.found
    assert got.label_from == want.label_from
    assert got.distance == want.distance
    assert got.infimum == want.infimum
    if want.found:
        assert got.y.tobytes() == want.y.tobytes()


def _instance(seed: int, k: int, kind: str):
    """A seeded instance with 4-6 points per class.

    ``grid`` and ``halfgrid`` coordinates make many points equidistant,
    so ties (and projections the classifier rejects) occur at every
    level; ``halfgrid`` queries sit on bisectors of the {0,1} cube.
    """
    rng = np.random.default_rng([seed, k])
    n = int(rng.integers(2, 4))
    m_pos, m_neg = (int(v) for v in rng.integers(4, 7, size=2))
    if kind == "normal":
        return rng.normal(size=(m_pos, n)), rng.normal(size=(m_neg, n)), rng.normal(size=n)
    top = 3 if kind == "grid" else 2
    pos = rng.integers(0, top, size=(m_pos, n)).astype(float)
    neg = rng.integers(0, top, size=(m_neg, n)).astype(float)
    x = rng.integers(0, 3, size=n) * (1.0 if kind == "grid" else 0.5)
    return pos, neg, x


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("kind", ["normal", "grid", "halfgrid"])
@pytest.mark.parametrize("seed", range(8))
def test_best_first_matches_exhaustive(seed, kind, k):
    pos, neg, x = _instance(seed, k, kind)
    data = Dataset(pos, neg)
    _assert_bit_identical(l2.closest_counterfactual_l2(data, k, x), exhaustive_l2(data, k, x))


@pytest.mark.parametrize("k", [1, 3])
def test_both_target_labels(k):
    # The same data queried from each side: closed (label-1) and open
    # (label-0) target pieces.
    rng = np.random.default_rng(31)
    data = Dataset(rng.normal(size=(6, 2)), rng.normal(size=(6, 2)) + 0.5)
    engine = QueryEngine(data, "l2")
    queries = rng.normal(size=(40, 2)) * 2.0
    labels = engine.classify_batch(queries, k)
    picked = [queries[labels == 1][:2], queries[labels == 0][:2]]
    assert all(len(side) == 2 for side in picked)
    for x in np.vstack(picked):
        want = exhaustive_l2(data, k, x)
        _assert_bit_identical(l2.closest_counterfactual_l2(data, k, x), want)


@pytest.mark.parametrize("k", [1, 3])
def test_point_in_both_classes_and_multiplicities(k):
    # A point in both classes yields a zero bisector normal (the strict
    # piece against it is empty, the closed one unconstrained by it);
    # multiplicities expand into repeated witnesses.
    rng = np.random.default_rng(47)
    shared = np.array([[1.0, 1.0]])
    pos = np.vstack([shared, rng.integers(0, 3, size=(3, 2))]).astype(float)
    neg = np.vstack([shared, rng.integers(0, 3, size=(3, 2))]).astype(float)
    data = Dataset(
        pos, neg, positive_multiplicities=[2, 1, 1, 3], negative_multiplicities=[1, 2, 1, 1]
    )
    for x in [shared[0], np.array([0.0, 2.0]), np.array([2.5, 0.5]), rng.normal(size=2)]:
        want = exhaustive_l2(data, k, x)
        _assert_bit_identical(l2.closest_counterfactual_l2(data, k, x), want)


def test_visits_fewer_pieces_than_it_has(monkeypatch):
    rng = np.random.default_rng(5)
    data = Dataset(rng.normal(size=(30, 6)), rng.normal(size=(30, 6)))
    x = rng.normal(size=6)
    target = 1 - QueryEngine(data, "l2").classify(x, 1)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return project_onto_polyhedron(*args, **kwargs)

    monkeypatch.setattr(l2, "project_onto_polyhedron", counting)
    got = closest_counterfactual(data, 1, "l2", x)
    assert got.found
    assert 1 <= len(calls) < count_region_polyhedra(data, 1, target)
    monkeypatch.undo()
    _assert_bit_identical(got, exhaustive_l2(data, 1, x))


def test_time_limit_zero_still_raises():
    rng = np.random.default_rng(6)
    data = Dataset(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)))
    with pytest.raises(ResourceLimitError):
        closest_counterfactual(data, 1, "l2", rng.normal(size=3), time_limit=0)
