"""``k-Check Sufficient Reason``: is ``X`` a sufficient reason for ``x``?

Implements every polynomial-time checker in the paper plus an
exhaustive fallback:

* ``l2``, any fixed k — Proposition 3: intersect the affine subspace
  ``U(X, x)`` with each Proposition-1 polyhedron of the opposite label;
  ``X`` is sufficient iff every intersection is empty (an LP each, with
  the strict-system reduction for label-0 pieces).
* ``l1``, k = 1 — Proposition 4: only the ``|S_opp|`` candidate points
  obtained by copying the free coordinates from an opposite-class point
  need to be tested, by the triangle-inequality maximization argument.
* ``hamming``, k = 1 — Proposition 6: same candidate-set idea with the
  projections ``y_X``.
* ``brute`` — exhaustive enumeration of the free coordinates (discrete
  setting only); exponential, used as the oracle for the coNP-hard
  cells (k >= 3 under l1/Hamming) and in tests.

Each checker returns a :class:`CheckResult` carrying a *counterexample*
(an input that agrees with x on X but is classified differently) when
the answer is negative, so callers can independently verify the verdict.
:class:`SufficiencyCheck` classifies x once and then decides any number
of subsets for it; :func:`check_sufficient_reason` is its one-subset
case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import as_index_set, as_vector, check_odd_k
from ..exceptions import UnsupportedSettingError, ValidationError
from ..geometry import AffineSubspace, decision_region_polyhedra
from ..knn import Dataset, QueryEngine
from ..knn.engine import as_engine
from ..metrics import get_metric

#: how many hypercube candidates the brute checker classifies per batch
_BRUTE_BATCH = 8192


@dataclass(frozen=True)
class CheckResult:
    """Verdict of a sufficient-reason check.

    ``counterexample`` is None when ``is_sufficient`` is True; otherwise
    it is a vector that agrees with the query on ``X`` yet gets the
    opposite classification.
    """

    is_sufficient: bool
    counterexample: np.ndarray | None = None

    def __bool__(self) -> bool:
        return self.is_sufficient


def check_sufficient_reason(
    dataset: Dataset,
    k: int,
    metric,
    x,
    X,
    *,
    method: str = "auto",
    engine: QueryEngine | None = None,
) -> CheckResult:
    """Decide whether *X* is a sufficient reason for *x* w.r.t. ``f^k``.

    ``method`` selects the algorithm: ``"auto"`` picks the paper's
    polynomial algorithm for the (metric, k) cell and raises
    :class:`UnsupportedSettingError` on intractable cells; ``"l2"``,
    ``"l1-k1"``, ``"hamming-k1"`` and ``"brute"`` force a specific one.

    ``engine`` optionally shares a :class:`~repro.knn.QueryEngine` over
    the same (dataset, metric) pair.  This is the one-subset case of
    :class:`SufficiencyCheck`; callers that decide many subsets for one
    query build that once instead, so ``f(x)`` is classified once.
    """
    return SufficiencyCheck(dataset, k, metric, x, method=method, engine=engine)(X)


class SufficiencyCheck:
    """Check-SR for one fixed query, called once per subset ``X``.

    Construction validates the query, resolves ``method`` for the
    (metric, k) cell exactly as :func:`check_sufficient_reason` does,
    and works out ``f(x)`` (:attr:`label`) and the opposite class's rows
    (:attr:`opposite`) once; each call then decides one component set
    against them.  The Proposition-2 greedy and the brute Minimum-SR
    sweep decide every subset of one query this way.
    """

    def __init__(
        self,
        dataset: Dataset,
        k: int,
        metric,
        x,
        *,
        method: str = "auto",
        engine: QueryEngine | None = None,
    ):
        self.k = check_odd_k(k)
        metric = get_metric(metric)
        self.x = as_vector(x, name="x")
        if self.x.shape[0] != dataset.dimension:
            raise ValidationError(
                f"x has dimension {self.x.shape[0]}, dataset has {dataset.dimension}"
            )
        self.dataset = dataset
        self.engine = as_engine(dataset, metric, engine)
        self.method = _resolve_method(metric, self.k, method)
        self.label = self.engine.classify(self.x, self.k)
        self.opposite = opposite_rows(dataset, self.label)

    def __call__(self, X) -> CheckResult:
        X = as_index_set(X, dimension=self.dataset.dimension, name="X")
        if self.method == "l2":
            return _check_l2(self.dataset, self.k, self.x, X, self.label)
        if self.method == "brute":
            return _check_brute_discrete(self.engine, self.k, self.x, X, self.label)
        return _check_projection_candidates(
            self.engine, self.x, X, self.label, self.opposite
        )


def _resolve_method(metric, k: int, method: str) -> str:
    """The Check-SR algorithm for *method* in the (metric, k) cell."""
    if method == "auto":
        if metric.name == "l2":
            return "l2"
        if metric.name == "l1" and k == 1:
            return "l1-k1"
        if metric.name == "hamming" and k == 1:
            return "hamming-k1"
        if metric.is_discrete:
            return "brute"  # coNP-hard cell: exact exponential fallback
        raise UnsupportedSettingError(
            f"Check-SR({metric.name}, k={k}) has no polynomial algorithm "
            "(Theorem 5); no exact fallback exists for continuous metrics"
        )
    if method == "l2":
        if metric.name != "l2":
            raise ValidationError("method 'l2' requires the l2 metric")
    elif method == "l1-k1":
        if metric.name != "l1" or k != 1:
            raise ValidationError("method 'l1-k1' requires the l1 metric and k=1")
    elif method == "hamming-k1":
        if metric.name != "hamming" or k != 1:
            raise ValidationError("method 'hamming-k1' requires Hamming and k=1")
    elif method == "brute":
        if not metric.is_discrete:
            raise UnsupportedSettingError(
                "brute-force Check-SR only enumerates the Boolean hypercube"
            )
    else:
        raise ValidationError(f"unknown method {method!r}")
    return method


# ---------------------------------------------------------------------------
# Proposition 3: l2, any fixed k
# ---------------------------------------------------------------------------


def _check_l2(
    dataset: Dataset, k: int, x: np.ndarray, X: frozenset[int], label: int
) -> CheckResult:
    from ..geometry.polyhedron import Polyhedron
    from ..geometry.halfspace import Halfspace

    subspace = AffineSubspace(x, X)
    A_eq, b_eq = subspace.equality_system()
    eq = (A_eq, b_eq) if A_eq.shape[0] else (None, None)
    for piece in decision_region_polyhedra(dataset, k, 1 - label):
        # Prefer a counterexample strictly inside the piece: boundary
        # points are mathematically valid for closed (label-1) pieces
        # but sit on exact classification ties, where float arithmetic
        # can dispute them.  Fall back to the boundary point when the
        # piece has an empty interior within the subspace.
        if not piece.has_strict:
            interior = Polyhedron(
                piece.dimension,
                [Halfspace(w, b, strict=True) for w, b in zip(piece.A, piece.b)],
            ).find_point(*eq)
            if interior is not None:
                return CheckResult(False, counterexample=interior)
        point = piece.find_point(*eq)
        if point is not None:
            return CheckResult(False, counterexample=point)
    return CheckResult(True)


# ---------------------------------------------------------------------------
# Propositions 4 and 6: candidate projections, k = 1
# ---------------------------------------------------------------------------


def opposite_rows(dataset: Dataset, label: int) -> np.ndarray:
    """The rows of the class opposite *label*, multiplicities expanded.

    At k = 1 they are the sources of the projection candidates: one
    candidate per row for every subset a caller checks.
    """
    expanded = dataset.expanded()
    return expanded.negatives if label == 1 else expanded.positives


def classify_projections(
    engine: QueryEngine, x: np.ndarray, sources: np.ndarray, subsets
) -> tuple[np.ndarray, np.ndarray]:
    """Build and classify the projection candidates of a block of subsets.

    *subsets* are same-size index sequences; the candidate for subset
    X and source o agrees with x on X and with o elsewhere.  Returns
    ``(candidates, labels)`` shaped ``(len(subsets), len(sources), n)``
    and ``(len(subsets), len(sources))``, from one ``classify_batch``.
    """
    b, (m, n) = len(subsets), sources.shape
    keep = np.zeros((b, n), dtype=bool)
    keep[np.arange(b)[:, None], np.asarray(subsets, dtype=np.int64).reshape(b, -1)] = True
    candidates = np.where(keep[:, None, :], x, sources)
    labels = engine.classify_batch(candidates.reshape(b * m, n), 1).reshape(b, m)
    return candidates, labels


def _check_projection_candidates(
    engine: QueryEngine, x: np.ndarray, X: frozenset[int], label: int, opposite: np.ndarray
) -> CheckResult:
    """Shared shape of the l1 and Hamming k=1 checkers.

    If ``f(x) = label``, a counterexample exists iff one of the
    projections ``y_X`` (x on X, an *opposite* row elsewhere) flips the
    classifier — the triangle-inequality argument of Proposition 4 (l1)
    and the flipping argument of Proposition 6 (Hamming).  This is the
    one-subset case of :func:`classify_projections`.
    """
    if opposite.shape[0] == 0:
        return CheckResult(True)
    candidates, labels = classify_projections(engine, x, opposite, [sorted(X)])
    flipped = np.flatnonzero(labels[0] != label)
    if flipped.size:
        return CheckResult(False, counterexample=candidates[0, flipped[0]])
    return CheckResult(True)


# ---------------------------------------------------------------------------
# Exhaustive fallback over {0,1}^n
# ---------------------------------------------------------------------------


def _check_brute_discrete(
    engine: QueryEngine, k: int, x: np.ndarray, X: frozenset[int], label: int
) -> CheckResult:
    """Exhaustive check over the free coordinates, in batched blocks.

    Candidates are enumerated in the same lexicographic order as
    ``itertools.product((0, 1), ...)`` over the free coordinates (first
    free coordinate varies slowest), so the returned counterexample is
    the same one the sequential scan would find first.
    """
    free = np.array([i for i in range(x.size) if i not in X], dtype=np.int64)
    if free.size > 22:
        raise ValidationError(
            f"brute-force Check-SR would enumerate 2^{free.size} points; "
            "restrict X or use a polynomial setting"
        )
    if free.size == 0:
        return CheckResult(True)
    total = 1 << free.size
    shifts = free.size - 1 - np.arange(free.size)
    for start in range(0, total, _BRUTE_BATCH):
        counters = np.arange(start, min(start + _BRUTE_BATCH, total), dtype=np.int64)
        candidates = np.broadcast_to(x, (counters.size, x.size)).copy()
        candidates[:, free] = ((counters[:, None] >> shifts) & 1).astype(np.float64)
        flipped = np.flatnonzero(engine.classify_batch(candidates, k) != label)
        if flipped.size:
            return CheckResult(False, counterexample=candidates[flipped[0]])
    return CheckResult(True)
