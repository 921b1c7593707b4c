"""Closest counterfactuals under the l2 metric (Theorem 2 / Corollary 2).

The target region ``{y : f(y) = 1 - f(x)}`` is a union of polynomially
many Proposition-1 polyhedra.  Projecting ``x`` onto a piece with the
active-set QP gives the closest point of that piece; the closest
counterfactual is the best projection over all pieces.

The pieces are swept best-first.  Every piece is an intersection of
bisector halfspaces, so the distance from ``x`` to the farthest of them
that ``x`` violates is a lower bound on the distance to the whole piece.
One numpy pass over the winning × losing bisectors bounds every piece;
pieces are then built and projected in bound order, and a candidate is
committed once its distance undercuts every unvisited bound by more
than the projection's verified feasibility tolerance (twice over, to
absorb rounding in the bounds).  No skipped piece can then beat it, so
committing candidates in (squared distance, enumeration index) order
returns exactly what projecting every piece and stably sorting would —
usually after the first piece.

Open pieces (flipping into class 0, whose region is open because ties
favor class 1) need the two-step treatment from the paper: the piece is
non-empty iff its *strict* system is feasible (max-epsilon LP); the
infimum of distances is the projection onto the piece's *closure*; and
an actual counterfactual is obtained by sliding the projection slightly
toward a strict interior point (the segment stays in the open piece by
convexity), as in Corollary 2.

Closed pieces (flipping into class 1) contain their boundary
mathematically, but a projection landing *exactly on* the boundary can
fall on the wrong side in floating point.  Every candidate is therefore
verified against the classifier and nudged toward a strict interior
point when needed; candidates that cannot be certified are discarded in
favor of the next-closest piece.
"""

from __future__ import annotations

import heapq

import numpy as np

from .._budget import remaining_budget, start_deadline
from ..exceptions import InfeasibleError
from ..geometry.regions import region_classes, region_piece, witness_sets
from ..knn import Dataset, QueryEngine
from ..knn.engine import as_engine
from ..solvers.lp import feasible_point_strict
from ..solvers.qp import FEASIBILITY_TOL, project_onto_polyhedron
from . import CounterfactualResult

_NUDGE_STEPS = 60

# A projection may overshoot each unit-normalized constraint by
# FEASIBILITY_TOL, so its distance can undercut a piece's bound by that
# much; the second FEASIBILITY_TOL absorbs float rounding in the bounds.
_SKIP_MARGIN = 2 * FEASIBILITY_TOL


def closest_counterfactual_l2(
    dataset: Dataset,
    k: int,
    x: np.ndarray,
    *,
    query_engine: QueryEngine | None = None,
    time_limit: float | None = None,
) -> CounterfactualResult:
    """Closest l2 counterfactual via per-piece convex QP, best piece first.

    ``time_limit`` caps the piece sweep in wall-clock seconds
    (checked before each visited piece, so it is best-effort).
    """
    knn = as_engine(dataset, "l2", query_engine)
    label = knn.classify(x, k)
    target = 1 - label
    deadline = start_deadline(time_limit)
    winning, losing, strict = region_classes(dataset, target)
    winning_sets, losing_sets = witness_sets(winning.shape[0], losing.shape[0], k)
    winning_sets = list(winning_sets)
    bounds = _piece_bounds(x, winning, losing, winning_sets, losing_sets)
    order = np.argsort(bounds, kind="stable")
    candidates: list[tuple[float, int, np.ndarray, np.ndarray | None]] = []
    for rank in range(order.size + 1):
        floor = bounds[order[rank]] if rank < order.size else np.inf
        while candidates and np.sqrt(candidates[0][0]) + _SKIP_MARGIN < floor:
            sq, _, y, interior = heapq.heappop(candidates)
            result = _commit(knn, k, x, label, sq, y, interior)
            if result is not None:
                return result
        if rank == order.size:
            break
        remaining_budget(deadline, "l2 counterfactual piece sweep")
        index = int(order[rank])
        A = winning_sets[index // len(losing_sets)]
        B = losing_sets[index % len(losing_sets)]
        piece = region_piece(winning, losing, A, B, strict=strict)
        closure = piece.closure()
        # A strictly interior point doubles as the non-emptiness witness
        # for open pieces and as the nudge anchor for all pieces.
        interior = feasible_point_strict(
            A_strict=closure.A, b_strict=closure.b, n=piece.dimension
        )
        if piece.has_strict and interior is None:
            continue  # the open piece is empty even if its closure is not
        try:
            y, sq = project_onto_polyhedron(x, closure.A, closure.b)
        except InfeasibleError:
            continue
        heapq.heappush(candidates, (float(sq), index, y, interior))
    return CounterfactualResult(
        y=None, distance=np.inf, infimum=np.inf, label_from=label, method="l2-qp"
    )


def _piece_bounds(
    x: np.ndarray,
    winning: np.ndarray,
    losing: np.ndarray,
    winning_sets: list[tuple[int, ...]],
    losing_sets: list[tuple[int, ...]],
) -> np.ndarray:
    """Lower bound on the distance from *x* to every piece, in piece order.

    ``gap[i, j]`` is how far *x* lies outside the bisector halfspace of
    winning point ``i`` against losing point ``j`` (0 when inside); a
    piece's bound is the largest gap over its ``A × (losing \\ B)``
    constraints.  Near-zero bisector normals (a point in both classes)
    give no bound, as the projection drops those rows.
    """
    if not winning_sets:
        return np.empty(0)
    gap = np.zeros((winning.shape[0], losing.shape[0]))
    for i, a in enumerate(winning):
        normals = losing - a
        norms = np.linalg.norm(normals, axis=1)
        # (c - a) . x - (c - a) . (c + a) / 2, without cancellation near c = a
        excess = normals @ (x - a) - 0.5 * norms**2
        usable = norms > FEASIBILITY_TOL
        gap[i, usable] = np.maximum(excess[usable], 0.0) / norms[usable]
    A = np.asarray(winning_sets)
    # Per losing point, the largest gap over A; a zero column stands in
    # for "no constraint left" when B removes every losing point.
    rows = np.hstack([gap[A].max(axis=1), np.zeros((A.shape[0], 1))])
    ranked = np.argsort(-rows, axis=1)
    blocks = []
    for size in range(len(losing_sets[-1]) + 1):
        sets = [s for s in losing_sets if len(s) == size]
        B = np.array(sets, dtype=np.int64).reshape(len(sets), size)
        # The largest gap outside B is among the size + 1 largest overall.
        top = ranked[:, : size + 1]
        outside = ~(top[:, None, :, None] == B[None, :, None, :]).any(axis=3)
        first = np.take_along_axis(top, outside.argmax(axis=2), axis=1)
        blocks.append(np.take_along_axis(rows, first, axis=1))
    return np.hstack(blocks).ravel()


def _commit(
    knn: QueryEngine,
    k: int,
    x: np.ndarray,
    label: int,
    sq: float,
    y: np.ndarray,
    interior: np.ndarray | None,
) -> CounterfactualResult | None:
    """The counterfactual a piece's projection certifies, or None.

    The projection counts when the classifier confirms it; otherwise it
    is nudged toward the piece's strict interior point, if there is one.
    """
    target = 1 - label
    if knn.classify(y, k) != target:
        if interior is None:
            return None  # boundary-only piece that float arithmetic rejects
        y = _nudge_toward_interior(knn, k, target, y, interior)
        if y is None:
            return None
    return CounterfactualResult(
        y=y,
        distance=float(np.linalg.norm(y - x)),
        infimum=float(np.sqrt(sq)),
        label_from=label,
        method="l2-qp",
    )


def _nudge_toward_interior(
    knn: QueryEngine, k: int, target: int, boundary: np.ndarray, interior: np.ndarray
) -> np.ndarray | None:
    """Slide from the boundary projection toward a strict interior point.

    Every point ``(1 - t) * boundary + t * interior`` with ``t > 0`` lies
    in the piece's relative interior (a segment from a closure point to
    a strict point is strict except possibly at its start), so the
    smallest ``t`` the classifier confirms gives a genuine counterfactual
    at distance as close to the infimum as float arithmetic allows.
    ``t = 1`` is the interior point itself, which always verifies.
    """
    t = 1e-9
    for _ in range(_NUDGE_STEPS):
        candidate = (1.0 - t) * boundary + t * interior
        if knn.classify(candidate, k) == target:
            return candidate
        if t >= 1.0:
            break
        t = min(1.0, t * 4.0)
    return None  # pragma: no cover - t=1 verifies whenever interior does
