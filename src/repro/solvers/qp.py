"""Convex quadratic programming: Euclidean projection onto a polyhedron.

Theorem 2 reduces ``k-Counterfactual Explanation(R, D_2)`` to instances
of

    minimize   || x - y ||_2^2
    subject to A y <= b,

a strictly convex QP solvable in polynomial time (Kozlov, Tarasov,
Khachiyan 1980).  The engine here is a primal active-set method, which
is exact up to linear-algebra precision for this projection form:

* the equality-constrained subproblems have the closed form
  ``y = x + A_W^T lam`` with ``(A_W A_W^T) lam = b_W - A_W x``;
* at a candidate optimum, KKT multipliers come from a least-squares
  solve, and a negative multiplier identifies the constraint to drop;
* otherwise, a ratio test finds the blocking constraint to add.

Every solution is verified against the KKT conditions before being
returned, so a numerical failure surfaces as an exception rather than a
silently wrong explanation.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import InfeasibleError, ResourceLimitError, SolverError
from .lp import solve_lp

_TOL = 1e-9

#: Primal feasibility every returned projection is verified to:
#: ``A y <= b + FEASIBILITY_TOL`` with the rows of ``A`` scaled to unit norm.
FEASIBILITY_TOL = 1e-6


def _restricted_projection(x: np.ndarray, A_w: np.ndarray, b_w: np.ndarray) -> np.ndarray:
    """Projection of x onto the affine set ``A_w y = b_w`` (least-norm step)."""
    if A_w.shape[0] == 0:
        return x.copy()
    gram = A_w @ A_w.T
    rhs = b_w - A_w @ x
    lam, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    return x + A_w.T @ lam


def _kkt_multipliers(x: np.ndarray, y: np.ndarray, A_w: np.ndarray) -> np.ndarray:
    """Least-squares multipliers for stationarity ``(y - x) + A_w^T mu = 0``."""
    if A_w.shape[0] == 0:
        return np.empty(0)
    mu, *_ = np.linalg.lstsq(A_w.T, x - y, rcond=None)
    return mu


def _feasible_start(x: np.ndarray, A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A feasible point of ``A y <= b``, or raise InfeasibleError.

    When x itself is feasible we start there (the common case for the
    counterfactual workload: x sits in the region of its own label and
    the projection target region is nearby).
    """
    if np.all(A @ x <= b + _TOL):
        return x.copy()
    point = solve_lp(
        np.zeros(A.shape[1]),
        A_ub=A,
        b_ub=b,
        raise_on_infeasible=False,
    )
    if not point.optimal:
        raise InfeasibleError("the polyhedron A y <= b is empty")
    return point.x


def project_onto_polyhedron(
    x,
    A,
    b,
    *,
    max_iter: int = 500,
    tol: float = _TOL,
) -> tuple[np.ndarray, float]:
    """Return ``(y*, ||x - y*||^2)`` with y* the closest point of ``{A y <= b}``.

    Raises :class:`InfeasibleError` when the polyhedron is empty and
    :class:`ResourceLimitError` if the active-set loop does not converge
    within *max_iter* iterations (which on well-posed inputs indicates
    degenerate cycling; raise the limit or perturb the data).
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    A = np.asarray(A, dtype=np.float64).reshape(-1, x.shape[0])
    b = np.asarray(b, dtype=np.float64).ravel()
    if A.shape[0] == 0:
        return x.copy(), 0.0
    if A.shape[0] != b.shape[0]:
        raise ValueError(f"A has {A.shape[0]} rows but b has {b.shape[0]} entries")

    # Scale rows once so tolerances mean the same thing for every constraint.
    norms = np.linalg.norm(A, axis=1)
    degenerate = norms < tol
    if np.any(degenerate):
        if np.any(b[degenerate] < -tol):
            raise InfeasibleError("a zero row of A has negative right-hand side")
        A, b, norms = A[~degenerate], b[~degenerate], norms[~degenerate]
        if A.shape[0] == 0:
            return x.copy(), 0.0
    A = A / norms[:, None]
    b = b / norms

    y = _feasible_start(x, A, b)
    active: list[int] = [int(i) for i in np.flatnonzero(np.abs(A @ y - b) <= tol)]

    for _ in range(max_iter):
        A_w = A[active]
        b_w = b[active]
        target = _restricted_projection(x, A_w, b_w)
        step = target - y
        if np.linalg.norm(step) <= tol:
            mu = _kkt_multipliers(x, y, A_w)
            if mu.size == 0 or np.all(mu >= -1e-7):
                break
            # Drop the most violated multiplier and resume.
            drop = int(np.argmin(mu))
            active.pop(drop)
            continue
        # Ratio test against inactive constraints.
        inactive = [i for i in range(A.shape[0]) if i not in active]
        alpha = 1.0
        blocking = None
        if inactive:
            A_i = A[inactive]
            direction = A_i @ step
            slackness = b[inactive] - A_i @ y
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(direction > tol, slackness / direction, np.inf)
            ratios = np.maximum(ratios, 0.0)
            j = int(np.argmin(ratios))
            if ratios[j] < alpha:
                alpha = float(ratios[j])
                blocking = inactive[j]
        y = y + alpha * step
        if blocking is not None:
            active.append(blocking)
    else:
        raise ResourceLimitError(
            f"active-set projection did not converge in {max_iter} iterations"
        )

    _verify_kkt(x, y, A, b, tol=FEASIBILITY_TOL)
    return y, float(np.dot(x - y, x - y))


def _verify_kkt(x: np.ndarray, y: np.ndarray, A: np.ndarray, b: np.ndarray, *, tol: float):
    """Assert primal feasibility and stationarity of the returned point."""
    residual = A @ y - b
    if np.any(residual > tol):
        raise SolverError(
            f"projection result infeasible (max violation {residual.max():.2e})"
        )
    active = np.abs(residual) <= 1e-6
    A_w = A[active]
    if A_w.shape[0] == 0:
        if np.linalg.norm(y - x) > tol:
            raise SolverError("interior projection result is not x itself")
        return
    # Stationarity means x - y lies in the cone spanned by the active rows:
    # a least-squares fit with *nonnegative* multipliers must be exact.
    # (A plain lstsq + clip is wrong under degeneracy — the minimum-norm
    # solution can go negative even when a nonnegative one exists.)
    from scipy.optimize import nnls

    mu, gradient_gap = nnls(A_w.T, x - y)
    scale = 1.0 + np.linalg.norm(x - y)
    if gradient_gap > 1e-5 * scale:
        raise SolverError(
            f"projection result fails KKT stationarity (gap {gradient_gap:.2e})"
        )
