"""Linear-programming façade and the strict-inequality max-epsilon trick.

scipy's HiGHS backend does the pivoting; this module owns the modelling
conventions (free variables by default — numerical LP layers commonly
default to ``x >= 0``, which would silently corrupt the geometry here)
and the reduction from systems with *strict* inequalities to plain LP
described in the proof of Proposition 3:

    a system {A x <= b, C x < d} is feasible iff the LP
    ``max eps  s.t.  A x <= b,  C x + eps <= d,  0 <= eps <= 1``
    has optimum ``eps > 0``.

The upper bound ``eps <= 1`` keeps the LP bounded without affecting
feasibility (any positive epsilon can be scaled down).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from ..exceptions import InfeasibleError, SolverError, UnboundedError

_STATUS = {0: "optimal", 1: "iteration limit", 2: "infeasible", 3: "unbounded", 4: "numerical"}


@dataclass(frozen=True)
class LPResult:
    """Outcome of an LP solve: optimal point, value, and status string."""

    x: np.ndarray
    value: float
    status: str

    @property
    def optimal(self) -> bool:
        """True when the solver reports an optimal solution."""
        return self.status == "optimal"


def _empty(n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    return np.empty((0, n_cols)), np.empty(0)


def solve_lp(
    c,
    A_ub=None,
    b_ub=None,
    A_eq=None,
    b_eq=None,
    *,
    bounds=(None, None),
    raise_on_infeasible: bool = True,
) -> LPResult:
    """Minimize ``c . x`` subject to ``A_ub x <= b_ub`` and ``A_eq x = b_eq``.

    Variables are free unless *bounds* says otherwise.  Raises
    :class:`InfeasibleError` / :class:`UnboundedError` on those outcomes
    unless *raise_on_infeasible* is False (then a non-"optimal" status is
    returned for the caller to inspect).
    """
    c = np.asarray(c, dtype=np.float64)
    problem = dict(
        A_ub=A_ub if A_ub is not None and len(A_ub) else None,
        b_ub=b_ub if b_ub is not None and len(b_ub) else None,
        A_eq=A_eq if A_eq is not None and len(A_eq) else None,
        b_eq=b_eq if b_eq is not None and len(b_eq) else None,
        bounds=bounds,
    )
    res = linprog(c, **problem, method="highs")
    if res.status == 4:
        # HiGHS's simplex can stall on a feasible but badly conditioned
        # LP ("model_status is Unknown"); its interior-point solver is
        # the second opinion before giving up.
        res = linprog(c, **problem, method="highs-ipm")
    status = _STATUS.get(res.status, "unknown")
    if status == "infeasible":
        if raise_on_infeasible:
            raise InfeasibleError("LP is infeasible")
        return LPResult(x=np.full(c.shape, np.nan), value=np.nan, status=status)
    if status == "unbounded":
        if raise_on_infeasible:
            raise UnboundedError("LP is unbounded")
        return LPResult(x=np.full(c.shape, np.nan), value=-np.inf, status=status)
    if not res.success:  # pragma: no cover - numerical trouble
        raise SolverError(f"LP solver failed with status {status!r}: {res.message}")
    return LPResult(x=np.asarray(res.x), value=float(res.fun), status="optimal")


def feasible_point_strict(
    A_ub=None,
    b_ub=None,
    A_strict=None,
    b_strict=None,
    A_eq=None,
    b_eq=None,
    *,
    n: int | None = None,
    eps_floor: float = 1e-9,
) -> np.ndarray | None:
    """A point satisfying ``A_ub x <= b_ub``, ``A_strict x < b_strict``, ``A_eq x = b_eq``.

    Implements the Proposition-3 reduction: maximize the joint slack
    ``eps`` of the strict constraints; the system is feasible iff the
    optimum exceeds ``eps_floor``.  Returns the point or None.
    """
    mats = [m for m in (A_ub, A_strict, A_eq) if m is not None and len(m)]
    if n is None:
        if not mats:
            raise ValueError("cannot infer the dimension of an unconstrained system")
        n = np.asarray(mats[0]).shape[1]

    def norm(A, b):
        if A is None or len(A) == 0:
            return _empty(n)
        return (
            np.asarray(A, dtype=float).reshape(-1, n),
            np.asarray(b, dtype=float).ravel(),
        )

    A_ub, b_ub = norm(A_ub, b_ub)
    A_st, b_st = norm(A_strict, b_strict)
    A_eq_m, b_eq_v = norm(A_eq, b_eq)
    A_eq = A_eq_m if A_eq_m.shape[0] else None
    b_eq = b_eq_v if A_eq_m.shape[0] else None

    # Augmented variable vector (x, eps).
    blocks = []
    rhs = []
    if A_ub.shape[0]:
        blocks.append(np.hstack([A_ub, np.zeros((A_ub.shape[0], 1))]))
        rhs.append(b_ub)
    if A_st.shape[0]:
        blocks.append(np.hstack([A_st, np.ones((A_st.shape[0], 1))]))
        rhs.append(b_st)
    A_aug = np.vstack(blocks) if blocks else None
    b_aug = np.concatenate(rhs) if rhs else None
    A_eq_aug = np.hstack([A_eq, np.zeros((A_eq.shape[0], 1))]) if A_eq is not None else None

    c = np.zeros(n + 1)
    c[-1] = -1.0  # maximize eps
    bounds = [(None, None)] * n + [(0.0, 1.0)]
    result = solve_lp(
        c,
        A_aug,
        b_aug,
        A_eq_aug,
        b_eq,
        bounds=bounds,
        raise_on_infeasible=False,
    )
    if not result.optimal:
        return None
    eps = result.x[-1]
    if A_st.shape[0] and eps <= eps_floor:
        return None
    return result.x[:n]
