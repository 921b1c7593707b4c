"""Tests for the LP façade and the active-set QP projection solver."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from repro.exceptions import InfeasibleError, UnboundedError
from repro.geometry import decision_region_polyhedra
from repro.knn import Dataset
from repro.solvers.lp import feasible_point_strict, solve_lp
from repro.solvers.qp import project_onto_polyhedron


class TestSolveLP:
    def test_simple_min(self):
        # min x0 + x1 s.t. x0 >= 1, x1 >= 2  -> 3
        res = solve_lp([1.0, 1.0], A_ub=[[-1.0, 0.0], [0.0, -1.0]], b_ub=[-1.0, -2.0])
        assert res.optimal
        assert res.value == pytest.approx(3.0)

    def test_variables_are_free_by_default(self):
        # min x s.t. x <= -5 must reach -5 (not be clipped at 0).
        res = solve_lp([-1.0], A_ub=[[1.0]], b_ub=[-5.0])
        assert res.value == pytest.approx(5.0)
        assert res.x[0] == pytest.approx(-5.0)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            solve_lp([1.0], A_ub=[[1.0], [-1.0]], b_ub=[0.0, -1.0])

    def test_infeasible_soft(self):
        res = solve_lp(
            [1.0], A_ub=[[1.0], [-1.0]], b_ub=[0.0, -1.0], raise_on_infeasible=False
        )
        assert res.status == "infeasible"

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedError):
            solve_lp([1.0])  # min x over all of R

    def test_equalities(self):
        res = solve_lp([1.0, 0.0], A_eq=[[1.0, 1.0]], b_eq=[4.0], bounds=(0, None))
        assert res.value == pytest.approx(0.0)


class TestStrictFeasibility:
    def test_open_interval(self):
        # 0 < x < 1
        point = feasible_point_strict(
            A_strict=[[1.0], [-1.0]], b_strict=[1.0, 0.0]
        )
        assert point is not None
        assert 0.0 < point[0] < 1.0

    def test_single_point_not_strictly_feasible(self):
        # x <= 0 and x < 0 is feasible; x >= 0 and x < 0 is not.
        assert (
            feasible_point_strict(
                A_ub=[[-1.0]], b_ub=[0.0], A_strict=[[1.0]], b_strict=[0.0]
            )
            is None
        )
        point = feasible_point_strict(A_ub=[[1.0]], b_ub=[0.0], A_strict=[[1.0]], b_strict=[0.0])
        assert point is not None and point[0] < 0

    def test_with_equalities(self):
        point = feasible_point_strict(
            A_strict=[[1.0, 0.0]],
            b_strict=[1.0],
            A_eq=[[0.0, 1.0]],
            b_eq=[7.0],
        )
        assert point is not None
        assert point[0] < 1.0
        assert point[1] == pytest.approx(7.0)

    def test_no_strict_part_reduces_to_lp(self):
        point = feasible_point_strict(A_ub=[[1.0]], b_ub=[5.0])
        assert point is not None and point[0] <= 5.0 + 1e-9

    def test_infeasible_weak_part(self):
        assert feasible_point_strict(A_ub=[[1.0], [-1.0]], b_ub=[0.0, -1.0]) is None

    def test_numerical_status_retries_with_interior_point(self):
        # HiGHS's default method ends this piece's max-epsilon LP with
        # "model_status is Unknown" (status 4) although the strict system
        # is feasible; the interior-point retry solves it.
        rng = np.random.default_rng(12)
        P, N = rng.normal(size=(12, 4)), rng.normal(size=(12, 4))
        pieces = decision_region_polyhedra(Dataset(P, N), 3, 0)
        closure = next(itertools.islice(pieces, 190, None)).closure()
        point = feasible_point_strict(A_strict=closure.A, b_strict=closure.b)
        assert point is not None
        assert np.all(closure.A @ point < closure.b)


def scipy_reference_projection(x, A, b):
    """Reference QP via scipy's SLSQP on the same problem."""
    x = np.asarray(x, float)
    res = minimize(
        lambda y: np.sum((y - x) ** 2),
        x0=np.zeros_like(x),
        jac=lambda y: 2 * (y - x),
        constraints=[{"type": "ineq", "fun": lambda y, A=A, b=b: b - A @ y}],
        method="SLSQP",
        options={"maxiter": 300, "ftol": 1e-12},
    )
    return res.x, float(np.sum((res.x - x) ** 2))


class TestProjection:
    def test_interior_point_is_fixed(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([10.0, 10.0])
        y, d2 = project_onto_polyhedron([1.0, 1.0], A, b)
        np.testing.assert_allclose(y, [1.0, 1.0])
        assert d2 == pytest.approx(0.0)

    def test_single_halfspace(self):
        # Project (2, 0) onto x0 <= 1: lands on (1, 0), distance^2 = 1.
        y, d2 = project_onto_polyhedron([2.0, 0.0], [[1.0, 0.0]], [1.0])
        np.testing.assert_allclose(y, [1.0, 0.0], atol=1e-8)
        assert d2 == pytest.approx(1.0)

    def test_corner_projection(self):
        # Box x <= 0, y <= 0; project (3, 4) -> origin.
        y, d2 = project_onto_polyhedron([3.0, 4.0], [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        np.testing.assert_allclose(y, [0.0, 0.0], atol=1e-8)
        assert d2 == pytest.approx(25.0)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            project_onto_polyhedron([0.0], [[1.0], [-1.0]], [0.0, -1.0])

    def test_no_constraints(self):
        y, d2 = project_onto_polyhedron([1.0, 2.0], np.empty((0, 2)), np.empty(0))
        np.testing.assert_allclose(y, [1.0, 2.0])
        assert d2 == 0.0

    def test_zero_rows_are_screened(self):
        y, d2 = project_onto_polyhedron([1.0], [[0.0]], [1.0])
        assert d2 == 0.0
        with pytest.raises(InfeasibleError):
            project_onto_polyhedron([1.0], [[0.0]], [-1.0])

    @given(
        seed=st.integers(0, 50_000),
        n=st.integers(1, 5),
        m=st.integers(1, 10),
    )
    @settings(max_examples=50)
    def test_matches_scipy_on_random_feasible_problems(self, seed, n, m):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(m, n))
        interior = rng.normal(size=n)
        b = A @ interior + rng.uniform(0.1, 2.0, size=m)  # interior is feasible
        x = rng.normal(size=n) * 3
        y, d2 = project_onto_polyhedron(x, A, b)
        assert np.all(A @ y <= b + 1e-7)
        _, d2_ref = scipy_reference_projection(x, A, b)
        # Ours must be at least as good as the reference (both near-exact).
        assert d2 <= d2_ref + 1e-6

    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=30)
    def test_projection_is_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(6, 3))
        b = A @ rng.normal(size=3) + rng.uniform(0.1, 1.0, size=6)
        x = rng.normal(size=3) * 4
        y, _ = project_onto_polyhedron(x, A, b)
        y2, d2 = project_onto_polyhedron(y, A, b)
        assert d2 == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(y2, y, atol=1e-6)
