"""The paper's SAT encoding for closest Hamming counterfactuals (§9.2).

Boolean variables ``y_1..y_n`` describe the counterfactual; a selector
variable ``c_t`` per target-class point ``t`` asserts that ``t`` will be
(weakly/strictly) closer to ``y`` than every point of the other class.
For a pair ``(t, r)`` with difference set ``Delta = {i : t_i != r_i}``,

    d_H(y, t) - d_H(y, r) = |Delta| - 2 * #{i in Delta : y_i = t_i}

so ``d_H(y, t) <= d_H(y, r) - margin`` becomes the cardinality
constraint

    #{i in Delta : y_i = t_i}  >=  ceil((|Delta| + margin) / 2)

guarded by ``c_t`` — for ``margin = 1`` exactly the paper's
``floor(|Delta|/2) + 1`` bound.  The distance bound
``d_H(x, y) <= t`` is one more cardinality constraint, and the closest
counterfactual is found by searching the smallest feasible bound
(binary or linear, Section 9.2's closing remark).

One sweep serves every caller: the flip encoding lives on a solver
entry built once per dataset version and label — leased from a warm
:class:`~repro.solvers.sat.pool.SATSolverPool`, or a throwaway one when
no pool is given — each probed distance bound becomes a guarded
cardinality constraint on that solver, and the bound search activates
one guard per probe through the assumption interface.  A private
rebuild-per-bound reference (a fresh entry per probed bound) is kept
for tests to compare against, and the lex-leader walk over the same
entry yields the canonical witness.
"""

from __future__ import annotations

import math

import numpy as np

from .._budget import check_cancelled, remaining_budget, start_deadline
from .._validation import check_odd_k
from ..exceptions import UnsupportedSettingError
from ..knn import Dataset, QueryEngine
from ..knn.engine import as_engine
from ..solvers.sat import (
    CNFBuilder,
    lex_leader,
    minimize_bound,
    minimize_bound_assumptions,
)
from ..solvers.sat.pool import SATSolverPool, lease_or_build, pool_key
from . import CounterfactualResult


def build_flip_encoding(
    x: np.ndarray, winning: np.ndarray, losing: np.ndarray, margin: int
) -> tuple[CNFBuilder, list[int]]:
    """CNF + cardinality encoding of ``f(y) = target`` (without the bound).

    Returns the builder and the list of the ``y`` variables.  *winning*
    is the class that must supply the nearest neighbor of ``y``;
    ``margin`` is 1 when that win must be strict (target label 0), else
    0.  A race cancel is checked once per winning point.
    """
    n = x.shape[0]
    builder = CNFBuilder()
    y = builder.new_vars(n, prefix="y")
    selectors = builder.new_vars(winning.shape[0], prefix="c")
    builder.add_clause(selectors)
    for j, t in enumerate(winning):
        check_cancelled("hamming counterfactual SAT encoding")
        for r in losing:
            delta = np.flatnonzero(t != r)
            bound = math.ceil((len(delta) + margin) / 2)
            if bound == 0:
                continue
            lits = [y[i] if t[i] == 1 else -y[i] for i in delta]
            if bound > len(lits):
                builder.add_clause([-selectors[j]])
                break
            builder.add_at_least(lits, bound, guard=selectors[j])
    return builder, y


def _check_k1(k: int) -> None:
    check_odd_k(k)
    if k != 1:
        raise UnsupportedSettingError(
            "the Section 9.2 SAT encoding targets k = 1; use hamming-milp "
            "with the enumerated formulation for k >= 3"
        )


def _cf_facts(dataset: Dataset, x: np.ndarray, query_engine: QueryEngine | None):
    """Classify *x* and group the flip-encoding inputs for its label."""
    knn = as_engine(dataset, "hamming", query_engine)
    label = knn.classify(x, 1)
    expanded = dataset.expanded()
    if label == 1:
        winning, losing, margin = expanded.negatives, expanded.positives, 1
    else:
        winning, losing, margin = expanded.positives, expanded.negatives, 0
    return knn, label, winning, losing, margin


def _build_cf_entry(x: np.ndarray, winning, losing, margin: int):
    """Build a counterfactual entry: flip encoding on a live solver.

    The flip constraints only mention the dataset points (``x`` supplies
    the dimension), so one entry serves every query with this label on
    this dataset version; the per-query distance bounds are added later
    as guarded cardinality constraints.
    """
    builder, y = build_flip_encoding(x, winning, losing, margin)
    return builder.build_solver(), {"y": y, "bounds": {}}


def _ensure_cf_bound(entry, x: np.ndarray, t: int) -> int:
    """Guarded ``d_H(x, y) <= t`` constraint, cached per (query, bound)."""
    key = (x.tobytes(), t)
    guard = entry.state["bounds"].get(key)
    if guard is None:
        y = entry.state["y"]
        n = x.shape[0]
        # d_H(x, y) <= t  ==  at least n - t coordinates agree with x.
        agree = [y[i] if x[i] == 1 else -y[i] for i in range(n)]
        guard = entry.solver.new_var()
        entry.solver.add_cardinality(agree, n - t, guard=guard)
        entry.state["bounds"][key] = guard
    return guard


def _decode(entry, model) -> np.ndarray:
    return np.array([1.0 if model[v] else 0.0 for v in entry.state["y"]])


def _result(x: np.ndarray, label: int, y_val: np.ndarray | None) -> CounterfactualResult:
    """The answer for counterfactual *y_val*, or "none exists" when it is None."""
    distance = np.inf if y_val is None else float(np.abs(y_val - x).sum())
    return CounterfactualResult(
        y=y_val, distance=distance, infimum=distance, label_from=label, method="hamming-sat"
    )


def closest_counterfactual_hamming_sat_pooled(
    dataset: Dataset,
    k: int,
    x: np.ndarray,
    *,
    solver_pool: SATSolverPool | None = None,
    fingerprint: str | None = None,
    strategy: str = "binary",
    query_engine: QueryEngine | None = None,
    time_limit: float | None = None,
) -> CounterfactualResult:
    """The one closest-counterfactual SAT sweep (k = 1).

    The distance bound is swept through guard assumptions on one solver
    entry carrying the flip encoding.  With a *solver_pool* the entry is
    the warm one for this dataset version and label (see
    :func:`~repro.solvers.sat.pool.pool_key`; *fingerprint* names the
    version), so the encoding is built once across queries; without one
    it is a throwaway.  Feasibility verdicts do not depend on warm
    solver state, so the optimal distance is the same either way.
    ``time_limit`` caps the whole search in wall-clock seconds.
    """
    _check_k1(k)
    _, label, winning, losing, margin = _cf_facts(dataset, x, query_engine)
    if winning.shape[0] == 0:
        return _result(x, label, None)
    key = pool_key(dataset, "cf", label, solver_pool, fingerprint)
    with lease_or_build(
        solver_pool, key, lambda: _build_cf_entry(x, winning, losing, margin)
    ) as entry:
        found = minimize_bound_assumptions(
            entry.solver,
            lambda t: _ensure_cf_bound(entry, x, t),
            lambda model: _decode(entry, model),
            1,
            dataset.dimension,
            strategy=strategy,
            time_limit=time_limit,
        )
    return _result(x, label, None if found is None else found[1])


def _closest_counterfactual_sat_rebuild(
    dataset: Dataset,
    k: int,
    x: np.ndarray,
    *,
    strategy: str = "binary",
    query_engine: QueryEngine | None = None,
    time_limit: float | None = None,
) -> CounterfactualResult:
    """Rebuild-per-bound reference of the SAT sweep: a fresh entry per bound.

    Same encoding and bound search as
    :func:`closest_counterfactual_hamming_sat_pooled`, but every probed
    bound builds the flip encoding onto a new throwaway solver, so
    nothing learnt carries over.  Tests compare optimal distances with
    it.
    """
    _check_k1(k)
    _, label, winning, losing, margin = _cf_facts(dataset, x, query_engine)
    if winning.shape[0] == 0:
        return _result(x, label, None)
    deadline = start_deadline(time_limit)

    def feasible(t: int):
        remaining = remaining_budget(deadline, "hamming counterfactual SAT search")
        with lease_or_build(
            None, (), lambda: _build_cf_entry(x, winning, losing, margin)
        ) as entry:
            model = entry.solver.solve([_ensure_cf_bound(entry, x, t)], time_limit=remaining)
        return None if model is None else _decode(entry, model)

    found = minimize_bound(feasible, 1, dataset.dimension, strategy=strategy)
    return _result(x, label, None if found is None else found[1])


def counterfactual_canonical_witness(
    dataset: Dataset,
    x: np.ndarray,
    distance: float,
    *,
    solver_pool: SATSolverPool | None = None,
    fingerprint: str | None = None,
    query_engine: QueryEngine | None = None,
    time_limit: float | None = None,
) -> np.ndarray:
    """The lex-smallest counterfactual at the optimal Hamming *distance*.

    Among all points flipping the classification at distance exactly
    ``t = distance``, this returns the one whose *flip set* (sorted
    component indices) is lexicographically smallest — exactly the
    first point the brute pipeline's ``combinations`` enumeration would
    hit, so every portfolio winner canonicalizes to the same array.
    The extraction is the lex-leader walk
    (:func:`~repro.solvers.sat.lex_leader`): ascending index, prefer
    *flip*, under the ``d_H(x, y) <= t`` guard, where every model sits
    at exactly the optimal distance.
    """
    knn, label, winning, losing, margin = _cf_facts(dataset, x, query_engine)
    t = int(distance)
    key = pool_key(dataset, "cf", label, solver_pool, fingerprint)
    deadline = start_deadline(time_limit)
    with lease_or_build(
        solver_pool, key, lambda: _build_cf_entry(x, winning, losing, margin)
    ) as entry:
        y = entry.state["y"]
        # "Flip i" as a literal: y_i takes the value opposite x_i.
        flips = [-y[i] if x[i] == 1 else y[i] for i in range(x.shape[0])]
        chosen = lex_leader(
            entry.solver,
            flips,
            t,
            assumptions=(_ensure_cf_bound(entry, x, t),),
            time_limit=remaining_budget(deadline, "canonical-witness extraction"),
        )
    y_val = np.array(x, dtype=float)
    y_val[chosen] = 1.0 - y_val[chosen]
    if knn.classify(y_val, 1) == label:  # pragma: no cover - encoding bug guard
        raise AssertionError("canonical counterfactual fails to flip the label")
    return y_val
