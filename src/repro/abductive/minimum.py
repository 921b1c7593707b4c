"""``k-Minimum Sufficient Reason``: smallest sufficient reasons.

The problem is NP-complete in every tractable-check setting (Corollary
6) and Sigma2p-complete for the discrete setting with k >= 3 (Theorem
8), so no polynomial algorithm exists.  Three exact solvers are
provided:

* ``brute`` — enumerate component subsets by increasing size, deciding
  each with the cell's Check-SR algorithm.  Works in every setting where
  a checker exists; exponential in n.
* ``milp`` — discrete setting, k = 1: a MILP over indicator variables
  ``s_i`` ("i is kept"), linearizing the Proposition-6 characterization.
  For every opposite-class projection source ``o``, a witness point of
  x's class must beat every opposite point, with Hamming distances that
  are linear in the ``s_i``.
* ``sat`` — same characterization, encoded with guarded cardinality
  constraints and minimized by bound search (a new pipeline in the
  spirit of the paper's Section 9.2 encoding).  One sweep serves every
  caller: the query is encoded once onto a solver entry — leased from a
  warm :class:`~repro.solvers.sat.pool.SATSolverPool`, or a throwaway
  one when no pool is given — each cardinality bound becomes a guarded
  constraint, and the bound search passes guard literals as
  assumptions to that one CDCL solver.  A private rebuild-per-bound
  reference (a fresh entry per probed bound) is what the
  ``msr_incremental`` benchmark headline times the sweep against.

A fourth ``method="portfolio"`` routes the call through
:mod:`repro.portfolio`: every applicable exact pipeline runs under a
per-method time budget and the Proposition-2 greedy supplies an anytime
answer if all of them run out.

The MILP/SAT encodings exploit that for k = 1 and a projection
candidate ``o_X`` the distances satisfy

    d_H(o_X, z) = sum_i [ s_i * [x_i != z_i] + (1 - s_i) * [o_i != z_i] ]

which is affine in the indicators.  All distances are integers, so the
strict comparisons of the optimistic semantics become ``<= -1`` offsets
and the encodings are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .._budget import remaining_budget, start_deadline
from .._validation import as_vector, check_odd_k
from ..exceptions import UnsupportedSettingError, ValidationError
from ..knn import Dataset, QueryEngine
from ..knn.engine import as_engine
from ..metrics import get_metric
from ..solvers.milp import MILPModel
from ..solvers.sat import (
    SATSolver,
    lex_leader,
    minimize_bound,
    minimize_bound_assumptions,
)
from ..solvers.sat.pool import SATSolverPool, lease_or_build, pool_key
from .check import check_sufficient_reason


@dataclass(frozen=True)
class MinimumSRResult:
    """A minimum-cardinality sufficient reason and solver metadata."""

    X: frozenset[int]
    size: int
    method: str


def minimum_sufficient_reason(
    dataset: Dataset,
    k: int,
    metric,
    x,
    *,
    method: str = "auto",
    max_brute_dimension: int = 18,
    max_enumeration: int | None = None,
    engine: QueryEngine | None = None,
    time_limit: float | None = None,
) -> MinimumSRResult:
    """Compute a sufficient reason of minimum cardinality.

    ``method``: ``"auto"`` (MILP for the discrete k=1 cell, brute force
    elsewhere), ``"milp"``, ``"sat"``, ``"brute"``, or ``"portfolio"``
    (every applicable pipeline raced under per-method budgets via
    :mod:`repro.portfolio`; returns the winner's answer — call the
    portfolio module directly for the provenance record).  ``engine``
    optionally shares a :class:`~repro.knn.QueryEngine` across calls.
    ``time_limit`` (seconds, best-effort) aborts a single-method run
    with :class:`~repro.exceptions.ResourceLimitError`; for
    ``"portfolio"`` it is the per-method budget.  ``max_enumeration``
    caps the brute sweep in classified candidate rows (one per
    opposite-class point per Check-SR; None = no cap) and raises
    :class:`~repro.exceptions.ValidationError` past it, like
    ``max_brute_dimension``.  ``"sat"`` runs the one SAT sweep on a
    throwaway solver (:func:`minimum_sat_hamming_k1_pooled` with no
    pool).
    """
    k = check_odd_k(k)
    metric = get_metric(metric)
    xv = as_vector(x, name="x")
    if xv.shape[0] != dataset.dimension:
        raise ValidationError(
            f"x has dimension {xv.shape[0]}, dataset has {dataset.dimension}"
        )
    engine = as_engine(dataset, metric, engine)
    if method == "portfolio":
        from ..portfolio import portfolio_minimum_sufficient_reason

        return portfolio_minimum_sufficient_reason(
            dataset, k, metric, xv,
            budget=time_limit, engine=engine,
            max_brute_dimension=max_brute_dimension,
        ).answer
    if method == "auto":
        method = "milp" if (metric.name == "hamming" and k == 1) else "brute"
    if method == "brute":
        return _minimum_brute(
            dataset, k, metric, xv, max_brute_dimension, engine,
            time_limit=time_limit, max_enumeration=max_enumeration,
        )
    if method in ("milp", "sat"):
        if metric.name != "hamming" or k != 1:
            raise UnsupportedSettingError(
                f"the {method} Minimum-SR pipeline covers the discrete setting "
                f"with k=1; got metric={metric.name}, k={k}"
            )
        if method == "milp":
            return _minimum_milp_hamming_k1(dataset, xv, engine, time_limit=time_limit)
        return minimum_sat_hamming_k1_pooled(dataset, xv, engine, time_limit=time_limit)
    raise ValidationError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Brute force over subsets, any setting with a checker
# ---------------------------------------------------------------------------


def _minimum_brute(
    dataset: Dataset, k: int, metric, x: np.ndarray, max_dimension: int,
    engine: QueryEngine, *, time_limit: float | None = None,
    max_enumeration: int | None = None,
) -> MinimumSRResult:
    n = dataset.dimension
    if n > max_dimension:
        raise ValidationError(
            f"brute-force Minimum-SR over {n} components would enumerate "
            f"2^{n} subsets; use the milp/sat pipeline or reduce n"
        )
    deadline = start_deadline(time_limit)
    rows = enumerated = 0
    if max_enumeration is not None:
        # Each Check-SR classifies one candidate row per opposite-class point.
        expanded = dataset.expanded()
        opposite = expanded.negatives if engine.classify(x, k) == 1 else expanded.positives
        rows = opposite.shape[0]
    for size in range(n + 1):
        for X in combinations(range(n), size):
            remaining_budget(deadline, "brute-force Minimum-SR")
            enumerated += rows
            if max_enumeration is not None and enumerated > max_enumeration:
                raise ValidationError(
                    f"brute-force Minimum-SR exceeded {max_enumeration} candidate "
                    "rows; use the milp/sat pipeline"
                )
            if check_sufficient_reason(dataset, k, metric, x, X, engine=engine):
                return MinimumSRResult(frozenset(X), size, "brute")
    raise AssertionError("the full component set is always sufficient")  # pragma: no cover


# ---------------------------------------------------------------------------
# Shared characterization for the discrete k = 1 encodings
# ---------------------------------------------------------------------------


def _projection_facts(dataset: Dataset, x: np.ndarray, engine: QueryEngine):
    """Group the data the encodings need.

    Returns ``(label, sources, winners, rivals)`` where *sources* are the
    opposite-class points generating projection candidates (Prop. 6),
    *winners* the class a candidate's nearest neighbor must come from to
    keep x's label, and *rivals* the class that must not win.  For
    ``label == 1`` a winner must be weakly closer than every rival; for
    ``label == 0`` strictly closer (optimistic ties favor 1).
    """
    label = engine.classify(x, 1)
    expanded = dataset.expanded()
    if label == 1:
        sources = expanded.negatives
        winners = expanded.positives
        rivals = expanded.negatives
        margin = 0  # winner needs d_win <= d_rival
    else:
        sources = expanded.positives
        winners = expanded.negatives
        rivals = expanded.positives
        margin = 1  # winner needs d_win <= d_rival - 1 (strict)
    return label, sources, winners, rivals, margin


def _distance_coefficients(x, o, z):
    """Decompose ``d_H(o_X, z)`` as ``constant + sum_i coeff_i * s_i``.

    With ``s_i = 1`` coordinate i of the candidate equals ``x_i``, else
    ``o_i``; so coordinate i contributes ``[o_i != z_i]`` plus
    ``([x_i != z_i] - [o_i != z_i]) * s_i``.
    """
    from_o = (o != z).astype(int)
    from_x = (x != z).astype(int)
    return int(from_o.sum()), from_x - from_o


def _minimum_milp_hamming_k1(
    dataset: Dataset, x: np.ndarray, engine: QueryEngine,
    *, time_limit: float | None = None,
) -> MinimumSRResult:
    label, sources, winners, rivals, margin = _projection_facts(dataset, x, engine)
    n = dataset.dimension
    if winners.shape[0] == 0:
        # One-class data: f is constant, the empty set explains everything.
        return MinimumSRResult(frozenset(), 0, "milp")
    big_m = 2 * n + 2
    model = MILPModel("minimum-sufficient-reason")
    keep = [model.add_binary(f"s[{i}]") for i in range(n)]
    for src_idx, o in enumerate(sources):
        pick = [model.add_binary(f"w[{src_idx},{j}]") for j in range(winners.shape[0])]
        model.add_constraint({p: 1 for p in pick}, ">=", 1)
        for j, w in enumerate(winners):
            const_w, coef_w = _distance_coefficients(x, o, w)
            for r in rivals:
                const_r, coef_r = _distance_coefficients(x, o, r)
                # d_win - d_rival <= -margin  when pick[j] = 1:
                # (const_w - const_r) + sum (coef_w - coef_r) s
                #     <= -margin + M (1 - pick_j)
                coeffs = {keep[i]: float(coef_w[i] - coef_r[i]) for i in range(n)}
                coeffs[pick[j]] = float(big_m)
                model.add_constraint(
                    coeffs, "<=", big_m - margin - (const_w - const_r)
                )
    model.set_objective({s: 1 for s in keep})
    result = model.solve(engine="scipy", time_limit=time_limit)
    if not result.optimal:  # pragma: no cover - full set is always feasible
        raise UnsupportedSettingError("minimum-SR MILP unexpectedly infeasible")
    X = frozenset(i for i in range(n) if round(result.value(keep[i])) == 1)
    _assert_sufficient(dataset, x, X, engine)
    return MinimumSRResult(X, len(X), "milp")


def _encode_msr_query(
    entry, x: np.ndarray, sources, winners, rivals, margin: int, activation: int
) -> None:
    """Encode one query's Proposition-6 characterization onto *entry*'s solver.

    Every plain clause gets the query's *activation* literal woven in
    (``g_q -> clause``), so encodings for many queries coexist on one
    warm solver and each query asserts only its own guard.  Cardinality
    constraints are already guarded by per-query pick variables, so they
    need no extra weaving: an old query's picks stay freely assignable
    and only ever *restrict* when set, never enable anything.
    Coefficients of the distance differences live in {-2..2}; a
    cardinality constraint takes each variable once, so coefficient 2
    is expressed by a twin variable clamped equal to its keep indicator
    — pure equivalences shared by every query, so added unguarded.
    """
    solver, keep, twins = entry.solver, entry.state["keep"], entry.state["twins"]
    n = x.shape[0]
    for o in sources:
        picks = solver.new_vars(winners.shape[0])
        solver.add_clause([-activation, *picks])
        for j, w in enumerate(winners):
            const_w, coef_w = _distance_coefficients(x, o, w)
            for r in rivals:
                const_r, coef_r = _distance_coefficients(x, o, r)
                delta = coef_w - coef_r  # entries in {-2, -1, 0, 1, 2}
                # Need, when pick_j holds:
                #     (const_w - const_r) + sum_i delta_i s_i <= -margin.
                # Move negative-coefficient terms to "at least" form:
                # every delta_i = -1 contributes the literal s_i, every
                # delta_i = +1 the literal (not s_i) with the bound
                # shifted by 1; |delta_i| = 2 uses the twin once more.
                lits: list[int] = []
                bound = (const_w - const_r) + margin
                for i in range(n):
                    d = int(delta[i])
                    if d == 0:
                        continue
                    first = keep[i] if d < 0 else -keep[i]
                    lits.append(first)
                    if d > 0:
                        bound += 1
                    if abs(d) == 2:
                        if i not in twins:
                            twins[i] = solver.new_var()
                            solver.add_clause([-keep[i], twins[i]])
                            solver.add_clause([keep[i], -twins[i]])
                        lits.append(twins[i] if d < 0 else -twins[i])
                        if d > 0:
                            bound += 1
                if bound <= 0:
                    continue  # comparison holds for every X
                if bound > len(lits):
                    solver.add_clause([-activation, -picks[j]])  # never satisfiable
                    break
                solver.add_cardinality(lits, bound, guard=picks[j])


# ---------------------------------------------------------------------------
# The one SAT sweep, its rebuild-per-bound reference, and the canonical witness
# ---------------------------------------------------------------------------


def _build_msr_entry(n: int):
    """Build the shared half of an MSR entry: solver + keep vars."""
    solver = SATSolver(0)
    keep = solver.new_vars(n)
    state: dict = {"keep": keep, "twins": {}, "bounds": {}, "queries": {}}
    return solver, state


def _ensure_msr_query(entry, x, sources, winners, rivals, margin: int) -> int:
    """Encode this query onto the entry's solver once; return its guard."""
    xb = x.tobytes()
    guard = entry.state["queries"].get(xb)
    if guard is None:
        guard = entry.solver.new_var()
        _encode_msr_query(entry, x, sources, winners, rivals, margin, guard)
        entry.state["queries"][xb] = guard
    return guard


def _ensure_msr_bound(entry, t: int) -> int:
    """Guarded ``|X| <= t`` constraint, shared across pooled queries."""
    guard = entry.state["bounds"].get(t)
    if guard is None:
        solver = entry.solver
        guard = solver.new_var()
        solver.add_at_most(entry.state["keep"], t, guard=guard)
        entry.state["bounds"][t] = guard
    return guard


def minimum_sat_hamming_k1_pooled(
    dataset: Dataset,
    x: np.ndarray,
    engine: QueryEngine | None = None,
    *,
    solver_pool: SATSolverPool | None = None,
    fingerprint: str | None = None,
    strategy: str = "binary",
    time_limit: float | None = None,
) -> MinimumSRResult:
    """The one incremental Minimum-SR SAT sweep (discrete setting, k = 1).

    The query is encoded once onto a solver entry and the size bound is
    swept through guard assumptions.  With a *solver_pool* the entry is
    the warm one for this dataset version and label (see
    :func:`~repro.solvers.sat.pool.pool_key`; *fingerprint* names the
    version), so the encoding is reused across queries; without one it
    is a throwaway.  The optimal *size* is a pure feasibility question,
    so warm learnt clauses change speed, never the answer.  ``engine``
    defaults to a fresh one (race workers carry none).
    """
    engine = as_engine(dataset, "hamming", engine)
    label, sources, winners, rivals, margin = _projection_facts(dataset, x, engine)
    n = dataset.dimension
    if winners.shape[0] == 0:
        return MinimumSRResult(frozenset(), 0, "sat")
    deadline = start_deadline(time_limit)
    key = pool_key(dataset, "msr", label, solver_pool, fingerprint)
    with lease_or_build(solver_pool, key, lambda: _build_msr_entry(n)) as entry:
        remaining_budget(deadline, "minimum-SR SAT search")
        guard = _ensure_msr_query(entry, x, sources, winners, rivals, margin)
        keep = entry.state["keep"]
        found = minimize_bound_assumptions(
            entry.solver,
            lambda t: _ensure_msr_bound(entry, t),
            lambda model: frozenset(i for i in range(n) if model[keep[i]]),
            0,
            n,
            strategy=strategy,
            time_limit=remaining_budget(deadline, "minimum-SR SAT search"),
            assumptions=(guard,),
        )
    return _sat_answer(dataset, x, engine, found)


def _minimum_sat_rebuild(
    dataset: Dataset,
    x: np.ndarray,
    engine: QueryEngine,
    *,
    strategy: str = "binary",
    time_limit: float | None = None,
) -> MinimumSRResult:
    """Rebuild-per-bound reference of the SAT sweep: a fresh entry per bound.

    Same encoding and bound search as
    :func:`minimum_sat_hamming_k1_pooled`, but every probed bound
    encodes the query onto a new throwaway solver, so nothing learnt
    carries over.  The ``msr_incremental`` benchmark headline times the
    sweep against it, and tests compare optimum sizes with it.
    """
    label, sources, winners, rivals, margin = _projection_facts(dataset, x, engine)
    n = dataset.dimension
    if winners.shape[0] == 0:
        return MinimumSRResult(frozenset(), 0, "sat")
    deadline = start_deadline(time_limit)

    def feasible(t: int):
        remaining = remaining_budget(deadline, "minimum-SR SAT search")
        with lease_or_build(None, (), lambda: _build_msr_entry(n)) as entry:
            guard = _ensure_msr_query(entry, x, sources, winners, rivals, margin)
            model = entry.solver.solve(
                [guard, _ensure_msr_bound(entry, t)], time_limit=remaining
            )
        if model is None:
            return None
        return frozenset(i for i in range(n) if model[entry.state["keep"][i]])

    return _sat_answer(dataset, x, engine, minimize_bound(feasible, 0, n, strategy=strategy))


def _sat_answer(dataset: Dataset, x: np.ndarray, engine: QueryEngine, found) -> MinimumSRResult:
    """The verified answer of a bound search's ``(size, X)`` result."""
    assert found is not None, "the full component set is always sufficient"
    X = found[1]
    _assert_sufficient(dataset, x, X, engine)
    return MinimumSRResult(X, len(X), "sat")


def minimum_sr_canonical_witness(
    dataset: Dataset,
    x: np.ndarray,
    engine: QueryEngine,
    size: int,
    *,
    solver_pool: SATSolverPool | None = None,
    fingerprint: str | None = None,
    time_limit: float | None = None,
) -> frozenset[int]:
    """The lexicographically smallest sufficient reason of optimal *size*.

    Every exact pipeline agrees on the optimal cardinality but may
    return different witnesses; the portfolio replaces the winner's
    witness with this canonical one so its answers are bit-identical
    regardless of which method (or race schedule) won.  The extraction
    is the lex-leader walk (:func:`~repro.solvers.sat.lex_leader`):
    ascending component index, prefer *include*, under the
    ``|X| <= size`` guard.  By construction this equals the first
    subset ``combinations(range(n), size)`` order would hit, i.e.
    exactly what the brute pipeline returns.
    """
    label, sources, winners, rivals, margin = _projection_facts(dataset, x, engine)
    n = dataset.dimension
    if winners.shape[0] == 0 or size <= 0:
        return frozenset()
    deadline = start_deadline(time_limit)
    key = pool_key(dataset, "msr", label, solver_pool, fingerprint)
    with lease_or_build(solver_pool, key, lambda: _build_msr_entry(n)) as entry:
        query = _ensure_msr_query(entry, x, sources, winners, rivals, margin)
        bound = _ensure_msr_bound(entry, size)
        chosen = lex_leader(
            entry.solver,
            entry.state["keep"],
            size,
            assumptions=(query, bound),
            time_limit=remaining_budget(deadline, "canonical-witness extraction"),
        )
    X = frozenset(chosen)
    _assert_sufficient(dataset, x, X, engine)
    return X


def _assert_sufficient(
    dataset: Dataset, x: np.ndarray, X: frozenset[int], engine: QueryEngine
) -> None:
    verdict = check_sufficient_reason(dataset, 1, "hamming", x, X, engine=engine)
    if not verdict:  # pragma: no cover - encoding bug guard
        raise AssertionError(
            f"solver returned X={sorted(X)} which is not a sufficient reason"
        )
