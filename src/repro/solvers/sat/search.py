"""Bound-minimization drivers over repeated SAT calls.

The paper's closest-counterfactual pipeline adds a cardinality
constraint ``d_H(x, y) <= t`` and searches the smallest feasible ``t``
"by doing a binary search over the parameter (or a linear search if the
answer is expected to be small)" (Section 9.2).  Both strategies are
implemented here over an abstract feasibility oracle so they can be
ablation-benchmarked against each other.

:func:`minimize_bound_assumptions` is the incremental variant: instead
of rebuilding encoding and solver per bound, one
:class:`~repro.solvers.sat.solver.SATSolver` carries the whole sweep —
each bound is materialized once as a *guarded* cardinality constraint
and switched on by passing its guard literal as an assumption, so
learnt clauses and heuristic state flow between bounds.

:func:`lex_leader` is the canonical-witness walk that follows a sweep:
given the optimal bound, it settles literal preferences in order, so
every solver (and every race winner) lands on the same model.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from ..._budget import remaining_budget, start_deadline
from ...exceptions import ValidationError

T = TypeVar("T")


def minimize_bound(
    feasible: Callable[[int], T | None],
    lo: int,
    hi: int,
    *,
    strategy: str = "binary",
) -> tuple[int, T] | None:
    """Smallest ``t`` in ``[lo, hi]`` with ``feasible(t)`` not None.

    *feasible* must be monotone (feasible at t implies feasible at every
    t' >= t), which holds for distance-bounded explanation queries.
    Returns ``(t, witness)`` or None when even ``hi`` is infeasible.

    ``strategy`` is ``"binary"`` (O(log range) oracle calls) or
    ``"linear"`` (ascending scan from *lo* — fewer calls when the
    optimum is tiny, the common case for counterfactuals).
    """
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise ValidationError(f"empty search range [{lo}, {hi}]")
    if strategy == "linear":
        for t in range(lo, hi + 1):
            witness = feasible(t)
            if witness is not None:
                return t, witness
        return None
    if strategy != "binary":
        raise ValidationError(f"strategy must be 'binary' or 'linear', got {strategy!r}")
    best: tuple[int, T] | None = None
    witness = feasible(hi)
    if witness is None:
        return None
    best = (hi, witness)
    low, high = lo, hi - 1
    while low <= high:
        mid = (low + high) // 2
        witness = feasible(mid)
        if witness is not None:
            best = (mid, witness)
            high = mid - 1
        else:
            low = mid + 1
    return best


def minimize_bound_assumptions(
    solver,
    encode_bound: Callable[[int], int],
    decode: Callable[[dict], T],
    lo: int,
    hi: int,
    *,
    strategy: str = "binary",
    time_limit: float | None = None,
    assumptions: tuple[int, ...] = (),
) -> tuple[int, T] | None:
    """Incremental :func:`minimize_bound` over one shared SAT solver.

    ``encode_bound(t)`` must add the constraint enforcing bound *t* to
    *solver* — guarded by a fresh literal — and return that guard;
    each feasibility probe then solves under the single assumption
    ``[guard]``, so the formula is encoded once and every bound reuses
    the clauses learnt at the others.  ``decode(model)`` maps a
    satisfying assignment to the returned witness.  ``time_limit``
    (seconds) caps the *whole* sweep, raising
    :class:`~repro.exceptions.ResourceLimitError` on expiry.

    ``assumptions`` are extra literals asserted on every probe — the
    warm solver pool passes the per-query activation guard here, so one
    pooled solver hosts many queries' encodings side by side.
    """
    guards: dict[int, int] = {}
    deadline = start_deadline(time_limit)
    base = list(assumptions)

    def feasible(t: int):
        guard = guards.get(t)
        if guard is None:
            guards[t] = guard = encode_bound(t)
        remaining = remaining_budget(deadline, "incremental bound search")
        model = solver.solve([*base, guard], time_limit=remaining)
        return None if model is None else decode(model)

    return minimize_bound(feasible, lo, hi, strategy=strategy)


def lex_leader(
    solver,
    literals: Sequence[int],
    size: int,
    *,
    assumptions: tuple[int, ...] = (),
    time_limit: float | None = None,
) -> list[int]:
    """Indices of the lexicographically first *size* true *literals*.

    The lex-leader walk (Crawford et al., KR 1996): in order, prefer
    literal i true — skip the probe when the current model already
    satisfies it, probe under *assumptions* plus the choices so far
    otherwise — and stop once *size* literals are chosen.  The
    assumptions must leave the formula satisfiable and admit no model
    with more than *size* true literals.  A refuted preference keeps
    the prefix satisfiable (it was before the probe), so the walk never
    backtracks.  ``time_limit`` (seconds) caps the whole walk, raising
    :class:`~repro.exceptions.ResourceLimitError` on expiry.
    """
    deadline = start_deadline(time_limit)
    decided = list(assumptions)
    chosen: list[int] = []
    model = None
    for i, lit in enumerate(literals):
        if len(chosen) == size:
            break
        if model is None or model[abs(lit)] != (lit > 0):
            remaining = remaining_budget(deadline, "canonical-witness extraction")
            probe = solver.solve([*decided, lit], time_limit=remaining)
            if probe is None:
                decided.append(-lit)
                continue
            model = probe
        decided.append(lit)
        chosen.append(i)
    return chosen
