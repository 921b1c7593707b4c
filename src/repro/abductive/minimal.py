"""Minimal sufficient reasons via the greedy of Proposition 2.

Because supersets of sufficient reasons are sufficient, a minimal one
(inclusion-wise) is obtained by starting from the full component set and
repeatedly dropping any component whose removal keeps the set
sufficient.  This turns *any* polynomial Check-SR algorithm into a
polynomial Minimal-SR algorithm (Corollaries 1, 3 and 4 of the paper).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .._validation import as_index_set
from ..exceptions import ValidationError
from ..knn import Dataset, QueryEngine
from .check import SufficiencyCheck


def minimal_sufficient_reason(
    dataset: Dataset,
    k: int,
    metric,
    x,
    *,
    start: Iterable[int] | None = None,
    order: Sequence[int] | None = None,
    method: str = "auto",
    engine: QueryEngine | None = None,
) -> frozenset[int]:
    """Compute an inclusion-minimal sufficient reason for *x*.

    Parameters
    ----------
    start:
        a sufficient reason to shrink (default: all components, which is
        always sufficient).  A non-sufficient *start* raises.
    order:
        the order in which components are considered for removal; the
        greedy's output depends on it, and different orders can surface
        different minimal reasons (Example 2 of the paper).  Default:
        descending index.
    method:
        forwarded to :func:`~repro.abductive.check.check_sufficient_reason`.
    engine:
        optional shared :class:`~repro.knn.QueryEngine`; one is built
        here when not given.  Every check of the greedy is against one
        :class:`~repro.abductive.check.SufficiencyCheck`, so ``f(x)`` is
        classified once per call.
    """
    check = SufficiencyCheck(dataset, k, metric, x, method=method, engine=engine)
    n = dataset.dimension
    if start is None:
        current = set(range(n))
    else:
        current = set(as_index_set(start, dimension=n, name="start"))
        if not check(current):
            raise ValidationError(
                "start is not a sufficient reason; cannot shrink it into one"
            )
    if order is None:
        candidates = sorted(current, reverse=True)
    else:
        candidates = [i for i in order if i in current]
        if set(candidates) != current:
            raise ValidationError("order must enumerate every component of start")
    for i in candidates:
        current.discard(i)
        if not check(current):
            current.add(i)
    return frozenset(current)


def is_minimal_sufficient_reason(
    dataset: Dataset,
    k: int,
    metric,
    x,
    X,
    *,
    method: str = "auto",
    engine: QueryEngine | None = None,
) -> bool:
    """``k-Minimal Sufficient Reason``: is *X* sufficient and minimal?

    Implements the reduction of Proposition 2: check X itself, then
    check that no one-element deletion stays sufficient — every check
    against one :class:`~repro.abductive.check.SufficiencyCheck`.
    """
    check = SufficiencyCheck(dataset, k, metric, x, method=method, engine=engine)
    X = as_index_set(X, dimension=dataset.dimension, name="X")
    return bool(check(X)) and not any(check(X - {i}) for i in X)
