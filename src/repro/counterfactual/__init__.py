"""Counterfactual explanations for k-NN classifiers.

A counterfactual explanation for ``x`` is any input ``y`` with
``f(y) != f(x)``; one looks for the closest such ``y`` (Section 3.1).
Complexity landscape (paper's Table 1):

* ``(R, D_2)`` — polynomial for every fixed k (Theorem 2), via convex
  QP over the Proposition-1 polyhedra: :mod:`repro.counterfactual.l2`;
* ``(R, D_1)`` — NP-complete already for ``|S+| = |S-| = 1`` (Theorem
  4); solved in practice with a big-M MILP: :mod:`repro.counterfactual.l1`;
* ``({0,1}, D_H)`` — NP-complete (Theorem 6); solved with the paper's
  Section-9 pipelines: a linearized IQP → MILP
  (:mod:`repro.counterfactual.hamming_milp`) and the guarded-cardinality
  SAT encoding (:mod:`repro.counterfactual.hamming_sat`), plus an
  exhaustive baseline (:mod:`repro.counterfactual.brute`).

:func:`closest_counterfactual` and :func:`exists_counterfactual`
dispatch on the metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import as_vector, check_odd_k, check_positive
from ..exceptions import UnsupportedSettingError, ValidationError
from ..knn import Dataset
from ..metrics import get_metric


@dataclass(frozen=True)
class CounterfactualResult:
    """A counterfactual explanation.

    Attributes
    ----------
    y:
        the counterfactual point (``f(y) != f(x)``), or None when no
        counterfactual exists (one-class data).
    distance:
        ``d(x, y)``; for open target regions (flipping into class 0
        under l2) this can sit slightly above the reported infimum.
    infimum:
        the greatest lower bound of counterfactual distances; equals
        ``distance`` whenever the optimum is attained.
    label_from:
        the classification of x (the counterfactual has ``1 - label_from``).
    method:
        which solver produced the result.
    """

    y: np.ndarray | None
    distance: float
    infimum: float
    label_from: int
    method: str

    @property
    def found(self) -> bool:
        """True when a counterfactual point was produced."""
        return self.y is not None


def closest_counterfactual(
    dataset: Dataset,
    k: int,
    metric,
    x,
    *,
    method: str = "auto",
    query_engine=None,
    **kwargs,
) -> CounterfactualResult:
    """Compute a (near-)closest counterfactual explanation for *x*.

    ``method``: ``"auto"`` dispatches on the metric (l2 → QP, l1 → MILP,
    hamming → MILP); ``"l2-qp"``, ``"l1-milp"``, ``"hamming-milp"``,
    ``"hamming-sat"``, ``"hamming-brute"`` force a pipeline;
    ``"portfolio"`` races every applicable pipeline under per-method
    time budgets via :mod:`repro.portfolio` (pass ``budget=`` seconds)
    and returns the winner's result — call the portfolio module
    directly for the provenance record.

    ``query_engine`` optionally shares a :class:`~repro.knn.QueryEngine`
    over (dataset, metric) so repeated calls reuse its distance cache
    (``engine=`` in the kwargs still selects the MILP backend).  Most
    pipelines also accept ``time_limit=`` seconds (best-effort,
    raising :class:`~repro.exceptions.ResourceLimitError` on expiry).
    """
    from . import brute, hamming_milp, hamming_sat, l1, l2, lp_general

    k = check_odd_k(k)
    metric = get_metric(metric)
    xv = as_vector(x, name="x")
    if xv.shape[0] != dataset.dimension:
        raise ValidationError(
            f"x has dimension {xv.shape[0]}, dataset has {dataset.dimension}"
        )
    if method == "portfolio":
        from ..portfolio import portfolio_closest_counterfactual

        # Single-method callers say time_limit=; for the portfolio that
        # budget applies per raced method (mirrors minimum_sufficient_reason).
        kwargs.setdefault("budget", kwargs.pop("time_limit", None))
        return portfolio_closest_counterfactual(
            dataset, k, metric, xv, query_engine=query_engine, **kwargs
        ).answer
    if query_engine is not None:
        kwargs["query_engine"] = query_engine
    if method == "auto":
        method = {
            "l2": "l2-qp",
            "l1": "l1-milp",
            "hamming": "hamming-milp",
        }.get(metric.name)
        if method is None:
            raise UnsupportedSettingError(
                f"no exact counterfactual pipeline for metric {metric.name}; "
                "for lp with p >= 3 (the paper's open problem) pass "
                "method='lp-heuristic' to get a verified upper bound"
            )
    if method == "lp-heuristic":
        import numpy as _np

        from ..metrics import LpMetric

        if (
            not isinstance(metric, LpMetric)
            or metric.p in (1, 2)
            or metric.p is _np.inf
        ):
            raise ValidationError(
                "method 'lp-heuristic' requires an lp metric with finite p >= 3"
            )
        return lp_general.closest_counterfactual_lp_heuristic(
            dataset, k, int(metric.p), xv, **kwargs
        )
    if method == "l2-qp":
        if metric.name != "l2":
            raise ValidationError("method 'l2-qp' requires the l2 metric")
        return l2.closest_counterfactual_l2(dataset, k, xv, **kwargs)
    if method == "l1-milp":
        if metric.name != "l1":
            raise ValidationError("method 'l1-milp' requires the l1 metric")
        return l1.closest_counterfactual_l1(dataset, k, xv, **kwargs)
    if method in ("hamming-milp", "hamming-sat", "hamming-brute"):
        if metric.name != "hamming":
            raise ValidationError(f"method {method!r} requires the Hamming metric")
        if method == "hamming-milp":
            return hamming_milp.closest_counterfactual_hamming_milp(dataset, k, xv, **kwargs)
        if method == "hamming-sat":
            return hamming_sat.closest_counterfactual_hamming_sat_pooled(dataset, k, xv, **kwargs)
        return brute.closest_counterfactual_hamming_brute(dataset, k, xv, **kwargs)
    raise ValidationError(f"unknown method {method!r}")


def exists_counterfactual(
    dataset: Dataset,
    k: int,
    metric,
    x,
    radius: float,
    *,
    method: str = "auto",
    rtol: float = 1e-9,
    **kwargs,
) -> bool:
    """``k-Counterfactual Explanation``: is there a counterfactual within *radius*?

    Decided through the closest-counterfactual computation; for open
    target regions the decision uses the strict-infimum rule of
    Theorem 2 (Yes iff the infimum is strictly below the radius or is
    attained within it).

    ``rtol`` absorbs solver roundoff in the attained-distance branch:
    MILP/QP engines work to ~1e-7 feasibility, so an optimum that is
    *exactly* the radius (the generic case for reduction instances) can
    come back a few ulps above it.  Set ``rtol=0`` for the raw
    comparison.
    """
    radius = check_positive(radius, name="radius")
    result = closest_counterfactual(dataset, k, metric, x, method=method, **kwargs)
    if not result.found:
        return False
    if result.distance <= radius + rtol * max(1.0, abs(radius)):
        return True
    return result.infimum < radius


__all__ = [
    "CounterfactualResult",
    "closest_counterfactual",
    "exists_counterfactual",
]
