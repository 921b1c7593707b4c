"""Budgeted solver portfolio over the hard explanation pipelines.

The paper's Table 1 makes Minimum-SR and the Hamming/l1 counterfactual
problems NP-complete, and the repo ships several exact pipelines for
the same instances (SAT, MILP, brute force — Section 9).  The Hamming
portfolios try the cheapest exact method first: brute force while its
enumeration stays under :data:`BRUTE_CAP`, then SAT (ahead of the MILP
route in the paper's Section 9), then MILP, which always finishes.
This module races them:

* every *applicable* method for the instance runs under a
  **per-method wall-clock budget** (``budget`` seconds) — sequentially
  in the :data:`MSR_PORTFOLIO` / :data:`CF_PORTFOLIO` order by default,
  or **concurrently in a process pool**
  (``parallel=True``, via :class:`~repro.solvers.race.ProcessRacer`)
  where the first exact answer cancels the losers cooperatively
  through the shared budget/cancel plumbing, with a hard-kill backstop.
  Both modes run the one attempt loop,
  :func:`repro.solvers.race.attempts`, and share one skeleton here;
* the first method to finish inside its budget supplies the exact
  answer, stamped with a provenance record (which method won — its
  attempt listed last — which were cancelled or failed, what the
  budget was, how long each attempt ran);
* the winner's *witness* is then replaced by the **canonical witness**
  — the lexicographically smallest optimal reason set / flip set,
  exactly what the brute pipeline's enumeration order returns — so the
  portfolio's answer is bit-identical no matter which method won or
  how a parallel race was scheduled (``canonical`` records the rare
  budget-pressed fallback to the winner's own witness);
* a member that raises unexpectedly is recorded as an ``error``
  attempt and the race moves on;
* if **every** exact method runs out of budget, the portfolio degrades
  to a polynomial *anytime* answer instead of failing: the
  Proposition-2 greedy for Minimum-SR (a genuine, just not necessarily
  minimum, sufficient reason) and the nearest training point of the
  opposite predicted class for counterfactuals (a genuine, just not
  necessarily closest, counterfactual).  A race where nothing ran out
  of time fails instead: with :class:`~repro.exceptions.SolverError`
  when a member crashed, else with the members' own inapplicable
  error.

A warm :class:`~repro.solvers.sat.pool.SATSolverPool` may be passed so
the SAT sweeps and the canonicalization probes reuse one incremental
solver per (dataset version, label) across related queries; without
one each call gets a private one-entry pool, so a SAT winner is encoded
once for its sweep and its canonical walk.
:func:`~repro.solvers.sat.pool.pool_key` names the version: the
caller's ``fingerprint``, else the dataset's content hash.  Mutations
must invalidate by fingerprint exactly like result caches (the serve
layer wires this up automatically).

Budgets are enforced cooperatively through the ``time_limit`` plumbing
of the underlying solvers (SAT conflict loop, HiGHS ``time_limit``,
enumeration batch checks), surfacing as
:class:`~repro.exceptions.ResourceLimitError` — best-effort rather than
preemptive, which keeps the racer deterministic and dependency-free.
Every attempt's budget starts when the attempt does (in its own worker
for parallel races), so a cancelled or timed-out attempt never burns
the next attempt's budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import exceptions
from ._validation import as_vector, check_odd_k
from .exceptions import (
    ResourceLimitError,
    SolverError,
    UnsupportedSettingError,
    ValidationError,
)
from .knn import Dataset, QueryEngine
from .knn.engine import as_engine
from .metrics import get_metric
from .solvers.race import attempts, default_racer
from .solvers.sat.pool import SATSolverPool

#: exact Minimum-SR methods raced on the discrete k = 1 cell, cheapest first.
MSR_PORTFOLIO = ("brute", "sat", "milp")

#: exact closest-counterfactual methods raced per metric, cheapest first.
CF_PORTFOLIO = {
    "hamming": ("hamming-brute", "hamming-sat", "hamming-milp"),
    "l1": ("l1-milp",),
    "l2": ("l2-qp",),
}

#: brute force's enumeration cap in classified candidate rows: one per
#: counterfactual candidate, and one per opposite-class point per subset
#: of the Minimum-SR sweep.  It binds only while a later member remains
#: in the attempt loop; past it brute yields as ``unsupported``.  It
#: counts rather than times, so attempts and winners repeat exactly.
#: At d = 16 and 32 points the batched Minimum-SR sweep reaches it in
#: 14-19 ms, about a sixth of one SAT solve there; a 10-feature cell
#: with 16 points per class needs at most 2^10 x 16 = 16384 rows.
BRUTE_CAP = 20_000


@dataclass(frozen=True)
class PortfolioAttempt:
    """One raced method: what ran, for how long, and how it ended."""

    method: str
    budget_s: float | None
    elapsed_s: float
    status: str  # "exact" | "timeout" | "cancelled" | "unsupported" | "error" | "anytime"
    detail: str = ""


@dataclass(frozen=True)
class PortfolioResult:
    """The winning answer plus the race's provenance record.

    ``answer`` is the underlying pipeline's result object
    (:class:`~repro.abductive.MinimumSRResult` or
    :class:`~repro.counterfactual.CounterfactualResult`); ``exact`` is
    False only when every exact method timed out and the anytime
    fallback supplied the answer.  ``mode`` records whether the
    attempts raced sequentially or in the process pool; ``canonical``
    whether the witness is the canonical (lex-min) one — it is False
    only for anytime answers and for exact answers whose
    canonicalization was cut short by budget pressure.
    """

    answer: object
    method: str
    budget_s: float | None
    elapsed_s: float
    exact: bool
    attempts: tuple[PortfolioAttempt, ...]
    mode: str = "sequential"
    canonical: bool = False


def _canonical_msr(result, task: dict):
    """Replace an exact Minimum-SR winner's witness by the canonical one.

    Returns ``(result, canonical)``.  Brute answers are canonical by
    construction (size-ascending lexicographic enumeration); the MILP
    and SAT winners are re-anchored by the lex-leader extraction, which
    agrees with brute bit-for-bit.  Budget pressure keeps the winner's
    own witness and reports ``canonical=False``.
    """
    from .abductive.minimum import MinimumSRResult, minimum_sr_canonical_witness

    if task["metric"] != "hamming" or task["k"] != 1 or result.method == "brute":
        return result, True
    try:
        X = minimum_sr_canonical_witness(
            task["dataset"],
            task["x"],
            task["engine"],
            result.size,
            solver_pool=task["solver_pool"],
            fingerprint=task["fingerprint"],
            time_limit=task["budget"],
        )
    except ResourceLimitError:
        return result, False
    return MinimumSRResult(X=X, size=result.size, method=result.method), True


def _canonical_cf(result, task: dict):
    """Replace an exact counterfactual winner's point by the canonical one.

    Returns ``(result, canonical)``.  Non-Hamming cells have a single
    deterministic member; Hamming brute is canonical by construction.
    For k = 1 the lex-min flip set comes from the SAT extraction; for
    k >= 3 (no SAT member) from a brute re-enumeration capped at the
    known optimal distance — if that enumeration is too large or the
    budget runs out, the winner's own point stands with
    ``canonical=False``.
    """
    from .counterfactual import CounterfactualResult
    from .counterfactual.brute import closest_counterfactual_hamming_brute
    from .counterfactual.hamming_sat import counterfactual_canonical_witness

    if task["metric"] != "hamming" or result.y is None or result.method == "hamming-brute":
        return result, True
    if task["k"] == 1:
        try:
            y = counterfactual_canonical_witness(
                task["dataset"],
                task["x"],
                result.distance,
                solver_pool=task["solver_pool"],
                fingerprint=task["fingerprint"],
                query_engine=task["engine"],
                time_limit=task["budget"],
            )
        except ResourceLimitError:
            return result, False
    else:
        try:
            redo = closest_counterfactual_hamming_brute(
                task["dataset"],
                task["k"],
                task["x"],
                max_distance=int(result.distance),
                query_engine=task["engine"],
                time_limit=task["budget"],
            )
        except (ResourceLimitError, ValidationError):
            return result, False
        if redo.y is None:  # pragma: no cover - the winner's y witnesses feasibility
            return result, False
        y = redo.y
    canonical = CounterfactualResult(
        y=y,
        distance=result.distance,
        infimum=result.infimum,
        label_from=result.label_from,
        method=result.method,
    )
    return canonical, True


def _instance(dataset: Dataset, k: int, metric, x):
    """Validate one portfolio query: ``(k, metric, x)`` resolved and checked."""
    k = check_odd_k(k)
    metric = get_metric(metric)
    xv = as_vector(x, name="x")
    if xv.shape[0] != dataset.dimension:
        raise ValidationError(
            f"x has dimension {xv.shape[0]}, dataset has {dataset.dimension}"
        )
    return k, metric, xv


def _race(
    task: dict,
    local: dict,
    *,
    parallel: bool,
    racer,
    stagger: dict[str, float] | None,
    canonicalize,
    anytime,
) -> PortfolioResult:
    """Race *task*'s methods, sequentially or in the process pool, and shape the result.

    Both modes produce their attempts from the one loop,
    :func:`repro.solvers.race.attempts`: the racer streams it from its
    workers, and sequential mode (or a racer with no free worker) runs
    it here with the in-process-only keys in *local* (shared engine,
    warm solver pool, anytime knobs).  The winner's attempt goes last
    and its answer is canonicalized.  With no winner the race degrades
    to the *anytime* answer — unless nothing timed out or was
    cancelled: then it raises :class:`~repro.exceptions.SolverError`
    if a member crashed, else the members' own inapplicable error.
    """
    task = {**task, "brute_cap": BRUTE_CAP}
    budget = task["budget"]
    if local["solver_pool"] is None:
        # A private one-entry pool: the canonical walk reuses the entry
        # the SAT sweep built.  Naming its version skips the content hash.
        local = {**local, "solver_pool": SATSolverPool(max_entries=1), "fingerprint": "private"}
    here = {**task, **local}
    start = perf_counter()
    outcome = None
    if parallel and not (budget is not None and budget <= 0):
        racer = racer if racer is not None else default_racer()
        outcome = racer.race({**task, "stagger": dict(stagger or {})})
    if outcome is not None:
        mode, tried, winner = "parallel", list(outcome.attempts), outcome.winner
    else:
        mode, tried = "sequential", list(attempts(here))
        winner = tried[-1] if tried and tried[-1].status == "exact" else None
    last = getattr(winner, "method", None)
    records = [
        PortfolioAttempt(a.method, budget, a.elapsed_s, a.status, a.detail)
        for a in sorted(tried, key=lambda a: a.method == last)  # the winner goes last
    ]
    if winner is not None:
        answer, canonical = canonicalize(winner.answer, here)
    else:
        if tried and not any(a.status in ("timeout", "cancelled") for a in tried):
            # Nothing ran out of time: an input problem or a crash, not
            # budget pressure, so fail instead of degrading silently.
            crashed = [a for a in tried if a.status == "error"]
            if crashed:
                raise SolverError(
                    f"portfolio member {crashed[0].method} failed: {crashed[0].detail}"
                )
            inapplicable = getattr(exceptions, tried[-1].exc_type, UnsupportedSettingError)
            raise inapplicable(tried[-1].detail)
        t0 = perf_counter()
        answer, detail = anytime(here)
        records.append(
            PortfolioAttempt(answer.method, None, perf_counter() - t0, "anytime", detail)
        )
        canonical = False
    return PortfolioResult(
        answer=answer,
        method=answer.method,
        budget_s=budget,
        elapsed_s=perf_counter() - start,
        exact=winner is not None,
        attempts=tuple(records),
        mode=mode,
        canonical=canonical,
    )


def portfolio_minimum_sufficient_reason(
    dataset: Dataset,
    k: int,
    metric,
    x,
    *,
    budget: float | None = None,
    methods: tuple[str, ...] | None = None,
    engine: QueryEngine | None = None,
    max_brute_dimension: int = 18,
    restarts: int = 8,
    seed: int | None = 0,
    parallel: bool = False,
    racer=None,
    solver_pool: SATSolverPool | None = None,
    fingerprint: str | None = None,
    stagger: dict[str, float] | None = None,
) -> PortfolioResult:
    """Race the exact Minimum-SR pipelines under per-method budgets.

    ``methods`` defaults to every pipeline applicable to the instance's
    (metric, k) cell; ``budget`` is seconds *per method* (None = no
    cap).  ``parallel=True`` races the methods concurrently in the
    process pool (``racer`` or the shared default); ``stagger`` adds
    artificial per-method start delays (the determinism harness forces
    arbitrary winners with it).  ``solver_pool`` warms the SAT sweeps
    and canonicalization across related queries; ``fingerprint``
    identifies the dataset version in that pool (content hash when
    omitted).  On all-timeout the Proposition-2 greedy (``restarts``
    shuffled orders) provides the anytime answer.  Exact answers carry
    the canonical lex-min witness, so they are bit-identical across
    modes, method subsets and race schedules.
    """
    k, metric, xv = _instance(dataset, k, metric, x)
    engine = as_engine(dataset, metric, engine)
    if methods is None:
        methods = (
            MSR_PORTFOLIO if (metric.name == "hamming" and k == 1) else ("brute",)
        )
    task = {
        "kind": "msr", "dataset": dataset, "k": k, "metric": metric.name, "x": xv,
        "methods": tuple(methods), "budget": budget,
        "max_brute_dimension": max_brute_dimension,
    }
    local = {
        "engine": engine, "solver_pool": solver_pool, "fingerprint": fingerprint,
        "restarts": restarts, "seed": seed,
    }
    return _race(
        task, local, parallel=parallel, racer=racer, stagger=stagger,
        canonicalize=_canonical_msr, anytime=_anytime_msr,
    )


def portfolio_closest_counterfactual(
    dataset: Dataset,
    k: int,
    metric,
    x,
    *,
    budget: float | None = None,
    methods: tuple[str, ...] | None = None,
    query_engine: QueryEngine | None = None,
    parallel: bool = False,
    racer=None,
    solver_pool: SATSolverPool | None = None,
    fingerprint: str | None = None,
    stagger: dict[str, float] | None = None,
) -> PortfolioResult:
    """Race the exact closest-counterfactual pipelines under budgets.

    Applicable methods come from :data:`CF_PORTFOLIO` keyed by the
    metric.  ``parallel``, ``racer``, ``solver_pool``, ``fingerprint``
    and ``stagger`` behave exactly as in
    :func:`portfolio_minimum_sufficient_reason`; exact answers carry
    the canonical lex-min flip set.  On all-timeout the anytime
    fallback returns the nearest *training* point whose prediction
    differs from ``f(x)`` — a genuine counterfactual whose distance
    upper-bounds the optimum.
    """
    k, metric, xv = _instance(dataset, k, metric, x)
    engine = as_engine(dataset, metric, query_engine)
    if methods is None:
        methods = CF_PORTFOLIO.get(metric.name)
        if methods is None:
            raise UnsupportedSettingError(
                f"no portfolio members for metric {metric.name!r}; pass methods="
            )
    task = {
        "kind": "cf", "dataset": dataset, "k": k, "metric": metric.name, "x": xv,
        "methods": tuple(methods), "budget": budget,
    }
    local = {"engine": engine, "solver_pool": solver_pool, "fingerprint": fingerprint}
    return _race(
        task, local, parallel=parallel, racer=racer, stagger=stagger,
        canonicalize=_canonical_cf, anytime=_anytime_counterfactual,
    )


def _anytime_msr(task: dict):
    """The Proposition-2 greedy fallback: ``(answer, detail)``.

    A genuine sufficient reason whose size upper-bounds the optimum.
    """
    from .abductive.approximate import approximate_minimum_sufficient_reason
    from .abductive.minimum import MinimumSRResult

    approx = approximate_minimum_sufficient_reason(
        task["dataset"], task["k"], task["metric"], task["x"],
        engine=task["engine"], restarts=task["restarts"], seed=task["seed"],
    )
    answer = MinimumSRResult(X=approx.X, size=approx.size, method="greedy-anytime")
    return answer, f"upper bound after {approx.restarts_used} greedy restarts"


def _anytime_counterfactual(task: dict):
    """Nearest training point classified unlike ``x``: ``(answer, detail)``.

    Any point the classifier itself sends to the other class is a
    counterfactual; among the training points we take the one closest
    to ``x``, so the reported distance is an honest upper bound on the
    optimum (tight whenever the closest counterfactual region contains
    a training point).
    """
    from .counterfactual import CounterfactualResult

    x, k, engine = task["x"], task["k"], task["engine"]
    detail = "nearest opposite-predicted training point (distance upper bound)"
    label = engine.classify(x, k)
    expanded = task["dataset"].expanded()
    blocks = [p for p in (expanded.positives, expanded.negatives) if p.shape[0]]
    points = np.vstack(blocks)
    flipped = np.flatnonzero(engine.classify_batch(points, k) != label)
    if flipped.size == 0:
        # One-class predictions everywhere: no counterfactual exists
        # among training points (matches the exact solvers on constant f).
        answer = CounterfactualResult(
            y=None, distance=np.inf, infimum=np.inf, label_from=label,
            method="nearest-training-anytime",
        )
        return answer, detail
    candidates = points[flipped]
    powers = engine.metric.powers_to(candidates, x)  # monotone surrogate of distance
    y = candidates[int(np.argmin(powers))].astype(float)
    distance = float(engine.metric.distance(x, y))
    answer = CounterfactualResult(
        y=y,
        distance=distance,
        infimum=distance,
        label_from=label,
        method="nearest-training-anytime",
    )
    return answer, detail


__all__ = [
    "BRUTE_CAP",
    "MSR_PORTFOLIO",
    "CF_PORTFOLIO",
    "PortfolioAttempt",
    "PortfolioResult",
    "portfolio_minimum_sufficient_reason",
    "portfolio_closest_counterfactual",
]
