"""Determinism harness for the parallel solver portfolio.

The process racer may let *any* exact method win — scheduling, stagger,
core count and warm-pool state all vary between runs — so the portfolio
pins its answer to the canonical (lex-min) witness.  These tests force
arbitrary winners with artificially skewed per-method start delays and
assert the answer is bit-identical regardless: same reason set, same
counterfactual point, warm or cold, one worker or three, including the
Proposition-1 tie instance.  They also pin the budget accounting (a
cancelled attempt never burns another attempt's budget, and the race
wall is the per-worker schedule, not the method count times the
budget) and that cancelled attempts leave pooled solvers reusable.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.knn import Dataset
from repro.portfolio import (
    CF_PORTFOLIO,
    MSR_PORTFOLIO,
    portfolio_closest_counterfactual,
    portfolio_minimum_sufficient_reason,
)
from repro.serve.cache import dataset_fingerprint
from repro.solvers import ProcessRacer, SATSolverPool

from .helpers import random_discrete_dataset


@pytest.fixture(scope="module")
def racer():
    """One shared 3-worker racer for the whole module (spawning is slow)."""
    racer = ProcessRacer(max_workers=3)
    yield racer
    racer.close()


def _instance(seed: int, n_lo: int = 5, n_hi: int = 9):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi))
    data = random_discrete_dataset(rng, n, 6, 6)
    x = rng.integers(0, 2, size=n).astype(float)
    return data, x


def _staggers(methods: tuple[str, ...]):
    """Delay patterns that hand the head start to every method in turn."""
    for lucky in methods:
        yield {m: (0.0 if m == lucky else 0.08) for m in methods}


def _method_combos(members: tuple[str, ...]):
    for r in range(1, len(members) + 1):
        yield from itertools.combinations(members, r)


class TestRaceDeterminism:
    """Same answer no matter which method wins the race."""

    def test_msr_every_combo_and_winner(self, racer):
        data, x = _instance(101)
        reference = portfolio_minimum_sufficient_reason(data, 1, "hamming", x)
        assert reference.exact and reference.canonical
        for combo in _method_combos(MSR_PORTFOLIO):
            for stagger in _staggers(combo):
                race = portfolio_minimum_sufficient_reason(
                    data, 1, "hamming", x,
                    methods=combo, parallel=True, racer=racer, stagger=stagger,
                )
                assert race.mode == "parallel"
                assert race.exact and race.canonical
                assert race.answer.X == reference.answer.X
                assert race.answer.size == reference.answer.size
                assert race.attempts[-1].status == "exact"

    def test_cf_every_combo_and_winner(self, racer):
        data, x = _instance(202)
        reference = portfolio_closest_counterfactual(data, 1, "hamming", x)
        assert reference.exact and reference.canonical
        for combo in _method_combos(CF_PORTFOLIO["hamming"]):
            for stagger in _staggers(combo):
                race = portfolio_closest_counterfactual(
                    data, 1, "hamming", x,
                    methods=combo, parallel=True, racer=racer, stagger=stagger,
                )
                assert race.mode == "parallel"
                assert race.exact and race.canonical
                assert race.answer.distance == reference.answer.distance
                np.testing.assert_array_equal(race.answer.y, reference.answer.y)

    def test_proposition1_tie_case_is_winner_independent(self, racer):
        # The classic Prop-1 edge: a point duplicated in both classes,
        # optimistic ties favoring class 1.  Every winner must return
        # the same canonical witness here too.
        data = Dataset(
            positives=[[0, 0, 1], [1, 1, 1]],
            negatives=[[0, 0, 1], [1, 0, 0]],
        )
        x = np.array([0.0, 0.0, 1.0])
        reference = portfolio_minimum_sufficient_reason(data, 1, "hamming", x)
        cf_reference = portfolio_closest_counterfactual(data, 1, "hamming", x)
        for stagger in _staggers(MSR_PORTFOLIO):
            race = portfolio_minimum_sufficient_reason(
                data, 1, "hamming", x, parallel=True, racer=racer, stagger=stagger,
            )
            assert race.answer.X == reference.answer.X
        for stagger in _staggers(CF_PORTFOLIO["hamming"]):
            race = portfolio_closest_counterfactual(
                data, 1, "hamming", x, parallel=True, racer=racer, stagger=stagger,
            )
            assert race.answer.distance == cf_reference.answer.distance
            np.testing.assert_array_equal(race.answer.y, cf_reference.answer.y)

    def test_repeated_seeded_races_are_stable(self, racer):
        # N seeded repetitions of the same skewed race: one answer set.
        data, x = _instance(303)
        answers = set()
        for round_ in range(5):
            stagger = {m: 0.05 * ((round_ + i) % 3) for i, m in enumerate(MSR_PORTFOLIO)}
            race = portfolio_minimum_sufficient_reason(
                data, 1, "hamming", x, parallel=True, racer=racer, stagger=stagger,
            )
            answers.add(frozenset(race.answer.X))
        assert len(answers) == 1

    def test_single_worker_race_matches_many_workers(self):
        # One worker degenerates to sequential-in-child; answers equal.
        data, x = _instance(404)
        solo = ProcessRacer(max_workers=1)
        try:
            narrow = portfolio_minimum_sufficient_reason(
                data, 1, "hamming", x, parallel=True, racer=solo,
            )
        finally:
            solo.close()
        wide = portfolio_minimum_sufficient_reason(data, 1, "hamming", x)
        assert narrow.mode == "parallel"
        assert narrow.answer.X == wide.answer.X


class TestPoolAfterCancellation:
    """Cancelled attempts must leave pooled solvers reusable."""

    def test_pool_state_reusable_after_races(self, racer):
        data, x = _instance(505)
        fp = dataset_fingerprint(data)
        pool = SATSolverPool()
        # Drive races that cancel attempts mid-flight (the slow methods
        # lose to the staggered winner) with the pool attached.
        for stagger in _staggers(MSR_PORTFOLIO):
            portfolio_minimum_sufficient_reason(
                data, 1, "hamming", x,
                parallel=True, racer=racer, solver_pool=pool,
                fingerprint=fp, stagger=stagger,
            )
        assert racer.stats()["cancelled"] > 0
        # The pooled solver must still answer cold-identically for new
        # queries of the same dataset — warm state is never poisoned.
        rng = np.random.default_rng(506)
        for _ in range(3):
            q = rng.integers(0, 2, size=data.dimension).astype(float)
            warm = portfolio_minimum_sufficient_reason(
                data, 1, "hamming", q, solver_pool=pool, fingerprint=fp,
            )
            cold = portfolio_minimum_sufficient_reason(data, 1, "hamming", q)
            assert warm.answer.X == cold.answer.X
            warm_cf = portfolio_closest_counterfactual(
                data, 1, "hamming", q, solver_pool=pool, fingerprint=fp,
            )
            cold_cf = portfolio_closest_counterfactual(data, 1, "hamming", q)
            assert warm_cf.answer.distance == cold_cf.answer.distance
            if cold_cf.answer.y is not None:
                np.testing.assert_array_equal(warm_cf.answer.y, cold_cf.answer.y)
        assert pool.stats()["hits"] > 0


class TestBudgetAccounting:
    """A cancelled attempt never burns another attempt's budget."""

    def test_stagger_is_not_billed_to_the_budget(self, racer):
        # Generous per-method budget, instant instance, slow staggers on
        # the losers: the race must end on the winner's clock plus the
        # grace window — not 3 x budget, and not stagger + budget.
        data, x = _instance(606)
        race = portfolio_minimum_sufficient_reason(
            data, 1, "hamming", x,
            budget=30.0, parallel=True, racer=racer,
            stagger={"milp": 0.4, "sat": 0.4, "brute": 0.0},
        )
        assert race.exact
        assert race.elapsed_s < 10.0  # nowhere near 3 x 30 s
        for attempt in race.attempts:
            if attempt.status == "cancelled":
                # Cancelled before or during stagger: no budget burned.
                assert attempt.elapsed_s < 0.5

    def test_race_wall_is_schedule_not_method_count(self):
        # All methods exhaust a tiny budget on a hard instance; with one
        # worker per method the wall is ~budget + grace + slack, never
        # len(methods) x budget stacked on one attempt's clock.
        rng = np.random.default_rng(707)
        data = random_discrete_dataset(rng, 17, 40, 40)
        x = rng.integers(0, 2, size=17).astype(float)
        budget = 0.2
        racer = ProcessRacer(max_workers=3)
        try:
            race = portfolio_minimum_sufficient_reason(
                data, 1, "hamming", x,
                budget=budget, parallel=True, racer=racer,
                methods=("sat", "brute"), max_brute_dimension=17,
            )
        finally:
            racer.close()
        # Fell back to the anytime answer (or a method got lucky) —
        # either way the exact attempts ran concurrently: total elapsed
        # stays inside one budget window plus grace, slack, and the
        # anytime fallback, with a scheduling epsilon.
        assert race.elapsed_s <= budget + 1.0 + 0.25 + 2.0
        if not race.exact:
            assert race.method == "greedy-anytime"
            statuses = {a.status for a in race.attempts[:-1]}
            assert statuses <= {"timeout", "cancelled"}

    def test_zero_budget_parallel_matches_sequential_contract(self, racer):
        data, x = _instance(808)
        race = portfolio_minimum_sufficient_reason(
            data, 1, "hamming", x, budget=0.0, parallel=True, racer=racer,
        )
        statuses = [a.status for a in race.attempts]
        assert statuses[:-1] == ["timeout"] * 3
        assert statuses[-1] == "anytime"
        assert race.method == "greedy-anytime"


class TestParallelContract:
    """Parallel mode preserves the sequential portfolio's error contract."""

    def test_all_members_inapplicable_raises(self, racer):
        rng = np.random.default_rng(909)
        data = random_discrete_dataset(rng, 6, 5, 5)
        x = rng.integers(0, 2, size=6).astype(float)
        with pytest.raises(ValidationError):
            portfolio_minimum_sufficient_reason(
                data, 1, "hamming", x,
                methods=("brute",), max_brute_dimension=3,
                parallel=True, racer=racer,
            )

    def test_closed_racer_falls_back_to_sequential(self):
        data, x = _instance(111)
        closed = ProcessRacer(max_workers=1)
        closed.close()
        race = portfolio_minimum_sufficient_reason(
            data, 1, "hamming", x, parallel=True, racer=closed,
        )
        assert race.mode == "sequential"
        assert race.exact and race.canonical

    def test_provenance_records_cancellations(self, racer):
        data, x = _instance(222)
        race = portfolio_minimum_sufficient_reason(
            data, 1, "hamming", x,
            parallel=True, racer=racer,
            stagger={"milp": 0.3, "sat": 0.3, "brute": 0.0},
        )
        assert race.exact
        statuses = {a.method: a.status for a in race.attempts}
        assert statuses["brute"] == "exact"
        assert race.attempts[-1].method == "brute"
        assert any(s == "cancelled" for s in statuses.values())


class TestBenchParity:
    """``repro bench`` portfolio_parallel compares answers, not winners."""

    def test_phase0_accepts_a_different_race_winner(self, monkeypatch):
        # The contest side (parallel races) may only run SAT, the
        # sequential baseline only brute force: every payload's
        # ``method`` differs, its canonical witness must not.  Phase 0
        # must pass; the timing phase after it is cut short.
        import concurrent.futures

        from repro import portfolio
        from repro.experiments import bench

        def only(fn, contest, baseline):
            def wrapper(*args, **kwargs):
                kwargs["methods"] = contest if kwargs.get("parallel") else baseline
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            portfolio, "portfolio_minimum_sufficient_reason",
            only(portfolio.portfolio_minimum_sufficient_reason, ("sat",), ("brute",)),
        )
        monkeypatch.setattr(
            portfolio, "portfolio_closest_counterfactual",
            only(
                portfolio.portfolio_closest_counterfactual,
                ("hamming-sat",), ("hamming-brute",),
            ),
        )

        class TimingPhaseReached(Exception):
            pass

        def stop(*args, **kwargs):
            raise TimingPhaseReached

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", stop)
        with pytest.raises(TimingPhaseReached):
            bench.measure_portfolio_parallel(repeats=1)
