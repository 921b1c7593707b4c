"""Parity and provenance tests for the budgeted solver portfolio.

The portfolio's contract is *bit-identical exactness*: whatever exact
member wins the race, the answer must match every other exact pipeline
on the same instance — including the Proposition-1 optimistic tie cases
— and the incremental SAT sweeps must agree with their
rebuild-per-bound baselines on randomized instances.  Timeouts must
degrade to genuine (verified) anytime answers, never to garbage.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    closest_counterfactual,
    minimum_sufficient_reason,
    portfolio_closest_counterfactual,
    portfolio_minimum_sufficient_reason,
)
from repro.abductive import check_sufficient_reason
from repro.abductive.minimum import (
    MinimumSRResult,
    _minimum_sat_rebuild,
    minimum_sat_hamming_k1_pooled,
)
from repro.counterfactual import CounterfactualResult
from repro.counterfactual.hamming_sat import (
    _closest_counterfactual_sat_rebuild,
    closest_counterfactual_hamming_sat_pooled,
)
from repro.datasets import random_boolean_dataset
from repro.exceptions import UnsupportedSettingError
from repro.knn import Dataset, QueryEngine


def _random_instance(seed, n_lo=5, n_hi=11, size_lo=6, size_hi=20):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi))
    size = int(rng.integers(size_lo, size_hi))
    data = random_boolean_dataset(rng, n, size)
    x = rng.integers(0, 2, size=n).astype(float)
    return data, x


class TestMinimumSRParity:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_portfolio_matches_every_exact_method(self, seed):
        data, x = _random_instance(seed)
        engine = QueryEngine(data, "hamming")
        race = portfolio_minimum_sufficient_reason(
            data, 1, "hamming", x, budget=30.0, engine=engine
        )
        assert race.exact
        sizes = {
            method: minimum_sufficient_reason(
                data, 1, "hamming", x, method=method, engine=engine
            ).size
            for method in ("milp", "sat", "brute")
        }
        assert len(set(sizes.values())) == 1, sizes
        assert race.answer.size == sizes["milp"]
        # Every winner's set is a genuine sufficient reason of that size.
        assert check_sufficient_reason(
            data, 1, "hamming", x, race.answer.X, engine=engine
        )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_incremental_sat_matches_rebuild(self, seed):
        data, x = _random_instance(seed)
        engine = QueryEngine(data, "hamming")
        incremental = minimum_sat_hamming_k1_pooled(data, x, engine)
        rebuild = _minimum_sat_rebuild(data, x, engine)
        assert incremental.size == rebuild.size

    @pytest.mark.parametrize("strategy", ["binary", "linear"])
    def test_incremental_strategies_agree(self, strategy):
        data, x = _random_instance(99)
        engine = QueryEngine(data, "hamming")
        result = minimum_sat_hamming_k1_pooled(data, x, engine, strategy=strategy)
        reference = minimum_sufficient_reason(
            data, 1, "hamming", x, method="milp", engine=engine
        )
        assert result.size == reference.size

    def test_proposition1_tie_case(self):
        # A point duplicated in both classes: optimistic ties favor
        # class 1, the classic Prop-1 edge.  All pipelines must agree.
        data = Dataset(
            positives=[[0, 0, 1], [1, 1, 1]],
            negatives=[[0, 0, 1], [1, 0, 0]],
        )
        x = np.array([0.0, 0.0, 1.0])
        engine = QueryEngine(data, "hamming")
        race = portfolio_minimum_sufficient_reason(
            data, 1, "hamming", x, budget=30.0, engine=engine
        )
        assert race.exact
        for method in ("milp", "sat", "brute"):
            exact = minimum_sufficient_reason(
                data, 1, "hamming", x, method=method, engine=engine
            )
            assert exact.size == race.answer.size

    def test_dispatcher_portfolio_returns_plain_result(self):
        data, x = _random_instance(3)
        answer = minimum_sufficient_reason(
            data, 1, "hamming", x, method="portfolio", time_limit=30.0
        )
        assert isinstance(answer, MinimumSRResult)
        reference = minimum_sufficient_reason(data, 1, "hamming", x, method="milp")
        assert answer.size == reference.size

    def test_non_hamming_setting_races_brute_only(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(4, 3)), rng.normal(size=(5, 3)))
        x = rng.normal(size=3)
        race = portfolio_minimum_sufficient_reason(
            data, 1, "l2", x, budget=30.0
        )
        assert race.exact
        assert [a.method for a in race.attempts] == ["brute"]

    def test_all_members_inapplicable_raises_not_degrades(self):
        # Every member unsupported with no timeout is an input problem:
        # the racer must fail like the single-method entry points, never
        # hand back a silent greedy answer labelled as degradation.
        from repro.exceptions import ValidationError

        rng = np.random.default_rng(1)
        n = 24  # above max_brute_dimension: brute (the only l2 member) rejects
        data = Dataset(rng.normal(size=(4, n)), rng.normal(size=(5, n)))
        x = rng.normal(size=n)
        with pytest.raises(ValidationError):
            portfolio_minimum_sufficient_reason(data, 1, "l2", x, budget=30.0)


class TestMinimumSRFallback:
    def test_zero_budget_degrades_to_greedy(self):
        data, x = _random_instance(17)
        engine = QueryEngine(data, "hamming")
        race = portfolio_minimum_sufficient_reason(
            data, 1, "hamming", x, budget=0.0, engine=engine
        )
        assert not race.exact
        assert race.method == "greedy-anytime"
        statuses = [a.status for a in race.attempts]
        assert statuses[:-1] == ["timeout"] * 3 and statuses[-1] == "anytime"
        # The anytime answer is still a genuine sufficient reason and an
        # upper bound on the optimum.
        assert check_sufficient_reason(
            data, 1, "hamming", x, race.answer.X, engine=engine
        )
        exact = minimum_sufficient_reason(data, 1, "hamming", x, engine=engine)
        assert race.answer.size >= exact.size

    def test_attempt_records_carry_budget_and_elapsed(self):
        data, x = _random_instance(21)
        race = portfolio_minimum_sufficient_reason(
            data, 1, "hamming", x, budget=30.0
        )
        assert race.budget_s == 30.0
        assert race.elapsed_s >= 0.0
        assert all(a.elapsed_s >= 0.0 for a in race.attempts)
        assert race.attempts[-1].status == "exact"


class TestCounterfactualParity:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_portfolio_matches_every_exact_method(self, seed):
        data, x = _random_instance(seed)
        engine = QueryEngine(data, "hamming")
        race = portfolio_closest_counterfactual(
            data, 1, "hamming", x, budget=30.0, query_engine=engine
        )
        assert race.exact
        distances = {
            method: closest_counterfactual(
                data, 1, "hamming", x, method=method, query_engine=engine
            ).distance
            for method in ("hamming-milp", "hamming-sat", "hamming-brute")
        }
        assert len(set(distances.values())) == 1, distances
        assert race.answer.distance == distances["hamming-milp"]

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_incremental_sat_matches_rebuild(self, seed):
        data, x = _random_instance(seed)
        engine = QueryEngine(data, "hamming")
        incremental = closest_counterfactual_hamming_sat_pooled(
            data, 1, x, query_engine=engine
        )
        rebuild = _closest_counterfactual_sat_rebuild(data, 1, x, query_engine=engine)
        assert incremental.distance == rebuild.distance

    def test_zero_budget_degrades_to_nearest_training(self):
        data, x = _random_instance(31)
        engine = QueryEngine(data, "hamming")
        race = portfolio_closest_counterfactual(
            data, 1, "hamming", x, budget=0.0, query_engine=engine
        )
        assert not race.exact
        assert race.method == "nearest-training-anytime"
        answer = race.answer
        if answer.found:
            # A genuine counterfactual and an upper bound on the optimum.
            label = engine.classify(x, 1)
            assert engine.classify(answer.y, 1) != label
            exact = closest_counterfactual(
                data, 1, "hamming", x, method="hamming-milp", query_engine=engine
            )
            assert answer.distance >= exact.distance

    def test_dispatcher_portfolio_returns_plain_result(self):
        data, x = _random_instance(8)
        answer = closest_counterfactual(
            data, 1, "hamming", x, method="portfolio", budget=30.0
        )
        assert isinstance(answer, CounterfactualResult)
        reference = closest_counterfactual(data, 1, "hamming", x, method="hamming-milp")
        assert answer.distance == reference.distance

    def test_dispatcher_portfolio_accepts_time_limit_as_budget(self):
        # Single-method callers say time_limit=; the portfolio branch
        # must map it onto the per-method budget, not crash.
        data, x = _random_instance(8)
        answer = closest_counterfactual(
            data, 1, "hamming", x, method="portfolio", time_limit=30.0
        )
        reference = closest_counterfactual(data, 1, "hamming", x, method="hamming-milp")
        assert answer.distance == reference.distance

    def test_l2_portfolio_single_member(self):
        data = Dataset([[0.0, 0.0], [1.0, 1.0]], [[3.0, 3.0], [4.0, 4.0]])
        x = np.array([0.25, 0.25])
        race = portfolio_closest_counterfactual(data, 1, "l2", x, budget=30.0)
        assert race.exact and race.method == "l2-qp"

    def test_unsupported_metric_rejected(self):
        data = Dataset([[0.0, 0.0]], [[3.0, 3.0]])
        with pytest.raises(UnsupportedSettingError):
            portfolio_closest_counterfactual(
                data, 1, "linf", np.array([0.0, 0.0]), budget=1.0
            )
