"""The portfolio tries the cheapest exact method first.

The Hamming portfolios run brute force, then SAT, then MILP.  Brute
force is capped at :data:`repro.portfolio.BRUTE_CAP` classified
candidate rows, but only while a later member remains in the attempt
loop: past the cap it reports ``unsupported`` and the next member
answers.  The cap counts rows instead of timing them, so the attempt
list repeats exactly, and canonicalization keeps every answer
bit-identical to the uncapped brute pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import portfolio
from repro.abductive.minimum import minimum_sufficient_reason
from repro.counterfactual import closest_counterfactual
from repro.knn import Dataset
from repro.portfolio import (
    BRUTE_CAP,
    portfolio_closest_counterfactual,
    portfolio_minimum_sufficient_reason,
)
from repro.solvers import ProcessRacer

from .helpers import random_continuous_dataset, random_discrete_dataset

OLD_MSR_ORDER = ("milp", "sat", "brute")
OLD_CF_ORDER = ("hamming-milp", "hamming-sat", "hamming-brute")


def _capped_msr_cell():
    """Hamming k = 1, 11 features: the optimum (size 8) lies past the cap."""
    rng = np.random.default_rng(3)
    data = random_discrete_dataset(rng, 11, 16, 16)
    return data, rng.integers(0, 2, size=11).astype(float)


def _capped_cf_cell():
    """Hamming k = 1, 24 features: the closest flip set has 7 flips.

    The sweep through 6 flips enumerates 190050 candidates, past the cap.
    """
    negative = np.zeros(24)
    negative[:12] = 1.0
    return Dataset([np.zeros(24)], [negative], discrete=True), np.zeros(24)


def _race(solve, mode: str, data, x, k: int = 1, metric: str = "hamming"):
    """Run the portfolio *solve* in process, or through a one-worker racer.

    One worker runs the same attempt loop as sequential mode, so the
    winner is deterministic in both modes.
    """
    if mode == "sequential":
        return solve(data, k, metric, x)
    racer = ProcessRacer(max_workers=1)
    try:
        return solve(data, k, metric, x, parallel=True, racer=racer)
    finally:
        racer.close()


def _statuses(race):
    return [(a.method, a.status) for a in race.attempts]


@pytest.mark.parametrize("mode", ["sequential", "parallel"])
def test_capped_brute_msr_yields_to_sat(mode):
    data, x = _capped_msr_cell()
    uncapped = minimum_sufficient_reason(data, 1, "hamming", x, method="brute")
    race = _race(portfolio_minimum_sufficient_reason, mode, data, x)
    assert race.mode == mode
    assert race.exact and race.canonical and race.method == "sat"
    brute = next(a for a in race.attempts if a.method == "brute")
    assert brute.status == "unsupported"
    assert str(BRUTE_CAP) in brute.detail
    assert race.answer.X == uncapped.X
    assert race.answer.size == uncapped.size


@pytest.mark.parametrize("mode", ["sequential", "parallel"])
def test_capped_brute_cf_yields_to_sat(mode):
    data, x = _capped_cf_cell()
    uncapped = closest_counterfactual(data, 1, "hamming", x, method="hamming-brute")
    assert uncapped.distance == 7.0
    race = _race(portfolio_closest_counterfactual, mode, data, x)
    assert race.mode == mode
    assert race.exact and race.canonical and race.method == "hamming-sat"
    brute = next(a for a in race.attempts if a.method == "hamming-brute")
    assert brute.status == "unsupported"
    assert str(BRUTE_CAP) in brute.detail
    assert race.answer.distance == uncapped.distance
    np.testing.assert_array_equal(race.answer.y, uncapped.y)


@pytest.mark.parametrize("mode", ["sequential", "parallel"])
def test_sole_brute_member_is_never_capped(monkeypatch, mode):
    # At a zero cap any capped brute attempt yields before its first check.
    monkeypatch.setattr(portfolio, "BRUTE_CAP", 0)
    rng = np.random.default_rng(5)
    l2, hamming = random_continuous_dataset(rng, 3, 4, 4), random_discrete_dataset(rng, 6, 5, 5)
    x_l2, x_hamming = rng.normal(size=3), rng.integers(0, 2, size=6).astype(float)
    for data, k, metric, x in [(l2, 1, "l2", x_l2), (hamming, 3, "hamming", x_hamming)]:
        race = _race(portfolio_minimum_sufficient_reason, mode, data, x, k, metric)
        assert race.mode == mode
        assert _statuses(race) == [("brute", "exact")]
        reference = minimum_sufficient_reason(data, k, metric, x, method="brute")
        assert race.answer.X == reference.X


def test_default_members_answer_every_cell_exactly():
    # No budget: every cell the MILP-first order answered exactly still
    # gets the same exact answer, whether brute force wins, yields to
    # SAT past the cap, or (on k = 3 counterfactuals, which SAT does
    # not cover) hands over to MILP.
    rng = np.random.default_rng(20)
    for n in (5, 8, 11, 12):
        data = random_discrete_dataset(rng, n, 16, 16)
        x = rng.integers(0, 2, size=n).astype(float)
        msr = portfolio_minimum_sufficient_reason(data, 1, "hamming", x)
        old = portfolio_minimum_sufficient_reason(
            data, 1, "hamming", x, methods=OLD_MSR_ORDER
        )
        assert msr.exact and old.exact
        assert msr.answer.X == old.answer.X
        cf = portfolio_closest_counterfactual(data, 1, "hamming", x)
        old_cf = portfolio_closest_counterfactual(
            data, 1, "hamming", x, methods=OLD_CF_ORDER
        )
        assert cf.exact and old_cf.exact
        assert cf.answer.distance == old_cf.answer.distance
        np.testing.assert_array_equal(cf.answer.y, old_cf.answer.y)
        # k = 3: the MILP-first order canonicalized onto this brute answer.
        k3 = portfolio_closest_counterfactual(data, 3, "hamming", x)
        brute = closest_counterfactual(data, 3, "hamming", x, method="hamming-brute")
        assert k3.exact and k3.answer.distance == brute.distance
        np.testing.assert_array_equal(k3.answer.y, brute.y)
    eye = np.eye(16)
    data = Dataset([np.zeros(16), eye[0], eye[1]], [np.ones(16), 1 - eye[0], 1 - eye[1]])
    k3 = portfolio_closest_counterfactual(data, 3, "hamming", np.zeros(16))
    old = portfolio_closest_counterfactual(data, 3, "hamming", np.zeros(16), methods=OLD_CF_ORDER)
    assert k3.exact and k3.method == "hamming-milp"
    assert _statuses(k3) == [
        ("hamming-brute", "unsupported"),
        ("hamming-sat", "unsupported"),
        ("hamming-milp", "exact"),
    ]
    assert k3.answer.distance == old.answer.distance
    np.testing.assert_array_equal(k3.answer.y, old.answer.y)


def test_attempt_lists_repeat():
    small = random_discrete_dataset(np.random.default_rng(8), 6, 6, 6)
    cells = [
        (portfolio_minimum_sufficient_reason, *_capped_msr_cell()),
        (portfolio_minimum_sufficient_reason, small, np.ones(6)),
        (portfolio_closest_counterfactual, *_capped_cf_cell()),
        (portfolio_closest_counterfactual, small, np.ones(6)),
    ]
    runs = [
        [_statuses(solve(data, 1, "hamming", x)) for solve, data, x in cells]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert runs[0] == [
        [("brute", "unsupported"), ("sat", "exact")],
        [("brute", "exact")],
        [("hamming-brute", "unsupported"), ("hamming-sat", "exact")],
        [("hamming-brute", "exact")],
    ]
