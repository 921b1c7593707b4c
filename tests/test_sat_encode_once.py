"""A SAT encoding is built once per explanation and stops on a race cancel.

* A losing SAT attempt in a process race checks the cancel event once
  per encoded point, so it unwinds while it encodes instead of
  finishing the encoding first.
* A portfolio call made without a solver pool encodes a SAT winner
  once: its canonical walk reuses the entry its sweep built.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro._budget import install_cancel_event
from repro.abductive import minimum
from repro.abductive.minimum import minimum_sat_hamming_k1_pooled, minimum_sufficient_reason
from repro.counterfactual import closest_counterfactual, hamming_sat
from repro.counterfactual.hamming_sat import closest_counterfactual_hamming_sat_pooled
from repro.exceptions import ResourceLimitError
from repro.portfolio import portfolio_closest_counterfactual, portfolio_minimum_sufficient_reason

from .helpers import random_discrete_dataset


def _instance(seed: int = 4, n: int = 8):
    rng = np.random.default_rng(seed)
    return random_discrete_dataset(rng, n, 6, 6), rng.integers(0, 2, size=n).astype(float)


@pytest.fixture
def cancel_event():
    event = threading.Event()
    install_cancel_event(event)
    yield event
    install_cancel_event(None)


def test_cancel_stops_the_minimum_sr_encoding(monkeypatch, cancel_event):
    data, x = _instance()
    seen: list[bytes] = []
    real = minimum._distance_coefficients

    def cancel_in_first_source(x_, o, z):
        seen.append(o.tobytes())
        cancel_event.set()  # the race picked a winner mid-encoding
        return real(x_, o, z)

    monkeypatch.setattr(minimum, "_distance_coefficients", cancel_in_first_source)
    with pytest.raises(ResourceLimitError, match="cancelled"):
        minimum_sat_hamming_k1_pooled(data, x)
    assert len(set(seen)) == 1  # the remaining sources were never encoded


def test_cancel_stops_the_counterfactual_encoding(monkeypatch, cancel_event):
    data, x = _instance()
    guards: list[int] = []

    class CancellingBuilder(hamming_sat.CNFBuilder):
        def add_at_least(self, lits, bound, *, guard=None):
            guards.append(guard)
            cancel_event.set()  # the race picked a winner mid-encoding
            return super().add_at_least(lits, bound, guard=guard)

    monkeypatch.setattr(hamming_sat, "CNFBuilder", CancellingBuilder)
    with pytest.raises(ResourceLimitError, match="cancelled"):
        closest_counterfactual_hamming_sat_pooled(data, 1, x)
    assert len(set(guards)) == 1  # one winning point's selector, no more


def _count_builds(monkeypatch, module, name: str) -> list[int]:
    builds: list[int] = []
    real = getattr(module, name)

    def counting(*args):
        builds.append(1)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return builds


@pytest.mark.parametrize("seed", [0, 4, 9])
def test_poolless_minimum_sr_portfolio_encodes_once(monkeypatch, seed):
    data, x = _instance(seed)
    want = minimum_sufficient_reason(data, 1, "hamming", x, method="brute")
    assert want.size > 0  # the canonical walk runs
    builds = _count_builds(monkeypatch, minimum, "_build_msr_entry")
    race = portfolio_minimum_sufficient_reason(data, 1, "hamming", x, methods=("sat",))
    assert (race.method, race.canonical) == ("sat", True)
    assert race.answer.X == want.X
    assert len(builds) == 1


@pytest.mark.parametrize("seed", [0, 4, 9])
def test_poolless_counterfactual_portfolio_encodes_once(monkeypatch, seed):
    data, x = _instance(seed)
    want = closest_counterfactual(data, 1, "hamming", x, method="hamming-brute")
    assert want.y is not None
    builds = _count_builds(monkeypatch, hamming_sat, "_build_cf_entry")
    race = portfolio_closest_counterfactual(data, 1, "hamming", x, methods=("hamming-sat",))
    assert (race.method, race.canonical) == ("hamming-sat", True)
    np.testing.assert_array_equal(race.answer.y, want.y)
    assert race.answer.distance == want.distance
    assert len(builds) == 1
