"""One race loop, one error contract, for both portfolio modes.

The sequential portfolio and the process racer share one attempt loop
(:func:`repro.solvers.race.attempts`) and one result skeleton, so they
must agree on three things pinned here:

* the winner's attempt is listed last in the provenance, even when a
  loser also reported an exact answer after the cancel (scipy's MILP
  cannot see the cancel event, so this happens in real races);
* a member that raises unexpectedly becomes an ``error`` attempt and
  the race moves on; a race with no winner and no timeout fails with
  :class:`~repro.exceptions.SolverError` when a member crashed, which
  the serving layer reports in band;
* ``repro serve`` refuses the parallel portfolio on a cluster, whose
  daemonic workers cannot fork race workers; both process pools pick
  their start method in one place, and the cluster reports it.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.abductive import minimum
from repro.exceptions import SolverError
from repro.portfolio import portfolio_minimum_sufficient_reason
from repro.serve import ClusterService, ExplanationService
from repro.solvers import RaceAttempt, RaceOutcome
from repro.solvers.race import preferred_context

from .helpers import random_discrete_dataset

REPO = Path(__file__).resolve().parents[1]


def _instance(seed: int):
    rng = np.random.default_rng(seed)
    data = random_discrete_dataset(rng, 7, 6, 6)
    x = rng.integers(0, 2, size=7).astype(float)
    return data, x


class _StubRacer:
    """A racer that hands back one prepared outcome."""

    def __init__(self, outcome: RaceOutcome):
        self.outcome = outcome

    def race(self, *args, **kwargs) -> RaceOutcome:
        return self.outcome


def test_winner_is_listed_last_when_a_loser_also_finished():
    data, x = _instance(11)
    brute = minimum.minimum_sufficient_reason(data, 1, "hamming", x, method="brute")
    milp = minimum.minimum_sufficient_reason(data, 1, "hamming", x, method="milp")
    won = RaceAttempt("brute", "exact", 0.01, answer=brute)
    late = RaceAttempt("milp", "exact", 0.3, answer=milp)
    outcome = RaceOutcome(attempts=(won, late), winner=won, wall_s=0.3, workers=2)
    race = portfolio_minimum_sufficient_reason(
        data, 1, "hamming", x,
        methods=("brute", "milp"), parallel=True, racer=_StubRacer(outcome),
    )
    assert race.mode == "parallel"
    assert race.method == "brute"
    assert race.attempts[-1].method == race.method
    assert [a.method for a in race.attempts] == ["milp", "brute"]


def test_sequential_member_crash_is_an_error_attempt(monkeypatch):
    data, x = _instance(12)
    reference = portfolio_minimum_sufficient_reason(data, 1, "hamming", x)
    real = minimum.minimum_sufficient_reason

    def solve(*args, method="auto", **kwargs):
        if method == "brute":  # the first member crashes; SAT must take over
            raise SolverError("brute sweep failed")
        return real(*args, method=method, **kwargs)

    monkeypatch.setattr(minimum, "minimum_sufficient_reason", solve)
    race = portfolio_minimum_sufficient_reason(data, 1, "hamming", x)
    assert race.exact and race.method == "sat"
    assert [(a.method, a.status) for a in race.attempts] == [
        ("brute", "error"), ("sat", "exact"),
    ]
    assert race.attempts[0].detail == "brute sweep failed"
    assert race.answer.X == reference.answer.X


def _crash(*args, **kwargs):
    raise RuntimeError("injected member crash")


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="race workers inherit the injected crash only when forked",
)
def test_parallel_service_reports_member_crashes_in_band(monkeypatch):
    data, x = _instance(14)
    # Patched before the service forks its race workers, which inherit it.
    monkeypatch.setattr(minimum, "minimum_sufficient_reason", _crash)
    monkeypatch.setattr(minimum, "minimum_sat_hamming_k1_pooled", _crash)
    service = ExplanationService(cache_size=0, parallel_portfolio=True, race_workers=1)
    try:
        fingerprint = service.add_dataset(data)
        response = service.submit(
            fingerprint, "minimum_sr", x, k=1, metric="hamming", solver="portfolio"
        )
        races = service.stats()["portfolio"]["race_pool"]["races"]
    finally:
        service.close()
    assert races == 1
    error = response.payload["error"]
    assert error["type"] == "SolverError"
    assert "injected member crash" in error["message"]


@pytest.mark.parametrize(
    "flags", [("--parallel-portfolio",), ("--race-workers", "2")],
    ids=["parallel-portfolio", "race-workers"],
)
def test_serve_refuses_the_parallel_portfolio_on_a_cluster(flags):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "2", *flags],
        capture_output=True,
        text=True,
        timeout=30,
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 2
    assert "single-process only" in proc.stderr


def test_cluster_reports_the_shared_start_method():
    cluster = ClusterService(workers=1)
    try:
        info, stats = cluster.cluster_info(), cluster.stats()
    finally:
        cluster.close()
    expected = preferred_context().get_start_method()
    assert info["start_method"] == stats["cluster"]["start_method"] == expected
