"""The one SAT sweep per explanation, its solver pool and the lex-leader walk.

Minimum-SR and closest Hamming counterfactuals each run one
incremental SAT sweep, on a warm :class:`SATSolverPool` entry or on a
throwaway solver, and both canonical witnesses come from one
lex-leader walk.  These tests pin that a shared pool keys its entries
by dataset (two datasets of one dimension, no fingerprint passed, must
each get their own brute-force answers), that a full pool never evicts
the entry it is leasing, that entries recycle after
:data:`~repro.solvers.sat.pool.MAX_QUERIES` leases, and that the walk
returns the lexicographically first model.
"""

from __future__ import annotations

import sys
import threading
import time
from itertools import combinations, product

import numpy as np
import pytest

from repro import closest_counterfactual, minimum_sufficient_reason
from repro.abductive.minimum import (
    minimum_sat_hamming_k1_pooled,
    minimum_sr_canonical_witness,
)
from repro.counterfactual.hamming_sat import (
    closest_counterfactual_hamming_sat_pooled,
    counterfactual_canonical_witness,
)
from repro.datasets import random_boolean_dataset
from repro.knn import QueryEngine
from repro.solvers.sat import SATSolver, SATSolverPool, lex_leader
from repro.solvers.sat import pool as pool_module

#: seconds any join or wait in the threaded pool tests may take.
_WAIT_S = 10.0


@pytest.mark.parametrize("seed", range(40))
def test_one_pool_two_datasets_match_brute(seed):
    """Two same-dimension datasets share a pool and pass no fingerprint."""
    rng = np.random.default_rng(seed)
    datasets = [random_boolean_dataset(rng, 8, 10) for _ in range(2)]
    x = rng.integers(0, 2, size=8).astype(float)
    pool = SATSolverPool()
    for data in datasets:
        engine = QueryEngine(data, "hamming")
        brute = minimum_sufficient_reason(data, 1, "hamming", x, method="brute", engine=engine)
        swept = minimum_sat_hamming_k1_pooled(data, x, engine, solver_pool=pool)
        assert swept.size == brute.size
        X = minimum_sr_canonical_witness(data, x, engine, swept.size, solver_pool=pool)
        assert X == brute.X
        cf_brute = closest_counterfactual(
            data, 1, "hamming", x, method="hamming-brute", query_engine=engine
        )
        cf = closest_counterfactual_hamming_sat_pooled(
            data, 1, x, query_engine=engine, solver_pool=pool
        )
        assert cf.distance == cf_brute.distance
        if cf_brute.y is not None:
            y = counterfactual_canonical_witness(
                data, x, cf.distance, query_engine=engine, solver_pool=pool
            )
            np.testing.assert_array_equal(y, cf_brute.y)
    assert len({key[0] for key in pool.keys()}) == 2  # one version per dataset


def _build():
    return SATSolver(0), {}


def test_full_pool_keeps_the_entry_it_leases():
    """With every older entry mid-lease, a new lease runs the pool hot."""
    pool = SATSolverPool(max_entries=1)
    held, release = threading.Event(), threading.Event()
    errors: list[Exception] = []

    def hold_a():
        try:
            with pool.lease(("a",), _build):
                held.set()
                assert release.wait(_WAIT_S)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def lease_b():
        try:
            with pool.lease(("b",), _build) as entry:
                assert entry.solver is not None
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    holder = threading.Thread(target=hold_a, daemon=True)
    holder.start()
    assert held.wait(_WAIT_S)
    leaser = threading.Thread(target=lease_b, daemon=True)
    leaser.start()
    leaser.join(_WAIT_S)
    assert not leaser.is_alive()
    release.set()
    holder.join(_WAIT_S)
    assert not holder.is_alive()
    assert errors == []
    stats = pool.stats()
    assert (stats["misses"], stats["evictions"]) == (2, 0)
    assert pool.keys() == [("a",), ("b",)]
    # Nothing is leased now, so the next miss evicts back to capacity.
    with pool.lease(("c",), _build):
        pass
    assert pool.keys() == [("c",)]
    assert pool.stats()["evictions"] == 2


def test_concurrent_leases_on_a_small_pool():
    """Eight threads lease four keys from a two-entry pool; none may fail."""
    pool = SATSolverPool(max_entries=2)
    per_thread = 50
    errors: list[Exception] = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        try:
            for _ in range(per_thread):
                key = (f"k{int(rng.integers(4))}",)
                with pool.lease(key, _build) as entry:
                    assert entry.key == key and entry.solver is not None
                    time.sleep(0.001)  # hold the lease while others miss
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,), daemon=True) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(_WAIT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert pool.stats()["leases"] == 8 * per_thread


def test_entry_recycles_after_max_queries(monkeypatch):
    monkeypatch.setattr(pool_module, "MAX_QUERIES", 2)
    pool = SATSolverPool()
    builds = []

    def build():
        builds.append(1)
        return _build()

    solvers = []
    for _ in range(3):
        with pool.lease(("a",), build) as entry:
            solvers.append(entry.solver)
    assert len(builds) == 2
    assert solvers[0] is solvers[1] and solvers[2] is not solvers[0]
    stats = pool.stats()
    assert (stats["hits"], stats["misses"], stats["recycled"]) == (1, 2, 1)


@pytest.mark.parametrize("seed", range(20))
def test_lex_leader_is_the_first_combination(seed):
    """The walk returns the first ``combinations`` subset that has a model."""
    rng = np.random.default_rng(seed)
    n = 6
    clauses = [
        [int(v) * int(rng.choice([-1, 1])) for v in rng.choice(n, 3, replace=False) + 1]
        for _ in range(int(rng.integers(2, 8)))
    ]

    def satisfied(bits):
        return all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses)

    models = [bits for bits in product([False, True], repeat=n) if satisfied(bits)]
    if not models:
        return
    size = min(sum(bits) for bits in models)
    solver = SATSolver(n)
    for clause in clauses:
        solver.add_clause(clause)
    guard = solver.new_var()
    solver.add_at_most(range(1, n + 1), size, guard=guard)
    chosen = lex_leader(solver, list(range(1, n + 1)), size, assumptions=(guard,))
    first = next(
        X for X in combinations(range(n), size)
        if satisfied(tuple(i in X for i in range(n)))
    )
    assert tuple(chosen) == first
