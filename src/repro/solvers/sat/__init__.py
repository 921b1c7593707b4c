"""SAT solving with native cardinality constraints.

Section 9.2 of the paper encodes closest-counterfactual search as a CNF
formula with *(guarded) cardinality constraints* and solves it with a
solver supporting them natively (cardinality-cadical, "klauses").  This
package is an offline, from-scratch equivalent:

* :mod:`types` / :mod:`cnf` — literals, clauses, cardinality constraints,
  and a formula builder with a KNF-style text dump;
* :mod:`solver` — a CDCL solver (two-watched-literal propagation, 1-UIP
  clause learning, VSIDS decision heuristic with phase saving, Luby
  restarts) extended with counter-based propagation of cardinality
  constraints (:mod:`cardinality`);
* :mod:`search` — linear/binary-search drivers that minimize a bound by
  repeated SAT calls, as the paper does for the Hamming distance, and
  the lex-leader walk that canonicalizes the optimal witness;
* :mod:`pool` — a warm pool of incremental solvers whose learnt clauses
  and heuristic state persist across related queries, keyed by dataset
  version so mutations invalidate them like result caches.
"""

from __future__ import annotations

from .cnf import CNFBuilder
from .pool import PoolEntry, SATSolverPool
from .solver import SATSolver, Model
from .types import CardinalityConstraint, neg
from .search import lex_leader, minimize_bound, minimize_bound_assumptions

__all__ = [
    "CNFBuilder",
    "SATSolver",
    "Model",
    "CardinalityConstraint",
    "neg",
    "minimize_bound",
    "minimize_bound_assumptions",
    "lex_leader",
    "PoolEntry",
    "SATSolverPool",
]
