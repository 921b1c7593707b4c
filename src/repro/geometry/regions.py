"""Decision regions of an l2 k-NN classifier as unions of polyhedra.

By Proposition 1, ``{ x : f(x) = 1 }`` is the union, over witness pairs
``(A, B)`` with ``A ⊆ S+`` of size ``(k+1)/2`` and ``B ⊆ S-`` of size at
most ``(k-1)/2``, of the polyhedra

    P(A, B) = { x : d2(x, a) <= d2(x, c)  for all a in A, c in S- \\ B }

and ``{ x : f(x) = 0 }`` is the analogous union with the classes swapped
and *strict* inequalities.  Each distance comparison is a halfspace
(:func:`~repro.geometry.halfspace.bisector_halfspace`), so the union has
at most ``|S|^(2k)`` members — polynomially many for fixed k.  This is
the enumeration driving Proposition 3 and Theorem 2.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterator

import numpy as np

from .._validation import check_odd_k
from ..knn.dataset import Dataset
from .halfspace import bisector_halfspace
from .polyhedron import Polyhedron


def region_classes(dataset: Dataset, label: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """``(winning, losing, strict)`` for the region ``{x : f^k(x) = label}``.

    The winning class is *label*'s (multiplicities expanded); pieces of
    the label-0 region are open because ties favor class 1.
    """
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    expanded = dataset.expanded()
    if label == 1:
        return expanded.positives, expanded.negatives, False
    return expanded.negatives, expanded.positives, True


def witness_sets(
    n_win: int, n_lose: int, k: int
) -> tuple[Iterator[tuple[int, ...]], list[tuple[int, ...]]]:
    """Index sets ``(A, B)`` of the Proposition-1 witness pairs, in piece order.

    Returns an iterator over the winning sets ``A`` (size ``(k+1)/2``)
    and the list of losing sets ``B`` (size at most ``(k-1)/2``).  The
    pieces are enumerated ``A``-major, so piece ``p`` pairs the
    ``p // len(B)``-th set ``A`` with ``B[p % len(B)]``.  No ``A`` exists
    when the winning class can never reach a majority.
    """
    need = (k + 1) // 2
    slack = (k - 1) // 2
    losing_sets = [
        B for size in range(min(slack, n_lose) + 1) for B in combinations(range(n_lose), size)
    ]
    return combinations(range(n_win), need), losing_sets


def region_piece(winning: np.ndarray, losing: np.ndarray, A, B, *, strict: bool) -> Polyhedron:
    """The piece ``P(A, B)``: every point of ``A`` beats every losing point outside ``B``.

    ``A`` and ``B`` index *winning* and *losing*; the bisector
    constraints come ``A``-major, strict when *strict* is set.
    """
    keep = np.ones(losing.shape[0], dtype=bool)
    keep[list(B)] = False
    rest = losing[keep]
    halfspaces = [bisector_halfspace(a, c, strict=strict) for a in winning[list(A)] for c in rest]
    return Polyhedron(winning.shape[1], halfspaces)


def decision_region_polyhedra(
    dataset: Dataset, k: int, label: int
) -> Iterator[Polyhedron]:
    """Yield the Proposition-1 polyhedra covering ``{x : f^k(x) = label}``.

    For ``label == 1`` the pieces are closed; for ``label == 0`` they are
    open (strict constraints), reflecting the optimistic tie-breaking.
    Multiplicities are expanded first.  Pieces come in the order of
    :func:`witness_sets`.
    """
    check_odd_k(k)
    winning, losing, strict = region_classes(dataset, label)
    winning_sets, losing_sets = witness_sets(winning.shape[0], losing.shape[0], k)
    for A in winning_sets:
        for B in losing_sets:
            yield region_piece(winning, losing, A, B, strict=strict)


def count_region_polyhedra(dataset: Dataset, k: int, label: int) -> int:
    """Number of pieces :func:`decision_region_polyhedra` will yield."""
    check_odd_k(k)
    winning, losing, _ = region_classes(dataset, label)
    _, losing_sets = witness_sets(winning.shape[0], losing.shape[0], k)
    return comb(winning.shape[0], (k + 1) // 2) * len(losing_sets)
