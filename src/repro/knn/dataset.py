"""Labeled point sets ``(S+, S-)`` with optional multiplicities.

The paper's definitions take two subsets ``S+`` (positive examples) and
``S-`` (negative examples) of ``M^n``.  Several hardness constructions
(Theorems 3 and 5) are first stated with *multiplicities* — the same
point occurring several times — and then de-duplicated; :class:`Dataset`
supports both styles so the reductions can be implemented exactly as in
the paper.

Datasets are immutable; :meth:`Dataset.with_added` /
:meth:`Dataset.with_removed` return new ones through
:func:`fold_batch`, the one per-class streaming fold both dataset kinds
share.  It is the *reference* semantics of a mutation: the engines'
:class:`~repro.knn.store.LabeledStore` applies the same rule in place,
and the differential fuzz harness holds the store to this fold — which
is why the two stay separate implementations.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .._validation import (
    as_boolean_matrix,
    as_matrix,
    check_multiplicities,
)
from ..exceptions import DimensionMismatchError, ValidationError


def bool_labels(labels, n_rows: int) -> np.ndarray:
    """Coerce binary *labels* (0/1 or bool) to a bool vector of length *n_rows*."""
    lab = np.asarray(labels).astype(bool).ravel()
    if lab.shape[0] != n_rows:
        raise ValidationError(f"labels has length {lab.shape[0]}, expected {n_rows}")
    return lab


def row_lookup(rows: np.ndarray) -> dict[bytes, int]:
    """Map each row's float64 bytes to its index (last duplicate wins).

    The ONE definition the functional fold and the engines' store
    share: the tie rule is load-bearing for the engine ≡ fold parity
    the fuzz harness pins.
    """
    return {np.ascontiguousarray(row).tobytes(): i for i, row in enumerate(rows)}


def class_name(label) -> str:
    """How validation messages name a class: a binary side or a label."""
    if isinstance(label, bool):
        return "the positives" if label else "the negatives"
    return f"class {label}"


def check_survivors(inhabited: int, *, binary: bool) -> None:
    """Refuse a removal that leaves too few inhabited classes.

    A binary dataset must keep one point; a multiclass one two labels.
    """
    if binary and inhabited < 1:
        raise ValidationError("cannot remove the last point of a dataset")
    if not binary and inhabited < 2:
        raise ValidationError("a multiclass dataset needs at least two distinct labels")


def check_batch(data, points, labels, multiplicities, coerce_labels):
    """Validate one add/remove batch against *data*'s schema.

    Returns the contiguous point matrix, the labels as *coerce_labels*
    normalizes them and the multiplicity vector.
    """
    coerce = as_boolean_matrix if data.discrete else as_matrix
    pts = coerce(points, name="points")
    if pts.shape[0] == 0:
        raise ValidationError("a mutation batch must contain at least one point")
    if pts.shape[1] != data.dimension:
        raise DimensionMismatchError(
            f"points have dimension {pts.shape[1]}, dataset has {data.dimension}"
        )
    lab = coerce_labels(labels, pts.shape[0])
    mult = check_multiplicities(multiplicities, pts.shape[0], name="multiplicities")
    return np.ascontiguousarray(pts), lab, mult


def fold_batch(blocks: dict, pts, labels, mult, *, remove: bool) -> dict:
    """The canonical streaming fold, applied functionally per class.

    *blocks* maps each label to its ``(rows, multiplicities)``; the
    result maps every label — plus any new one an addition introduced —
    to its new pair, inputs untouched.  Adding: a row already present in
    its class gains multiplicity, a new row appends at the end of its
    class.  Removing: each row must be present in its class with at
    least the requested multiplicity; rows reaching zero are dropped,
    later rows shifting down in order (an emptied class keeps an empty
    pair).  Both dataset kinds fold through this one function, and it
    stays apart from the engines' incremental store on purpose: it is
    the reference the differential fuzz harness holds the store to.
    """
    out = {c: (rows, np.array(counts)) for c, (rows, counts) in blocks.items()}
    state: dict = {}
    for row, c, m in zip(pts, labels.tolist(), mult.tolist()):
        if c not in state:
            rows, counts = out.get(
                c, (np.empty((0, pts.shape[1])), np.empty(0, dtype=np.int64))
            )
            state[c] = (row_lookup(rows), counts.tolist(), [rows])
        lookup, counts, row_blocks = state[c]
        key = row.tobytes()
        idx = lookup.get(key)
        if remove:
            if idx is None:
                raise ValidationError(
                    f"cannot remove a point absent from {class_name(c)}: {row.tolist()}"
                )
            if counts[idx] < m:
                raise ValidationError(
                    f"cannot remove {m} cop(ies) of a point with "
                    f"multiplicity {counts[idx]} in {class_name(c)}"
                )
            counts[idx] -= m
        elif idx is None:
            lookup[key] = len(counts)
            counts.append(m)
            row_blocks.append(row)
        else:
            counts[idx] += m
    for c, (_, counts, row_blocks) in state.items():
        rows = np.vstack(row_blocks) if len(row_blocks) > 1 else row_blocks[0]
        counts = np.asarray(counts, dtype=np.int64)
        out[c] = (rows[counts > 0], counts[counts > 0]) if remove else (rows, counts)
    return out


class Dataset:
    """Immutable container for positive and negative examples.

    Parameters
    ----------
    positives, negatives:
        2-D arrays (rows are points).  One of them may be empty, but not
        both; empty sets are materialized with the right dimension.
    positive_multiplicities, negative_multiplicities:
        optional per-row counts (default 1 each).
    discrete:
        when True, entries are validated to be 0/1 (the paper's discrete
        setting over the Boolean hypercube).
    """

    def __init__(
        self,
        positives,
        negatives,
        *,
        positive_multiplicities: Sequence[int] | None = None,
        negative_multiplicities: Sequence[int] | None = None,
        discrete: bool = False,
    ):
        coerce = as_boolean_matrix if discrete else as_matrix
        pos = coerce(positives, name="positives")
        neg = coerce(negatives, name="negatives")
        if pos.size == 0 and neg.size == 0:
            raise ValidationError("dataset must contain at least one point")
        if pos.size == 0:
            pos = np.empty((0, neg.shape[1]))
        if neg.size == 0:
            neg = np.empty((0, pos.shape[1]))
        if pos.shape[1] != neg.shape[1]:
            raise DimensionMismatchError(
                f"positives have dimension {pos.shape[1]}, negatives {neg.shape[1]}"
            )
        self._positives = pos
        self._negatives = neg
        self._positives.setflags(write=False)
        self._negatives.setflags(write=False)
        self._pos_mult = check_multiplicities(
            positive_multiplicities, pos.shape[0], name="positive_multiplicities"
        )
        self._neg_mult = check_multiplicities(
            negative_multiplicities, neg.shape[0], name="negative_multiplicities"
        )
        self.discrete = bool(discrete)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_labeled(cls, points, labels, *, discrete: bool = False) -> "Dataset":
        """Build a dataset from a point matrix and a 0/1 (or bool) label array."""
        pts = as_matrix(points, name="points")
        lab = bool_labels(labels, pts.shape[0])
        return cls(pts[lab], pts[~lab], discrete=discrete)

    # -- basic accessors ----------------------------------------------

    @property
    def positives(self) -> np.ndarray:
        """Unique positive points, one row each (read-only view)."""
        return self._positives

    @property
    def negatives(self) -> np.ndarray:
        """Unique negative points, one row each (read-only view)."""
        return self._negatives

    @property
    def positive_multiplicities(self) -> np.ndarray:
        """Per-row occurrence counts of the positive points."""
        return self._pos_mult

    @property
    def negative_multiplicities(self) -> np.ndarray:
        """Per-row occurrence counts of the negative points."""
        return self._neg_mult

    @property
    def dimension(self) -> int:
        """Number of features ``n``."""
        return self._positives.shape[1]

    @property
    def n_positive(self) -> int:
        """Number of positive points, counting multiplicities."""
        return int(self._pos_mult.sum())

    @property
    def n_negative(self) -> int:
        """Number of negative points, counting multiplicities."""
        return int(self._neg_mult.sum())

    def __len__(self) -> int:
        return self.n_positive + self.n_negative

    @property
    def has_multiplicities(self) -> bool:
        """Whether any point occurs more than once."""
        return bool(np.any(self._pos_mult > 1) or np.any(self._neg_mult > 1))

    # -- derived forms -------------------------------------------------

    def expanded(self) -> "Dataset":
        """Multiplicity-free dataset with repeated rows materialized."""
        if not self.has_multiplicities:
            return self
        return Dataset(
            np.repeat(self._positives, self._pos_mult, axis=0),
            np.repeat(self._negatives, self._neg_mult, axis=0),
            discrete=self.discrete,
        )

    def all_points(self) -> tuple[np.ndarray, np.ndarray]:
        """``(points, labels)`` with multiplicities expanded; labels are bool."""
        expanded = self.expanded()
        points = np.vstack([expanded._positives, expanded._negatives])
        labels = np.concatenate(
            [
                np.ones(expanded._positives.shape[0], dtype=bool),
                np.zeros(expanded._negatives.shape[0], dtype=bool),
            ]
        )
        return points, labels

    # -- functional mutation -------------------------------------------

    def with_added(self, points, labels, multiplicities=None) -> "Dataset":
        """A new dataset with the labeled *points* added.

        These are the **canonical streaming-mutation semantics** every
        layer shares (:meth:`QueryEngine.add_points
        <repro.knn.engine.QueryEngine.add_points>` applies the same rule
        incrementally, and the fuzz parity suite pins the two together):
        a point already present in its class gets its multiplicity
        incremented; a new point is appended at the end of its class,
        preserving existing row order — row order is observable through
        tie-breaking, so it is part of the contract.
        """
        return self._refold(points, labels, multiplicities, remove=False)

    def with_removed(self, points, labels, multiplicities=None) -> "Dataset":
        """A new dataset with the labeled *points* removed.

        The mirror of :meth:`with_added`: each listed point must exist in
        its class with at least the requested multiplicity (else
        :class:`~repro.exceptions.ValidationError`); a multiplicity that
        reaches zero drops the row, later rows shifting down with their
        order preserved.  Removing the last point of the whole dataset is
        rejected.
        """
        return self._refold(points, labels, multiplicities, remove=True)

    def _refold(self, points, labels, multiplicities, *, remove: bool) -> "Dataset":
        """Apply :func:`fold_batch` to both sides (positives first)."""
        pts, lab, mult = check_batch(self, points, labels, multiplicities, bool_labels)
        sides = fold_batch(
            {
                True: (self._positives, self._pos_mult),
                False: (self._negatives, self._neg_mult),
            },
            pts, lab, mult, remove=remove,
        )
        (pos, pos_mult), (neg, neg_mult) = sides[True], sides[False]
        if remove:
            check_survivors(int(pos.shape[0] > 0) + int(neg.shape[0] > 0), binary=True)
        return Dataset(
            pos,
            neg,
            positive_multiplicities=pos_mult,
            negative_multiplicities=neg_mult,
            discrete=self.discrete,
        )

    def swapped(self) -> "Dataset":
        """Dataset with the roles of S+ and S- exchanged."""
        return Dataset(
            self._negatives,
            self._positives,
            positive_multiplicities=self._neg_mult,
            negative_multiplicities=self._pos_mult,
            discrete=self.discrete,
        )

    def restrict_dims(self, keep) -> "Dataset":
        """Project every point to the listed coordinates (order preserved)."""
        keep = np.asarray(list(keep), dtype=np.int64)
        return Dataset(
            self._positives[:, keep],
            self._negatives[:, keep],
            positive_multiplicities=self._pos_mult,
            negative_multiplicities=self._neg_mult,
            discrete=self.discrete,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = "discrete" if self.discrete else "continuous"
        return (
            f"Dataset({tag}, n={self.dimension}, "
            f"|S+|={self.n_positive}, |S-|={self.n_negative})"
        )
