"""Multi-label point sets and their merged-binary views.

The paper's final remarks reduce multi-label classification to the
binary case: to explain label ``l``, merge every other label into one
negative class and run the binary machinery on ``(S_l, S \\ S_l)``.
:class:`MultiClassDataset` is the labeled container that makes the
reduction *lazy*: it stores one row block per class (classes in sorted
label order, rows in insertion order — the canonical order every
tie-breaking rule observes) and materializes the merged binary
:class:`~repro.knn.dataset.Dataset` for a label only on demand.

Mutation runs through the same per-class fold as the binary
:class:`~repro.knn.dataset.Dataset` (:func:`~repro.knn.dataset.fold_batch`):
an added point already present in its class increments the
multiplicity, a new point is appended at the end of its class, and
removals that reach multiplicity zero drop the row with later rows
shifting down in order.  The randomized differential harness replays
these folds against incrementally mutated engines, so the row order is
part of the contract, not an implementation detail.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .._validation import as_boolean_matrix, as_matrix, check_multiplicities
from ..exceptions import ValidationError
from .dataset import Dataset, check_batch, check_survivors, fold_batch


def int_labels(labels, n_rows: int) -> np.ndarray:
    """Coerce *labels* to an int64 vector of length *n_rows*."""
    lab = np.asarray(labels)
    if lab.dtype.kind not in "iub":
        raise ValidationError(
            f"labels must be integers, got dtype {lab.dtype}"
        )
    lab = lab.astype(np.int64).ravel()
    if lab.shape[0] != n_rows:
        raise ValidationError(
            f"labels has length {lab.shape[0]}, expected {n_rows}"
        )
    return lab


class MultiClassDataset:
    """Immutable container for points labeled with arbitrary integers.

    Parameters
    ----------
    points:
        2-D array, one row per point.
    labels:
        integer label per row (any integers; at least two distinct
        values — a single class has nothing to merge against).
    multiplicities:
        optional per-row occurrence counts (default 1 each).
    discrete:
        when True, entries are validated to be 0/1 (the paper's discrete
        setting over the Boolean hypercube).
    """

    def __init__(
        self,
        points,
        labels,
        *,
        multiplicities: Sequence[int] | None = None,
        discrete: bool = False,
    ):
        coerce = as_boolean_matrix if discrete else as_matrix
        pts = coerce(points, name="points")
        if pts.shape[0] == 0:
            raise ValidationError("dataset must contain at least one point")
        lab = int_labels(labels, pts.shape[0])
        mult = check_multiplicities(multiplicities, pts.shape[0], name="multiplicities")
        classes = sorted(int(c) for c in np.unique(lab))
        if len(classes) < 2:
            raise ValidationError(
                "a multiclass dataset needs at least two distinct labels"
            )
        self._classes: tuple[int, ...] = tuple(classes)
        self._points: dict[int, np.ndarray] = {}
        self._mults: dict[int, np.ndarray] = {}
        for c in self._classes:
            mask = lab == c
            rows = np.ascontiguousarray(pts[mask])
            rows.setflags(write=False)
            self._points[c] = rows
            self._mults[c] = mult[mask]
        self.discrete = bool(discrete)

    # -- basic accessors ----------------------------------------------

    @property
    def classes(self) -> tuple[int, ...]:
        """The distinct labels, ascending (the canonical class order)."""
        return self._classes

    @property
    def dimension(self) -> int:
        """Number of features ``n``."""
        return self._points[self._classes[0]].shape[1]

    def class_points(self, label: int) -> np.ndarray:
        """Unique points of one class, in insertion order (read-only)."""
        self._check_label(label)
        return self._points[int(label)]

    def class_multiplicities(self, label: int) -> np.ndarray:
        """Per-row occurrence counts of one class's points."""
        self._check_label(label)
        return self._mults[int(label)]

    def class_size(self, label: int) -> int:
        """Number of points in one class, counting multiplicities."""
        self._check_label(label)
        return int(self._mults[int(label)].sum())

    @property
    def counts(self) -> dict[int, int]:
        """``{label: size}`` with multiplicities counted."""
        return {c: int(self._mults[c].sum()) for c in self._classes}

    @property
    def points(self) -> np.ndarray:
        """All unique rows stacked in canonical (class, insertion) order."""
        return np.vstack([self._points[c] for c in self._classes])

    @property
    def row_labels(self) -> np.ndarray:
        """Label of each row of :attr:`points` (int64)."""
        return np.concatenate(
            [np.full(self._points[c].shape[0], c, dtype=np.int64) for c in self._classes]
        )

    @property
    def multiplicities(self) -> np.ndarray:
        """Occurrence count of each row of :attr:`points`."""
        return np.concatenate([self._mults[c] for c in self._classes])

    @property
    def has_multiplicities(self) -> bool:
        """Whether any point occurs more than once."""
        return bool(any(np.any(self._mults[c] > 1) for c in self._classes))

    def __len__(self) -> int:
        return int(sum(self._mults[c].sum() for c in self._classes))

    def _check_label(self, label) -> int:
        """Validate *label* is one of the dataset's classes."""
        c = int(label)
        if c not in self._points:
            raise ValidationError(f"unknown label {label}")
        return c

    # -- derived forms -------------------------------------------------

    def merged(self, label: int) -> Dataset:
        """The paper's final-remarks reduction: ``label`` vs everything else.

        Positives are the given class (insertion order); negatives are
        every other class concatenated in ascending label order — the
        canonical order the differential oracle suite pins tie-breaking
        against.
        """
        c = self._check_label(label)
        rest = [d for d in self._classes if d != c]
        return Dataset(
            self._points[c],
            np.vstack([self._points[d] for d in rest]),
            positive_multiplicities=self._mults[c],
            negative_multiplicities=np.concatenate([self._mults[d] for d in rest]),
            discrete=self.discrete,
        )

    def all_points(self) -> tuple[np.ndarray, np.ndarray]:
        """``(points, labels)`` with multiplicities expanded; labels int64."""
        points = np.vstack(
            [np.repeat(self._points[c], self._mults[c], axis=0) for c in self._classes]
        )
        labels = np.concatenate(
            [
                np.full(int(self._mults[c].sum()), c, dtype=np.int64)
                for c in self._classes
            ]
        )
        return points, labels

    # -- functional mutation -------------------------------------------

    def with_added(self, points, labels, multiplicities=None) -> "MultiClassDataset":
        """A new dataset with the labeled *points* added.

        Same canonical streaming semantics as the binary
        :meth:`Dataset.with_added <repro.knn.dataset.Dataset.with_added>`,
        applied per class: present points gain multiplicity, new points
        append at the end of their class, and a previously unseen label
        starts a new class (slotted into ascending label order).
        """
        return self._refold(points, labels, multiplicities, remove=False)

    def with_removed(self, points, labels, multiplicities=None) -> "MultiClassDataset":
        """A new dataset with the labeled *points* removed.

        The mirror of :meth:`with_added`: each listed point must exist in
        its class with at least the requested multiplicity, rows whose
        multiplicity reaches zero are dropped (order preserved), an
        emptied class disappears, and the result must keep at least two
        distinct labels.
        """
        return self._refold(points, labels, multiplicities, remove=True)

    def _refold(self, points, labels, multiplicities, *, remove: bool):
        """Apply the shared per-class :func:`~repro.knn.dataset.fold_batch`."""
        pts, lab, mult = check_batch(self, points, labels, multiplicities, int_labels)
        blocks = fold_batch(
            {c: (self._points[c], self._mults[c]) for c in self._classes},
            pts, lab, mult, remove=remove,
        )
        kept = [c for c in sorted(blocks) if blocks[c][0].shape[0]]
        if remove:
            check_survivors(len(kept), binary=False)
        return MultiClassDataset(
            np.vstack([blocks[c][0] for c in kept]),
            np.concatenate(
                [np.full(blocks[c][0].shape[0], c, dtype=np.int64) for c in kept]
            ),
            multiplicities=np.concatenate([blocks[c][1] for c in kept]),
            discrete=self.discrete,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = "discrete" if self.discrete else "continuous"
        sizes = ", ".join(f"{c}:{n}" for c, n in self.counts.items())
        return f"MultiClassDataset({tag}, n={self.dimension}, sizes={{{sizes}}})"
