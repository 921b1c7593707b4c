"""Multi-label explanations for 1-NN via label merging.

The paper's final remarks observe that for ``k = 1`` the multi-label
case reduces to the binary one: to explain why ``x`` was classified
with label ``l``, merge all other labels into a single negative class
— the explanation problems on the merged dataset coincide with the
multi-label ones.  (For ``k >= 3`` the same trick fails and the
complexity is open; this class therefore keeps its ``k = 1`` contract,
while :class:`~repro.knn.multiclass_engine.MultiClassEngine` serves the
``k >= 3`` *voting* semantics directly.)

:class:`MultiClass1NN` wraps an integer-labeled point set and exposes
classification, sufficient reasons, and counterfactuals — either
"change to anything else" or targeted "change to label t" (merge
``S+ = class t`` instead).  Since the multiclass engine landed it is a
thin facade over one shared :class:`MultiClassEngine`: classification
runs on the shared index, and each explanation call reuses the engine's
lazily merged binary view instead of materializing a fresh merged
dataset per call.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_matrix
from ..exceptions import ValidationError
from ..metrics import default_metric_name, get_metric
from .dataset import Dataset
from .multiclass_data import MultiClassDataset
from .multiclass_engine import MultiClassEngine


class MultiClass1NN:
    """1-NN over integer labels with merge-based formal explanations."""

    def __init__(self, points, labels, metric=None, *, backend: str = "auto"):
        self.points = as_matrix(points, name="points")
        self.labels = np.asarray(labels, dtype=np.int64).ravel()
        if self.labels.shape[0] != self.points.shape[0]:
            raise ValidationError(
                f"labels has length {self.labels.shape[0]}, "
                f"expected {self.points.shape[0]}"
            )
        if self.points.shape[0] == 0:
            raise ValidationError("need at least one training point")
        self.classes = sorted(int(c) for c in np.unique(self.labels))
        discrete_data = bool(np.all((self.points == 0) | (self.points == 1)))
        if metric is None:
            metric = default_metric_name(discrete_data)
        self.metric = get_metric(metric)
        self._discrete = discrete_data and self.metric.is_discrete
        # The shared engine needs two classes to merge against; a
        # single-label set stays engine-less (classification is constant
        # and merging raises, as before).
        if len(self.classes) >= 2:
            data = MultiClassDataset(
                self.points, self.labels, discrete=self._discrete
            )
            self._engine: MultiClassEngine | None = MultiClassEngine(
                data, self.metric, backend=backend
            )
        else:
            self._engine = None

    @property
    def dimension(self) -> int:
        """Number of features ``n``."""
        return self.points.shape[1]

    @property
    def engine(self) -> MultiClassEngine:
        """The shared :class:`MultiClassEngine` behind every query.

        Raises for single-label training sets, which have nothing to
        merge against (same condition as :meth:`merged`).
        """
        if self._engine is None:
            raise ValidationError("merging needs at least two distinct labels")
        return self._engine

    def classify(self, x, *, favor: int | None = None) -> int:
        """Label of the nearest point.

        Distance ties break toward *favor* when given and present among
        the tied candidates, else toward the smallest label.  The
        *favor* rule is the multi-label counterpart of the paper's
        optimistic tie-breaking: the merged binary problem "class l vs
        rest" counts boundary points as class l, so explanations
        produced through :meth:`merged` certify labels under
        ``classify(x, favor=l)`` semantics.
        """
        if self._engine is None:
            return self.classes[0]
        if favor is not None and int(favor) not in self.classes:
            favor = None
        return self._engine.classify(x, 1, favor=favor)

    def merged(self, positive_label: int) -> Dataset:
        """The binary dataset ``class l`` vs everything else.

        Negatives follow the canonical order (classes ascending, rows
        in insertion order) — the order the multiclass differential
        oracle suite pins tie-dependent witnesses against.
        """
        if positive_label not in self.classes:
            raise ValidationError(f"unknown label {positive_label}")
        return self.engine.dataset.merged(positive_label)

    # -- explanations ---------------------------------------------------

    def _merged_engine(self, label: int):
        """The engine's lazily merged binary view for one label."""
        return self.engine.merged_engine(label)

    def check_sufficient_reason(self, x, X) -> bool:
        """Is X sufficient for x's multi-label classification?"""
        from ..abductive import check_sufficient_reason

        label = self.classify(x)
        engine = self._merged_engine(label)
        return bool(
            check_sufficient_reason(
                engine.dataset, 1, self.metric, x, X, engine=engine
            )
        )

    def minimal_sufficient_reason(self, x) -> frozenset[int]:
        """Inclusion-minimal sufficient reason for x's predicted class (one-vs-rest)."""
        from ..abductive import minimal_sufficient_reason

        label = self.classify(x)
        engine = self._merged_engine(label)
        return minimal_sufficient_reason(
            engine.dataset, 1, self.metric, x, engine=engine
        )

    def closest_counterfactual(self, x, *, target: int | None = None, **kwargs):
        """Closest input with a different label (or with label *target*).

        Untargeted: merge "predicted vs rest" and flip out of the
        positive class.  Targeted: merge "target vs rest" and flip into
        the positive class.  Targeted results are certified under the
        optimistic semantics ``classify(y, favor=target)`` — the
        returned point can sit exactly on the decision boundary, where
        the merge rule awards it the target label.
        """
        from ..counterfactual import closest_counterfactual

        label = self.classify(x)
        if target is None:
            engine = self._merged_engine(label)
        else:
            target = int(target)
            if target == label:
                raise ValidationError("x already has the target label")
            engine = self._merged_engine(target)
        return closest_counterfactual(
            engine.dataset, 1, self.metric, x, query_engine=engine, **kwargs
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MultiClass1NN({len(self.classes)} classes, n={self.dimension}, "
            f"{self.points.shape[0]} points, metric={self.metric.name})"
        )
