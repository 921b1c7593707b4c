"""The optimistic k-NN classification function ``f^k_{S+,S-}``.

The paper defines ``f(x) = 1`` iff there is a size-k subset ``T`` of
``S+ ∪ S-`` whose majority is positive and whose members are all at
distance ``<=`` every point outside ``T`` (the *optimistic* view of
ties).  The proof of Proposition 1 gives the equivalent "ball inflation"
rule used here:

    grow a ball centered at x; classify positively iff (k+1)/2 positive
    points fall inside no later than (k+1)/2 negative points do.

Writing ``r+`` (resp. ``r-``) for the distance at which the ``(k+1)/2``-th
positive (negative) point is reached — counting multiplicities, ``+inf``
when that many points do not exist — we get ``f(x) = 1  iff  r+ <= r-``.

All distance work is delegated to a :class:`~repro.knn.QueryEngine`,
which computes the underlying surrogate-distance vectors, one query or
a batch at a time; a classifier is a thin ``k``-binding view over an
engine, and several classifiers (or explanation pipelines) can share
one engine and its indexes.
"""

from __future__ import annotations

import warnings

import numpy as np

from .._validation import as_vector, check_odd_k
from ..exceptions import ValidationError
from ..metrics import Metric
from .dataset import Dataset
from .engine import QueryEngine, as_engine


class KNNClassifier:
    """Exact k-NN classifier with the paper's optimistic tie-breaking.

    Parameters
    ----------
    dataset:
        the labeled examples ``(S+, S-)``.
    k:
        positive odd integer; must not exceed ``len(dataset)``.
    metric:
        a :class:`~repro.metrics.Metric` or an alias accepted by
        :func:`~repro.metrics.get_metric` (default Euclidean, or Hamming
        when the dataset is discrete).
    engine:
        an existing :class:`QueryEngine` over the same dataset to share
        its rows and indexes; *metric* must be None or match the engine's.
    backend:
        index backend for a freshly built engine (``"auto"`` | ``"dense"``
        | ``"kdtree"`` | ``"bitpack"``, see :class:`QueryEngine`); ignored
        when *engine* is passed.
    """

    def __init__(
        self,
        dataset: Dataset,
        k: int = 1,
        metric=None,
        *,
        engine: QueryEngine | None = None,
        backend: str = "auto",
    ):
        if not isinstance(dataset, Dataset):
            raise ValidationError("dataset must be a repro.knn.Dataset")
        self.dataset = dataset
        self.k = check_odd_k(k)
        if len(dataset) < self.k:
            raise ValidationError(
                f"the dataset must contain at least k={self.k} points "
                f"(has {len(dataset)})"
            )
        self.engine = as_engine(dataset, metric, engine, backend=backend)
        self.metric: Metric = self.engine.metric
        if dataset.discrete and not self.metric.is_discrete:
            # The paper also evaluates binarized data under continuous
            # metrics, so this is allowed — just not the default.
            warnings.warn(
                f"continuous metric {self.metric.name!r} over a discrete "
                "dataset; this is supported (the paper evaluates binarized "
                "data under lp metrics) but not the default — pass "
                "metric='hamming' for the discrete setting",
                UserWarning,
                stacklevel=2,
            )

    # -- distances ------------------------------------------------------

    @property
    def majority(self) -> int:
        """``(k+1)/2``, the number of like-labeled neighbors needed to win."""
        return (self.k + 1) // 2

    def _radii(self, x: np.ndarray) -> tuple[float, float]:
        """``(r+, r-)``: surrogate distances at which each side reaches majority."""
        return self.engine.radii(x, self.k)

    # -- classification --------------------------------------------------

    def classify(self, x) -> int:
        """Return ``f^k_{S+,S-}(x)`` as 0 or 1."""
        return self.engine.classify(x, self.k)

    def classify_batch(self, points) -> np.ndarray:
        """Vector of ``f(x)`` values for every row of *points* (batched)."""
        return self.engine.classify_batch(points, self.k)

    def margin(self, x) -> float:
        """Signed surrogate-distance margin ``r- − r+`` (positive ⇒ class 1).

        The margin is expressed in the metric's monotone surrogate units
        (squared distance for l2, p-th power for lp); its *sign* is what
        carries meaning.  A margin of exactly 0 means the optimistic
        tie-break decided the label.
        """
        xv = as_vector(x, name="x")
        return self.engine.margin(xv, self.k)

    def margins_batch(self, points) -> np.ndarray:
        """Vector of signed surrogate margins for every row of *points*."""
        return self.engine.margins_batch(points, self.k)

    def neighbors(self, x, *, k: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The k nearest points and their boolean labels (multiplicity-expanded).

        Ties at the boundary are broken arbitrarily (by index); use
        :func:`~repro.knn.find_witness` for a certified neighbor set.
        """
        return self.engine.neighbors(x, self.k if k is None else int(k))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KNNClassifier(k={self.k}, metric={self.metric.name}, {self.dataset!r})"
