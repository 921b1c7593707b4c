"""Common interface for exact nearest-neighbor indexes."""

from __future__ import annotations

import abc

import numpy as np

from .._validation import as_matrix, as_vector
from ..exceptions import ValidationError
from ..metrics import Metric, get_metric


class NNIndex(abc.ABC):
    """Exact k-nearest-neighbor index over a fixed point set.

    Ties in distance are broken by point index (smallest first), so every
    conforming implementation returns identical results.
    """

    def __init__(self, points, metric="l2"):
        self.points = as_matrix(points, name="points")
        if self.points.shape[0] == 0:
            raise ValidationError("cannot index an empty point set")
        self.metric: Metric = get_metric(metric)

    @property
    def size(self) -> int:
        """Number of indexed points."""
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        """Dimensionality of the indexed points."""
        return self.points.shape[1]

    def _check_query(self, x, k: int) -> tuple[np.ndarray, int]:
        xv = as_vector(x, name="x")
        if xv.shape[0] != self.dimension:
            raise ValidationError(
                f"query has dimension {xv.shape[0]}, index has {self.dimension}"
            )
        k = int(k)
        if not 1 <= k <= self.size:
            raise ValidationError(f"k must be in [1, {self.size}], got {k}")
        return xv, k

    @abc.abstractmethod
    def query(self, x, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(distances, indices)`` of the k nearest points to x."""

    def nearest(self, x) -> tuple[float, int]:
        """Distance and index of the single nearest point."""
        d, i = self.query(x, 1)
        return float(d[0]), int(i[0])


#: point count above which the auto rule prefers the certified
#: inverted-file index for lp/Hamming workloads that are not already
#: served by bitpack or the KD-tree.  Below it the certificate
#: bookkeeping costs more than the brute scan it saves; above it IVF
#: wins whenever the data clusters and costs one cheap centroid pass
#: otherwise (the fallback makes bad clusterings slow, never wrong) —
#: crossover measured with ``repro bench --workloads million_point``.
IVF_AUTO_MIN_POINTS = 65_536


def build_index(points, metric="l2", *, prefer: str = "auto") -> NNIndex:
    """Pick an index backend for the given workload.

    ``prefer`` may be ``"auto"``, ``"brute"`` (alias ``"dense"``),
    ``"kdtree"``, ``"bitpack"`` or ``"ivf"``.  The automatic rule
    mirrors the FAISS remark in the paper's experimental section: the
    bit-packed popcount index for binary data under Hamming, the
    KD-tree only in low dimensions where its pruning wins, the
    certified inverted file above :data:`IVF_AUTO_MIN_POINTS` (where
    FAISS itself would reach for an IVF plan), and vectorized brute
    force otherwise — in high dimensions (the paper's regime of
    hundreds of features) space-partitioning degenerates to a linear
    scan with extra overhead, the classic curse-of-dimensionality
    behavior measured in ``benchmarks/bench_ablation_nn_index.py``.
    """
    from .bitpack import HAVE_BITWISE_COUNT, BitPackedHammingIndex
    from .brute import BruteForceIndex
    from .ivf import IVFIndex
    from .kdtree import KDTreeIndex

    if prefer in ("brute", "dense"):
        return BruteForceIndex(points, metric)
    if prefer == "kdtree":
        return KDTreeIndex(points, metric)
    if prefer == "bitpack":
        return BitPackedHammingIndex(points, metric)
    if prefer == "ivf":
        return IVFIndex(points, metric)
    if prefer != "auto":
        raise ValidationError(
            f"prefer must be 'auto', 'brute'/'dense', 'kdtree', 'bitpack' "
            f"or 'ivf', got {prefer!r}"
        )
    pts = as_matrix(points, name="points")
    from ..metrics import HammingMetric, LpMetric
    from ..metrics.hamming import is_binary

    if (
        HAVE_BITWISE_COUNT
        and isinstance(get_metric(metric), HammingMetric)
        and is_binary(pts)
    ):
        return BitPackedHammingIndex(pts, metric)
    if pts.shape[1] <= 8 and pts.shape[0] >= 64:
        return KDTreeIndex(pts, metric)
    if pts.shape[0] >= IVF_AUTO_MIN_POINTS and isinstance(
        get_metric(metric), (LpMetric, HammingMetric)
    ):
        return IVFIndex(pts, metric)
    return BruteForceIndex(pts, metric)
