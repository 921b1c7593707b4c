"""Batched multiclass queries over one shared index — no per-class copies.

The paper's final-remarks reduction explains label ``l`` on the binary
problem "class ``l`` vs everything else".  Running it naively costs one
engine (and one index) *per class*; :class:`MultiClassEngine` instead
answers every class from one :class:`~repro.knn.store.LabeledStore` —
the store the binary :class:`~repro.knn.engine.QueryEngine` stands on,
keyed here by the labels ascending.  ``dense``/``bitpack`` serve all
``C`` classes from one joint kernel pass per query block, split by
per-class column maps; ``kdtree``/``ivf`` keep one index per class, a
*partition* of the rows.

Per-class one-vs-rest radii come out exactly without a merged index:
for each class the engine extracts the ``need`` smallest surrogate
powers (``need = (k+1)/2``, multiplicities counted) as a "top-need"
block; class ``c``'s own radius is that block's last column, and the
rest-radius is the ``need``-th order statistic of the *union* of every
other class's block — a value-exact identity, because the union's
``need`` smallest elements all lie inside per-class top-need sets.
The differential suite (``tests/test_multiclass_parity.py``) pins the
results bit-identical to freshly merged binary engines per backend.

Classification semantics (the documented contract):

* ``k = 1`` — nearest class by per-class radius, distance ties broken
  toward ``favor`` when given and tied, else toward the smallest label
  (identical to :class:`~repro.knn.multiclass.MultiClass1NN` and to the
  merge reduction);
* ``k >= 3`` — a vote among the ``k`` nearest points (selection ties
  broken by canonical expanded order: classes ascending, rows in
  insertion order), ``vote="uniform"`` counting points and
  ``vote="distance"`` weighing each by its inverse true distance
  (exact hits dominate).  The one-vs-rest optimistic rule is *not* a
  total classifier for ``k >= 3`` — three mutually interleaved classes
  can each fail "my radius <= rest radius" — which is why the merge
  trick (and the solver pipeline built on it) is a ``k = 1`` contract
  while voting serves ``k >= 3``.

Mutation is the store's protocol — the canonical per-class semantics
of :meth:`MultiClassDataset.with_added
<repro.knn.multiclass_data.MultiClassDataset.with_added>` applied
incrementally, a new label starting a class and an emptied class
disappearing.  Merged binary engines for the solver pipeline are
materialized lazily per label and dropped wholesale on every mutation —
an incrementally mutated merged view would scramble the canonical
negative order that tie-dependent witnesses observe.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError
from ..metrics import Metric, default_metric_name, get_metric
from .engine import (
    _BLOCK_ELEMENTS,
    QueryEngine,
    _kth_smallest_with_multiplicity,
    _signed_margins,
    _top_need_batch,
    _vote_batch,
    _vote_tied,
)
from .multiclass_data import MultiClassDataset
from .store import LabeledStore, StoreBacked

#: vote modes of :meth:`MultiClassEngine.classify_batch` (and the binary
#: :meth:`QueryEngine.classify_batch <repro.knn.engine.QueryEngine.classify_batch>`).
VOTES = ("uniform", "distance")


class MultiClassEngine(StoreBacked):
    """Vectorized multiclass queries over ``(MultiClassDataset, metric)``.

    Parameters
    ----------
    dataset:
        the labeled examples — the *initial* contents; :meth:`add_points`
        / :meth:`remove_points` mutate the engine in place afterwards
        (:attr:`dataset` always reflects the current contents).
    metric:
        a :class:`~repro.metrics.Metric` or an alias accepted by
        :func:`~repro.metrics.get_metric` (default from
        :func:`~repro.metrics.default_metric_name`).
    cache_size:
        LRU budget handed to the lazily materialized merged binary
        engines (:meth:`merged_engine`).
    backend:
        same strategies and constraints as the binary engine:
        ``"auto"`` | ``"dense"`` | ``"kdtree"`` | ``"bitpack"`` |
        ``"ivf"``.
    """

    def __init__(
        self,
        dataset: MultiClassDataset,
        metric=None,
        *,
        cache_size: int = 1024,
        backend: str = "auto",
    ):
        if not isinstance(dataset, MultiClassDataset):
            raise ValidationError("dataset must be a repro.knn.MultiClassDataset")
        if metric is None:
            metric = default_metric_name(dataset.discrete)
        self.metric: Metric = get_metric(metric)
        self._store = LabeledStore(dataset, self.metric, backend)
        self._cache_size = max(0, int(cache_size))
        self._merged_cache: dict[int, QueryEngine] = {}

    @property
    def classes(self) -> tuple[int, ...]:
        """The current distinct labels, ascending (canonical class order)."""
        return self._store.classes

    # -- streaming mutation ----------------------------------------------

    def add_points(self, points, labels, multiplicities=None) -> int:
        """Insert labeled points in place; returns the new :attr:`version`.

        The canonical per-class streaming semantics of
        :meth:`MultiClassDataset.with_added
        <repro.knn.multiclass_data.MultiClassDataset.with_added>` applied
        incrementally: present points gain multiplicity, new points
        append at the end of their class, a previously unseen label
        starts a new class.  A mutated engine is bit-identical to one
        freshly built from :attr:`dataset` (the fuzz harness pins this
        per backend).
        """
        self._store.add(points, labels, multiplicities)
        self._merged_cache.clear()
        return self.version

    def remove_points(self, points, labels, multiplicities=None) -> int:
        """Remove labeled points in place; returns the new :attr:`version`.

        The mirror of :meth:`add_points` with up-front validation (a
        failed call leaves the engine untouched): rows whose multiplicity
        reaches zero are compacted out of the stores, tombstoned in the
        packed index, and overlaid as deletions on the KD-trees; a class
        emptied entirely disappears, and at least two classes must
        survive.
        """
        self._store.remove(points, labels, multiplicities)
        self._merged_cache.clear()
        return self.version

    # -- merged binary views ---------------------------------------------

    def merged_engine(self, label: int) -> QueryEngine:
        """A binary :class:`QueryEngine` for "label vs rest", built lazily.

        The merged dataset (:meth:`MultiClassDataset.merged
        <repro.knn.multiclass_data.MultiClassDataset.merged>`) is
        materialized inside the engine only when a solver pipeline asks
        for it, cached per label, and dropped wholesale on every
        mutation — rebuilding from the post-mutation snapshot is the only
        way to preserve the canonical negative order that tie-dependent
        witnesses observe.
        """
        c = self._check_class(label)
        engine = self._merged_cache.get(c)
        if engine is None:
            engine = QueryEngine(
                self.dataset.merged(c),
                self.metric,
                cache_size=self._cache_size,
                backend=self._store.requested_backend,
            )
            self._merged_cache[c] = engine
        return engine

    # -- radii (per-class Proposition 1 generalization) -------------------

    def _top_blocks(self, pts: np.ndarray, need: int) -> list[np.ndarray]:
        """Per-class ``(q, need)`` ascending top-power blocks, class order.

        Dense/bitpack reduce the store's joint kernel pass per
        memory-capped query block; KD-tree/IVF ask each class index
        directly (their rows are multiplicity-expanded, so order
        statistics already count multiplicities).
        """
        store = self._store
        q = pts.shape[0]
        indexes = store.class_indexes()
        if indexes:
            return [
                index.top_powers_batch(pts, need)
                if index is not None
                else np.full((q, need), np.inf)
                for index in indexes
            ]
        out = [np.empty((q, need)) for _ in store.classes]
        rows = max(1, _BLOCK_ELEMENTS // max(1, store.offsets[-1]))
        for start in range(0, q, rows):
            block = slice(start, min(start + rows, q))
            blocks = store.class_blocks(pts[block])
            for top, values, mults, plain in zip(out, blocks, store.mults, store.plain):
                top[block] = _top_need_batch(values, mults, need, plain=plain)
        return out

    def class_radii_batch(
        self, points, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-class one-vs-rest radii for every query row.

        Returns ``(R, Rest)``, both ``(q, C)`` with columns in
        :attr:`classes` order: ``R[:, j]`` is class ``j``'s own
        ``need``-th radius and ``Rest[:, j]`` the ``need``-th radius of
        every *other* class merged — exactly the ``(r+, r-)`` the
        binary engine computes on :meth:`MultiClassDataset.merged`, for
        all classes at once from one kernel pass.
        """
        need = self._store.need(k)
        pts = self._store.check_queries(points)
        tops = self._top_blocks(pts, need)
        q = pts.shape[0]
        n_classes = len(tops)
        radii = np.empty((q, n_classes))
        rest = np.empty((q, n_classes))
        stacked = np.hstack(tops)
        for j, top in enumerate(tops):
            radii[:, j] = top[:, need - 1]
            others = np.delete(stacked, slice(j * need, (j + 1) * need), axis=1)
            rest[:, j] = np.partition(others, need - 1, axis=1)[:, need - 1]
        return radii, rest

    def radii_batch(self, points, k: int, label: int) -> tuple[np.ndarray, np.ndarray]:
        """One-vs-rest ``(r_label, r_rest)`` arrays for one target label."""
        j = self._class_index(label)
        radii, rest = self.class_radii_batch(points, k)
        return radii[:, j], rest[:, j]

    def _class_powers(self, xv: np.ndarray) -> list[np.ndarray]:
        """Per-class surrogate vectors for ONE query via the row-wise kernel.

        Mirrors the binary engine's :meth:`QueryEngine.powers
        <repro.knn.engine.QueryEngine.powers>` split: single-point
        queries use the difference-based kernel, whose boundary geometry
        is exact even on general floats (the Gram batch kernel agrees
        bit for bit on integer-valued data, up to roundoff otherwise).
        """
        return [self.metric.powers_to(rows, xv) for rows in self._store.points]

    def class_radii(self, x, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-class one-vs-rest ``(R, Rest)`` vectors for one query point.

        The single-query counterpart of :meth:`class_radii_batch`,
        served by the exact row-wise kernel (see :meth:`_class_powers`).
        """
        need = self._store.need(k)
        powers = self._class_powers(self._store.check_query(x))
        mults = list(self._store.mults)
        radii = np.empty(len(powers))
        rest = np.empty(len(powers))
        for j in range(len(powers)):
            radii[j] = _kth_smallest_with_multiplicity(powers[j], mults[j], need)
            rest[j] = _kth_smallest_with_multiplicity(
                np.concatenate(powers[:j] + powers[j + 1 :]),
                np.concatenate(mults[:j] + mults[j + 1 :]),
                need,
            )
        return radii, rest

    def radii(self, x, k: int, label: int) -> tuple[float, float]:
        """``(r_label, r_rest)`` for one query point."""
        j = self._class_index(label)
        radii, rest = self.class_radii(x, k)
        return float(radii[j]), float(rest[j])

    # -- margins ----------------------------------------------------------

    def class_margins_batch(self, points, k: int) -> np.ndarray:
        """``(q, C)`` signed one-vs-rest margins (``rest − r``) per class.

        Same ``+inf`` conventions as the binary engine: both radii
        infinite yields ``0.0``.
        """
        return _signed_margins(*self.class_radii_batch(points, k))

    def margins_batch(self, points, k: int, label: int) -> np.ndarray:
        """Signed one-vs-rest margin of *label* for every query row."""
        j = self._class_index(label)
        return self.class_margins_batch(points, k)[:, j]

    def margin(self, x, k: int, label: int) -> float:
        """Signed one-vs-rest margin of *label* for one query point."""
        r, rest = self.radii(x, k, label)
        if np.isinf(r) and np.isinf(rest):
            return 0.0
        return float(rest - r)

    # -- classification ----------------------------------------------------

    def classify_batch(
        self, points, k: int, *, favor: int | None = None, vote: str = "uniform"
    ) -> np.ndarray:
        """Predicted labels for every query row.

        ``k = 1`` classifies by nearest class (ties toward *favor* when
        given and tied, else the smallest label — the merge-reduction
        semantics); ``k >= 3`` runs the *vote* mode over the ``k``
        nearest points in canonical expanded order.
        """
        favor_j = self._check_classify(k, favor, vote)
        pts = self._store.check_queries(points)
        if k == 1:
            radii, _ = self.class_radii_batch(pts, 1)
            return self._winners(radii <= radii.min(axis=1)[:, None], favor_j)
        tied = _vote_batch(self._store, pts, k, vote, self.metric)
        return self._winners(tied, favor_j)

    def classify(
        self, x, k: int = 1, *, favor: int | None = None, vote: str = "uniform"
    ) -> int:
        """Predicted label for one query point (see :meth:`classify_batch`).

        Served by the exact row-wise kernel (:meth:`_class_powers`), so
        distance ties hold exactly on boundary points even for general
        float data — the same single-query guarantee the binary engine
        gives its solver pipelines.
        """
        favor_j = self._check_classify(k, favor, vote)
        xv = self._store.check_query(x)
        if k == 1:
            radii, _ = self.class_radii(xv, 1)
            return int(self._winners(radii[None, :] <= radii.min(), favor_j)[0])
        mults = self._store.mults
        d = np.concatenate([np.repeat(p, m) for p, m in zip(self._class_powers(xv), mults)])
        tied = _vote_tied(d[None, :], [int(m.sum()) for m in mults], k, vote, self.metric)
        return int(self._winners(tied, favor_j)[0])

    def _check_classify(self, k: int, favor, vote: str) -> int | None:
        """Validate *k* and *vote*; returns the column of *favor* (or None)."""
        if vote not in VOTES:
            raise ValidationError(
                f"vote must be one of {'|'.join(VOTES)}, got {vote!r}"
            )
        self._store.need(k)
        return None if favor is None else self._class_index(favor)

    def _winners(self, tied: np.ndarray, favor_j: int | None) -> np.ndarray:
        """Per row, *favor_j*'s label when it is tied, else the first tied class."""
        classes = self._store.classes
        out = np.asarray(classes, dtype=np.int64)[np.argmax(tied, axis=1)]
        if favor_j is not None:
            out[tied[:, favor_j]] = classes[favor_j]
        return out

    # -- neighbors ---------------------------------------------------------

    def neighbors(self, x, k: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The k nearest points and their integer labels.

        Ties at the boundary are broken by canonical expanded index
        (classes ascending, rows in insertion order), matching
        :meth:`MultiClassDataset.all_points`.
        """
        xv = self._store.check_query(x)
        k = 1 if k is None else int(k)
        d = np.concatenate(
            [np.repeat(p, m) for p, m in zip(self._class_powers(xv), self._store.mults)]
        )
        points, labels = self.dataset.all_points()
        order = np.argsort(d, kind="stable")[:k]
        return points[order], labels[order]

    # -- cache bookkeeping -------------------------------------------------

    def cache_info(self) -> dict:
        """Cache statistics of the materialized merged binary engines."""
        return {
            "merged_engines": sorted(self._merged_cache),
            "merged": {c: e.cache_info() for c, e in self._merged_cache.items()},
        }

    def cache_clear(self) -> None:
        """Drop the merged-engine cache (they rebuild lazily on demand)."""
        self._merged_cache.clear()

    # -- pickling ----------------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle without the merged-engine cache."""
        state = self.__dict__.copy()
        state["_merged_cache"] = {}
        return state

    # -- validation helpers ------------------------------------------------

    def _check_class(self, label) -> int:
        """Validate *label* against the current classes."""
        c = int(label)
        if c not in self._store.classes:
            raise ValidationError(f"unknown label {label}")
        return c

    def _class_index(self, label) -> int:
        """Column index of *label* in the canonical class order."""
        return self._store.classes.index(self._check_class(label))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MultiClassEngine(metric={self.metric.name}, backend={self.backend}, "
            f"version={self.version}, classes={list(self.classes)})"
        )
