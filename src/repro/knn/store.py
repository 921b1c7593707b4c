"""The labeled row store both kNN engines stand on.

:class:`~repro.knn.engine.QueryEngine` (binary, Proposition 1) and
:class:`~repro.knn.multiclass_engine.MultiClassEngine` (the final
remarks' one-vs-rest reduction and the vote modes) ask different
questions of the same thing: labeled rows with multiplicities, searched
through a pluggable index backend and mutated in place.
:class:`LabeledStore` is that thing, keyed by an ordered class tuple —
``(True, False)`` for a binary :class:`~repro.knn.Dataset` (positives
first: the order Proposition-1 ties and ``neighbors()`` observe) and the
labels ascending for a :class:`~repro.knn.MultiClassDataset`.  It owns

* per-class row stores (amortized-doubling
  :class:`~repro.neighbors.brute.GrowableMatrix`), multiplicities and
  row lookups;
* the joint kernel layout: one dense row store and, under bitpack, one
  bit-packed index, each with a per-class column map.  One BLAS or
  popcount pass per query block serves every class, split by free
  slices while the layout is still class-contiguous (popcounts stay
  integers, cheaper to partition than a float64 copy) and by a column
  gather once mutations interleaved the classes;
* per-class KD-trees and IVF indexes;
* backend resolution, the auto rule and bitpack→dense degradation;
* the mutation protocol: validation once per batch, add/remove, the
  version counter and the lazily rebuilt dataset snapshot.

The engines keep only their query semantics, and nothing per query;
the :class:`StoreBacked` mixin gives both the surface that reads
straight through to the store.

Index backends (``backend=`` — the :mod:`repro.neighbors` layer)
----------------------------------------------------------------

The paper's experimental section credits "a library for fast
NN-classification such as FAISS" as key to performance; the batch
paths are correspondingly backend-pluggable:

``"dense"``
    the metric's broadcast kernels (BLAS Gram expansions for l2 and
    Hamming) — the default workhorse at the paper's dimensionalities;
``"bitpack"``
    :class:`~repro.neighbors.BitPackedHammingIndex`: packed-word
    XOR/popcount Hamming distances, bit-identical to the dense kernel
    on binary data and several times faster (FAISS's binary-index
    technique);
``"kdtree"``
    per-class :class:`~repro.neighbors.LazyKDTree` branch-and-bound —
    wins only at very low dimension over large datasets, where pruning
    beats the O(|S|) scan;
``"ivf"``
    per-class :class:`~repro.neighbors.IVFIndex` — certified
    inverted-file search (FAISS's IVF plan made exact by a
    triangle-inequality certificate with a full-scan fallback); wins
    at large point counts when the data is clustered, never wrong
    anywhere (the ``million_point`` headline measures the win at 10^6
    points);
``"auto"``
    bitpack for binary Hamming data, KD-tree for lp at most 4
    dimensions over at least 16,384 points, dense otherwise (thresholds
    measured in ``benchmarks/bench_ablation_nn_index.py`` and ``repro
    bench --workloads kdtree_lowdim``).  IVF is *not* auto-selected:
    whether its certificate holds often enough to win depends on
    cluster structure the auto rule cannot see cheaply, and on
    unclustered data every query would pay the fallback scan.  This is
    the engine's own rule; :func:`repro.neighbors.build_index` keeps the
    standalone one (KD-tree from 64 points at up to 8 dimensions, IVF
    from 65,536 points), which the engines never consult.

Every backend implements the same optimistic semantics; on
integer-valued data the results are bit-identical across backends (the
parity suite in ``tests/test_backends.py`` enforces this), so backend
choice is purely a performance decision.

Streaming mutation
------------------

A mutation applies the canonical per-class fold of
:meth:`Dataset.with_added <repro.knn.dataset.Dataset.with_added>` /
:meth:`~repro.knn.dataset.Dataset.with_removed` incrementally: a point
already present in its class gains multiplicity, a new point appends at
the end of its class, and a row whose multiplicity reaches zero is
compacted out with the order of the rest preserved.  The bit-packed
index appends freshly packed words and tombstones removals (compacting
past half dead), the KD-trees overlay deltas until a staleness
threshold triggers a lazy rebuild, the IVF indexes append to and
tombstone their buckets, and the dense kernels read the updated joint
store.  A multiclass store also gains a class with a previously unseen
label and drops a class emptied entirely; a binary store keeps both
sides, empty or not.  Validation runs once, before anything changes, so
a refused batch leaves the store untouched.  A mutated store is
bit-identical to one freshly built from :attr:`LabeledStore.dataset`
(the randomized differential harness in ``tests/test_fuzz_parity.py``
enforces this per backend, against the functional fold).
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .._validation import as_matrix, as_vector, check_multiplicities, check_odd_k
from ..exceptions import ValidationError
from ..metrics import HammingMetric, LpMetric
from ..metrics.hamming import is_binary
from ..neighbors.brute import GrowableMatrix
from .dataset import Dataset, bool_labels, check_survivors, class_name, row_lookup
from .multiclass_data import MultiClassDataset, int_labels

#: the index strategies (see the module docstring).
BACKENDS = ("auto", "dense", "kdtree", "bitpack", "ivf")

#: KD-tree auto-rule thresholds: the per-query branch-and-bound (a
#: Python-level traversal) only beats one vectorized O(|S|) kernel pass
#: at very low dimension over large point sets (measured crossover:
#: ~12k points at dimension 3; hopeless by dimension 8).
_KDTREE_AUTO_MAX_DIM = 4
_KDTREE_AUTO_MIN_POINTS = 16_384

#: tombstone share of the bit-packed index's storage beyond which the
#: store compacts it (reclaiming both memory and kernel columns).
_BITPACK_COMPACT_FRACTION = 0.5


class LabeledStore:
    """Labeled rows, their joint kernel layout and per-class indexes.

    Internal to :mod:`repro.knn`: built by the engines from a
    :class:`~repro.knn.Dataset` (classes ``(True, False)``) or a
    :class:`~repro.knn.MultiClassDataset` (its labels ascending) and a
    resolved metric; *backend* is one of :data:`BACKENDS`.

    Per-class state is exposed in class order, re-derived after every
    mutation: :attr:`points` (read-only row views), :attr:`mults`,
    :attr:`plain` (multiplicity-free flags), :attr:`offsets` (class
    column spans of a class-contiguous layout) and :attr:`total` (points
    counting multiplicities).
    """

    def __init__(self, dataset, metric, backend: str):
        self.binary = isinstance(dataset, Dataset)
        if self.binary:
            blocks = {
                True: (dataset.positives, dataset.positive_multiplicities),
                False: (dataset.negatives, dataset.negative_multiplicities),
            }
        else:
            blocks = {
                c: (dataset.class_points(c), dataset.class_multiplicities(c))
                for c in dataset.classes
            }
        self.metric = metric
        self.dim = dataset.dimension
        self.discrete = dataset.discrete
        self.classes: tuple = tuple(blocks)
        self._rows = {
            c: GrowableMatrix(np.ascontiguousarray(rows, dtype=np.float64))
            for c, (rows, _) in blocks.items()
        }
        self._mults = {
            c: GrowableMatrix(np.asarray(mults, dtype=np.int64))
            for c, (_, mults) in blocks.items()
        }
        self._lookups = {c: row_lookup(self._rows[c].view) for c in self.classes}
        self._refresh_views()
        self.version = 0
        self._snapshot = dataset
        self.requested_backend = backend
        self.backend = self._resolve_backend(backend)
        self._dense = GrowableMatrix(np.vstack(self.points))
        self._dense_cols = self._contiguous_cols()
        self._bit_index = None
        self._bit_cols: dict = {}
        self._trees: dict = {}
        self._ivfs: dict = {}
        if self.backend == "bitpack":
            from ..neighbors.bitpack import BitPackedHammingIndex

            self._bit_index = BitPackedHammingIndex(np.vstack(self.points), metric)
            self._bit_cols = self._contiguous_cols()
        elif self.backend == "kdtree":
            from ..neighbors.kdtree import LazyKDTree

            # Per-class trees over multiplicity-expanded points: the
            # need-th neighbor of the expanded set equals the k-th
            # smallest with multiplicities of the unique rows.
            for c, rows, mults in zip(self.classes, self.points, self.mults):
                self._trees[c] = LazyKDTree(np.repeat(rows, mults, axis=0), metric)
        elif self.backend == "ivf":
            self._ensure_ivf()
        self._refresh_layout()

    # -- derived state ----------------------------------------------------

    def _refresh_views(self) -> None:
        """Re-derive the class-ordered views after the stores changed."""
        self.points = tuple(self._rows[c].view for c in self.classes)
        self.mults = tuple(self._mults[c].view for c in self.classes)
        self.plain = tuple(bool(np.all(m == 1)) for m in self.mults)
        self.offsets = tuple(accumulate((p.shape[0] for p in self.points), initial=0))
        self.total = int(sum(int(m.sum()) for m in self.mults))

    def _contiguous_cols(self) -> dict:
        """Column maps of a fresh class-contiguous joint layout."""
        return {
            c: np.arange(self.offsets[j], self.offsets[j + 1], dtype=np.int64)
            for j, c in enumerate(self.classes)
        }

    def _is_plain(self, cols: dict, storage: int) -> bool:
        """Whether *cols* tile ``0..storage-1`` in class order, no dead slots.

        That is the case where a joint kernel output splits into the
        classes by free slices at :attr:`offsets` instead of gathers.
        """
        joint = np.concatenate([cols[c] for c in self.classes])
        return bool(np.array_equal(joint, np.arange(storage)))

    def _refresh_layout(self) -> None:
        """Re-check whether the joint layouts still admit plain slicing."""
        self._dense_plain = self._is_plain(self._dense_cols, len(self._dense))
        self._bit_plain = self._bit_index is not None and self._is_plain(
            self._bit_cols, self._bit_index.storage_size
        )

    @property
    def dataset(self):
        """The current contents as an immutable dataset of the input's kind.

        Materialized lazily after a mutation and cached until the next
        one, so repeated access (and the identity check in
        :func:`~repro.knn.engine.as_engine`) stays cheap in between.
        """
        if self._snapshot is None:
            if self.binary:
                self._snapshot = Dataset(
                    np.array(self.points[0]),
                    np.array(self.points[1]),
                    positive_multiplicities=np.array(self.mults[0]),
                    negative_multiplicities=np.array(self.mults[1]),
                    discrete=self.discrete,
                )
            else:
                self._snapshot = MultiClassDataset(
                    np.vstack(self.points),
                    np.concatenate(
                        [
                            np.full(p.shape[0], c, dtype=np.int64)
                            for c, p in zip(self.classes, self.points)
                        ]
                    ),
                    multiplicities=np.concatenate(self.mults),
                    discrete=self.discrete,
                )
        return self._snapshot

    # -- backend selection ----------------------------------------------

    def _data_is_binary(self) -> bool:
        """Whether every current point is strictly 0/1."""
        return all(is_binary(rows) for rows in self.points)

    def _resolve_backend(self, backend: str) -> str:
        """Validate an explicit backend against the data, or run the auto rule."""
        if backend not in BACKENDS:
            raise ValidationError(
                f"backend must be one of {'|'.join(BACKENDS)}, got {backend!r}"
            )
        if backend == "bitpack":
            from ..neighbors.bitpack import HAVE_BITWISE_COUNT

            if not isinstance(self.metric, HammingMetric):
                raise ValidationError(
                    f"backend='bitpack' requires the Hamming metric, "
                    f"got {self.metric.name!r}"
                )
            if not self._data_is_binary():
                raise ValidationError(
                    "backend='bitpack' requires strictly binary (0/1) data"
                )
            if not HAVE_BITWISE_COUNT:  # pragma: no cover - numpy >= 2 in CI
                raise ValidationError(
                    "backend='bitpack' requires numpy >= 2.0 (np.bitwise_count)"
                )
            return backend
        if backend in ("kdtree", "ivf"):
            if not isinstance(self.metric, (LpMetric, HammingMetric)):
                raise ValidationError(
                    f"backend={backend!r} requires an lp or Hamming metric, "
                    f"got {self.metric.name!r}"
                )
            return backend
        if backend == "auto":
            return self._auto_backend()
        return backend

    def _auto_backend(self) -> str:
        """Pick the fastest exact backend for this ``(data, metric)``.

        The engine's batch-setting rule, separate from the standalone
        :func:`repro.neighbors.build_index` one: the bit-packed popcount
        index for binary Hamming data; the KD-tree only where its
        Python-level traversal actually beats one vectorized kernel pass
        (lp, at most :data:`_KDTREE_AUTO_MAX_DIM` dimensions, at least
        :data:`_KDTREE_AUTO_MIN_POINTS` points); dense broadcast kernels
        otherwise — never IVF.
        """
        from ..neighbors.bitpack import HAVE_BITWISE_COUNT

        if (
            HAVE_BITWISE_COUNT
            and isinstance(self.metric, HammingMetric)
            and self._data_is_binary()
        ):
            return "bitpack"
        if (
            isinstance(self.metric, LpMetric)
            and self.dim <= _KDTREE_AUTO_MAX_DIM
            and self.total >= _KDTREE_AUTO_MIN_POINTS
        ):
            return "kdtree"
        return "dense"

    def _ensure_ivf(self) -> None:
        """Build the per-class IVF indexes that are missing.

        Same multiplicity-expanded-row convention as the KD-trees.  A
        class that is (still) empty gets no index — one may be empty at
        construction, and :meth:`add` promotes it to a real index the
        moment its first row arrives.
        """
        from ..neighbors.ivf import IVFIndex

        for c, rows, mults in zip(self.classes, self.points, self.mults):
            if c not in self._ivfs and rows.shape[0]:
                self._ivfs[c] = IVFIndex(np.repeat(rows, mults, axis=0), self.metric)

    def _degrade_bitpack_to_dense(self) -> None:
        """Drop the packed index: the data outgrew what bitpack can serve.

        Only reachable for an auto-selected backend (an explicit
        ``backend="bitpack"`` rejects non-binary batches instead).  The
        joint dense store is maintained at all times, so degrading is
        free — the batch paths simply stop routing through popcounts.
        """
        self._bit_index = None
        self._bit_cols = {}
        self._bit_plain = False
        self.backend = "dense"

    # -- kernels ----------------------------------------------------------

    def class_blocks(self, pts: np.ndarray) -> list[np.ndarray]:
        """Per-class surrogate blocks (class order) from ONE joint kernel pass.

        Integer popcount counts when the packed index exists and every
        query row is binary (the index only accepts {0,1} queries), the
        metric's dense surrogate kernel otherwise — free slices at
        :attr:`offsets` while that layout is class-contiguous, column
        gathers after interleaving mutations.  Values agree bit for bit
        with the row-wise ``powers_to`` kernel on integer-valued data
        whichever layout or backend serves them.
        """
        if self._bit_index is not None and is_binary(pts):
            matrix = self._bit_index.counts_matrix(pts)
            cols, plain = self._bit_cols, self._bit_plain
        else:
            matrix = self.metric.powers_matrix(pts, self._dense.view)
            cols, plain = self._dense_cols, self._dense_plain
        if plain:
            o = self.offsets
            return [matrix[:, o[j] : o[j + 1]] for j in range(len(self.classes))]
        return [matrix[:, cols[c]] for c in self.classes]

    def class_indexes(self) -> list:
        """The per-class KD-trees or IVF indexes in class order.

        An entry is None for a class without an index (an empty class
        under IVF); the list is empty for the joint-layout backends.
        """
        if self.backend not in ("kdtree", "ivf"):
            return []
        indexes = self._trees if self.backend == "kdtree" else self._ivfs
        return [indexes.get(c) for c in self.classes]

    def ivf_stats(self) -> dict:
        """Summed certify/fallback/requantize counters of the IVF indexes."""
        totals = {"certified": 0, "fallback": 0, "requantized": 0}
        for index in self._ivfs.values():
            for key in totals:
                totals[key] += index.stats[key]
        return totals

    # -- mutation protocol ----------------------------------------------

    def check(self, points, labels, multiplicities=None, *, op: str = "add") -> tuple:
        """Validate a mutation batch **without applying it**.

        Raises exactly when :meth:`add` / :meth:`remove` (``op`` =
        ``"add"`` / ``"remove"``) would.  A removal must find every row
        in its class with at least the requested multiplicity, and must
        leave a binary store one point, a multiclass store two labels.
        Returns the normalized ``(points, labels, multiplicities)`` plus
        the removal plan — ``{(label, row index): multiplicity taken}``,
        None for an addition — so :meth:`remove` validates only once.
        """
        pts = as_matrix(points, name="points", dimension=self.dim)
        if pts.shape[0] == 0:
            raise ValidationError("a mutation batch must contain at least one point")
        lab = (bool_labels if self.binary else int_labels)(labels, pts.shape[0])
        mult = check_multiplicities(multiplicities, pts.shape[0], name="multiplicities")
        if self.discrete and not is_binary(pts):
            raise ValidationError(
                "points must contain only 0/1 entries for the discrete setting"
            )
        pts = np.ascontiguousarray(pts)
        if op == "add":
            # An *explicitly requested* bitpack backend is a contract:
            # reject data it cannot pack.  An auto-selected one degrades
            # to the dense kernels instead (see add).
            if (
                self._bit_index is not None
                and self.requested_backend != "auto"
                and not is_binary(pts)
            ):
                raise ValidationError(
                    "backend='bitpack' requires strictly binary (0/1) points; "
                    "rebuild the engine with backend='dense' for general data"
                )
            return pts, lab, mult, None
        if op != "remove":
            raise ValidationError(f"op must be 'add' or 'remove', got {op!r}")
        removals: dict = {}
        for row, m, c in zip(pts, mult.tolist(), lab.tolist()):
            idx = self._lookups[c].get(row.tobytes()) if c in self._lookups else None
            if idx is None:
                raise ValidationError(
                    f"cannot remove a point absent from {class_name(c)}: {row.tolist()}"
                )
            removals[(c, idx)] = removals.get((c, idx), 0) + m
        taken = dict.fromkeys(self.classes, 0)
        for (c, idx), m in removals.items():
            have = int(self._mults[c].view[idx])
            if have < m:
                raise ValidationError(
                    f"cannot remove {m} cop(ies) of a point with "
                    f"multiplicity {have} in {class_name(c)}"
                )
            taken[c] += m
        check_survivors(
            sum(int(mults.sum()) > taken[c] for c, mults in zip(self.classes, self.mults)),
            binary=self.binary,
        )
        return pts, lab, mult, removals

    def add(self, points, labels, multiplicities=None) -> None:
        """Validate and insert a batch in place; bumps :attr:`version`."""
        pts, lab, mult, _ = self.check(points, labels, multiplicities, op="add")
        if self._bit_index is not None and not is_binary(pts):
            self._degrade_bitpack_to_dense()
        appended: dict = {}
        for row, m, c in zip(pts, mult.tolist(), lab.tolist()):
            if c not in self._rows:
                self._new_class(c)
            rows, mults, lookup = self._rows[c], self._mults[c], self._lookups[c]
            key = row.tobytes()
            idx = lookup.get(key)
            if idx is None:
                lookup[key] = len(rows)
                appended.setdefault(c, []).append(len(rows))
                rows.append(row.reshape(1, -1))
                mults.append(np.array([m], dtype=np.int64))
            else:
                mults.assign(idx, int(mults.view[idx]) + m)
            for index in (self._trees.get(c), self._ivfs.get(c)):
                if index is not None:
                    index.add(row, m)
        self._refresh_views()
        if self.backend == "ivf":
            # A class that was empty until this batch gets its index now.
            self._ensure_ivf()
        for c in self.classes:
            if c not in appended:
                continue
            rows = self._rows[c].view[appended[c]]
            start = len(self._dense)
            self._dense.append(rows)
            slots = np.arange(start, start + rows.shape[0], dtype=np.int64)
            self._dense_cols[c] = np.concatenate([self._dense_cols[c], slots])
            if self._bit_index is not None:
                bit_slots = self._bit_index.append(rows)
                self._bit_cols[c] = np.concatenate([self._bit_cols[c], bit_slots])
        self._refresh_layout()
        self._bump()

    def _new_class(self, c) -> None:
        """Empty per-class state for a label seen for the first time."""
        self._rows[c] = GrowableMatrix(np.empty((0, self.dim)))
        self._mults[c] = GrowableMatrix(np.empty(0, dtype=np.int64))
        self._lookups[c] = {}
        self._dense_cols[c] = np.empty(0, dtype=np.int64)
        if self._bit_index is not None:
            self._bit_cols[c] = np.empty(0, dtype=np.int64)
        if self.backend == "kdtree":
            from ..neighbors.kdtree import LazyKDTree

            self._trees[c] = LazyKDTree(np.empty((0, self.dim)), self.metric)
        self.classes = tuple(sorted([*self.classes, c]))

    def remove(self, points, labels, multiplicities=None) -> None:
        """Validate and remove a batch in place; bumps :attr:`version`.

        Rows whose multiplicity reaches zero are compacted out of the
        stores (order preserved), tombstoned in the bit-packed index and
        overlaid as deletions on the KD-trees; a multiclass class
        emptied entirely disappears.
        """
        pts, lab, mult, removals = self.check(points, labels, multiplicities, op="remove")
        for (c, idx), m in removals.items():
            mults = self._mults[c]
            mults.assign(idx, int(mults.view[idx]) - m)
        # Validation guaranteed each row exists in its class, so a class
        # index exists wherever the backend keeps one.
        for row, m, c in zip(pts, mult.tolist(), lab.tolist()):
            for index in (self._trees.get(c), self._ivfs.get(c)):
                if index is not None:
                    index.remove(row, m)
        dead: dict = {}
        for c in self.classes:
            dead[c] = dead_idx = np.flatnonzero(self._mults[c].view == 0)
            if dead_idx.size:
                self._rows[c].delete(dead_idx)
                self._mults[c].delete(dead_idx)
                self._lookups[c] = row_lookup(self._rows[c].view)
        dead_cols = np.concatenate([self._dense_cols[c][dead[c]] for c in self.classes])
        if dead_cols.size:
            keep = np.ones(len(self._dense), dtype=bool)
            keep[dead_cols] = False
            mapping = np.cumsum(keep, dtype=np.int64) - 1
            self._dense.delete(dead_cols)
            for c in self.classes:
                self._dense_cols[c] = mapping[np.delete(self._dense_cols[c], dead[c])]
        if self._bit_index is not None:
            for c in self.classes:
                if dead[c].size:
                    self._bit_index.tombstone(self._bit_cols[c][dead[c]])
                    self._bit_cols[c] = np.delete(self._bit_cols[c], dead[c])
            if self._bit_index.dead_fraction > _BITPACK_COMPACT_FRACTION:
                mapping = self._bit_index.compact()
                for c in self.classes:
                    self._bit_cols[c] = mapping[self._bit_cols[c]]
        if not self.binary:
            for c in [c for c in self.classes if len(self._rows[c]) == 0]:
                for state in (self._rows, self._mults, self._lookups, self._dense_cols):
                    del state[c]
                for state in (self._bit_cols, self._trees, self._ivfs):
                    state.pop(c, None)
            self.classes = tuple(c for c in self.classes if c in self._rows)
        self._refresh_views()
        self._refresh_layout()
        self._bump()

    def _bump(self) -> None:
        """Invalidate the dataset snapshot and advance the version counter."""
        self._snapshot = None
        self.version += 1

    # -- query validation ------------------------------------------------

    def need(self, k: int) -> int:
        """``(k+1)/2`` after validating k against the dataset size."""
        k = check_odd_k(k)
        if self.total < k:
            raise ValidationError(
                f"the dataset must contain at least k={k} points (has {self.total})"
            )
        return (k + 1) // 2

    def check_query(self, x) -> np.ndarray:
        """One query point as a contiguous float vector of the right dimension."""
        xv = as_vector(x, name="x")
        if xv.shape[0] != self.dim:
            raise ValidationError(f"x has dimension {xv.shape[0]}, dataset has {self.dim}")
        return np.ascontiguousarray(xv)

    def check_queries(self, points) -> np.ndarray:
        """A query matrix of the right dimension."""
        return as_matrix(points, name="points", dimension=self.dim)

    # -- pickling ---------------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle without the derived class-ordered views."""
        state = self.__dict__.copy()
        for view in ("points", "mults", "plain", "offsets", "total"):
            del state[view]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._refresh_views()


class StoreBacked:
    """The surface both kNN engines read straight through to their store.

    A mixin over ``self._store`` (a :class:`LabeledStore`), not a common
    engine: the engines share no query semantics, and neither subclasses
    the other.
    """

    _store: LabeledStore

    @property
    def dataset(self):
        """The current contents as an immutable dataset of the input's kind.

        The snapshot is materialized lazily after a mutation and cached
        until the next one, so repeated access (and the identity check
        in :func:`~repro.knn.engine.as_engine`) stays cheap in between.
        """
        return self._store.dataset

    @property
    def class_sizes(self) -> dict:
        """``{label: points counting multiplicities}`` in class order.

        A binary engine keys its positives ``True`` and its negatives
        ``False``.  Read from the store's counters, so it never
        materializes :attr:`dataset`.
        """
        store = self._store
        return {c: int(m.sum()) for c, m in zip(store.classes, store.mults)}

    @property
    def backend(self) -> str:
        """The index backend serving the batch paths (auto rule resolved)."""
        return self._store.backend

    @property
    def version(self) -> int:
        """Mutation counter: 0 at construction, +1 per applied batch."""
        return self._store.version

    def check_mutation(self, points, labels, multiplicities=None, *, op: str = "add"):
        """Validate a mutation batch **without applying it**.

        Raises exactly when the matching ``add_points`` /
        ``remove_points`` (``op`` = ``"add"`` / ``"remove"``) call
        would; callers coordinating several engines over one dataset
        (the serve layer) pre-validate against all of them so a refusal
        can never leave the engines half-mutated.  Returns the
        normalized ``(points, labels, multiplicities)`` triple.
        """
        return self._store.check(points, labels, multiplicities, op=op)[:3]

    def __setstate__(self, state: dict) -> None:
        """Restore a pickled engine; refuses a state without a labeled store.

        Engines pickled before the store existed carry their rows in an
        older attribute layout; adopting one would fail on its first
        query.  Raising here makes a warm-engine restore fall back to a
        cold build from the snapshot's dataset instead.
        """
        if not isinstance(state.get("_store"), LabeledStore):
            raise ValidationError(
                f"pickled {type(self).__name__} predates the labeled store; "
                "rebuild it from its dataset"
            )
        self.__dict__.update(state)
