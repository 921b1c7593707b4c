"""The shared vectorized query core behind every explanation pipeline.

Every algorithm in the library — classification, abductive sufficient
reasons, counterfactual search over l1/l2/lp/Hamming — reduces to one
primitive: ranked (surrogate) distances from a query point to the
labeled sets ``S+`` and ``S-``.  :class:`QueryEngine` owns a
``(dataset, metric)`` pair and serves that primitive two ways:

* **batched** — :meth:`powers_matrix`, :meth:`radii_batch`,
  :meth:`classify_batch` and :meth:`margins_batch` evaluate whole query
  matrices through the selected *index backend*, with no Python-level
  per-row loop; query rows are processed in memory-capped blocks, and
  :meth:`map_shards` fans row shards out to a process pool;
* **single-point** — :meth:`powers`, :meth:`radii`, :meth:`classify`,
  :meth:`margin` and :meth:`neighbors` compute one query's distance
  vectors with the metric's row-wise kernel on every call, whose
  boundary geometry is exact even on general floats (the batch kernels
  agree bit for bit on integer-valued data, up to roundoff otherwise).
  The engine keeps nothing between calls: a caller that asks about one
  query many times (the Proposition-2 greedy) works out what it needs
  once, as :class:`~repro.abductive.check.SufficiencyCheck` does.

The rows themselves live in a :class:`~repro.knn.store.LabeledStore`
with the classes ``(True, False)`` — positives first, the order
Proposition-1 ties and :meth:`neighbors` observe.  The store is the one
implementation both engines share of the per-class row stores, the
joint dense/bit-packed kernel layout, the per-class KD-trees and IVF
indexes, backend selection (``backend=`` ``"auto"`` | ``"dense"`` |
``"kdtree"`` | ``"bitpack"`` | ``"ivf"``, documented in
:mod:`repro.knn.store`) and the mutation protocol
(:meth:`add_points` / :meth:`remove_points`, applied incrementally to
the selected backend).  This module keeps what is binary: the
Proposition-1 radii and tie rules, the distance vote and sharding.
Each mutation bumps :attr:`version`; a mutated engine is bit-identical
to an engine freshly built from :attr:`dataset` (the randomized
differential harness in ``tests/test_fuzz_parity.py`` enforces this
per backend).

The ``(r+, r-)`` radii implement the ball-inflation rule of
Proposition 1: ``r+`` (``r-``) is the surrogate distance at which the
``(k+1)/2``-th positive (negative) point is reached, counting
multiplicities, ``+inf`` when that many points do not exist, and
``f(x) = 1 iff r+ <= r-`` (optimistic ties favor the positive class).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..exceptions import ValidationError
from ..metrics import Metric, default_metric_name, get_metric
from .dataset import Dataset
from .store import BACKENDS as BACKENDS  # re-exported: the CLI and tests import it here
from .store import LabeledStore, StoreBacked

#: cap on the number of float64 elements of a (block, dataset) surrogate
#: matrix held at once while reducing radii for a batch of queries.
_BLOCK_ELEMENTS = 1 << 22

#: vote modes of both engines' ``classify`` and ``classify_batch``.
VOTES = ("uniform", "distance")

#: batch methods :meth:`QueryEngine.map_shards` can fan out.
_SHARD_METHODS = (
    "classify_batch",
    "margins_batch",
    "radii_batch",
    "powers_matrix",
    "distances_matrix",
)


def _kth_smallest_with_multiplicity(
    values: np.ndarray, multiplicities: np.ndarray, k: int
) -> float:
    """k-th smallest element (1-based) of *values* repeated per multiplicity.

    Returns ``+inf`` when fewer than *k* elements exist in total.
    """
    if multiplicities.sum() < k:
        return np.inf
    order = np.argsort(values, kind="stable")
    running = 0
    for idx in order:
        running += int(multiplicities[idx])
        if running >= k:
            return float(values[idx])
    return np.inf  # pragma: no cover - unreachable given the sum check


def _top_need_batch(
    values: np.ndarray, multiplicities: np.ndarray, need: int, *, plain: bool
) -> np.ndarray:
    """Row-wise ``need`` smallest elements (with multiplicities), ascending.

    Returns a ``(q, need)`` matrix whose column ``j`` is the ``(j+1)``-th
    order statistic of each row of *values* expanded per multiplicity,
    ``+inf``-padded when fewer than ``need`` elements exist.  Its last
    column is the Proposition-1 radius of one class; the multiclass
    engine combines whole blocks into exact one-vs-rest radii.  *plain*
    marks the (common) multiplicity-free case, where a partial sort
    suffices; otherwise a stable full sort plus a cumulative sum of
    multiplicities reproduces :func:`_kth_smallest_with_multiplicity`
    exactly.  Works on integer-count matrices (the bitpack backend) as
    well as float64 surrogates.
    """
    q = values.shape[0]
    total = int(multiplicities.sum())
    out = np.full((q, need), np.inf)
    if values.shape[1] == 0 or total == 0:
        return out
    if plain:
        take = min(need, values.shape[1])
        part = np.partition(values, take - 1, axis=1)[:, :take]
        out[:, :take] = np.sort(part, axis=1)
        return out
    order = np.argsort(values, axis=1, kind="stable")
    running = np.cumsum(multiplicities[order], axis=1)
    sorted_vals = np.take_along_axis(values, order, axis=1)
    rows = np.arange(q)
    for j in range(1, min(need, total) + 1):
        first = np.argmax(running >= j, axis=1)
        out[:, j - 1] = sorted_vals[rows, first]
    return out


def _vote_weights(sel_powers: np.ndarray, metric) -> np.ndarray:
    """Distance-vote weight matrix for ``(q, k)`` selected powers.

    Each neighbor weighs ``1 / d`` in *true* distance.  A query that
    hits a training point exactly (power 0) makes the inverse diverge,
    so the standard limit rule applies: the zero-distance neighbors get
    weight 1 and every other neighbor weight 0 — the exact hits decide
    the vote alone.  Both the engines and the definition-based reference
    implementations route through this one function, so the weighted
    sums they compare are term-for-term identical.
    """
    zero = sel_powers == 0
    with np.errstate(divide="ignore"):
        weights = 1.0 / metric._power_to_distance(sel_powers)
    exact = zero.any(axis=1)
    weights[exact] = 0.0
    weights[zero] = 1.0
    return weights


def _vote_tied(d: np.ndarray, sizes, k: int, vote: str, metric) -> np.ndarray:
    """``(q, C)`` mask of the classes tied for the top vote of each row.

    *d* holds multiplicity-expanded powers in canonical order — one
    block of ``sizes[j]`` columns per class — so the stable sort breaks
    selection ties among the k nearest by that order.  ``"uniform"``
    counts the selected points per class, ``"distance"`` sums their
    :func:`_vote_weights`.
    """
    labels = np.repeat(np.arange(len(sizes)), sizes)
    order = np.argsort(d, axis=1, kind="stable")[:, :k]
    selected = labels[order]
    if vote == "uniform":
        weights = np.ones(order.shape)
    else:
        weights = _vote_weights(np.take_along_axis(d, order, axis=1), metric)
    scores = np.stack(
        [(weights * (selected == j)).sum(axis=1) for j in range(len(sizes))], axis=1
    )
    return scores >= scores.max(axis=1)[:, None]


def _check_vote(vote: str) -> None:
    """Reject a *vote* outside :data:`VOTES`."""
    if vote not in VOTES:
        raise ValidationError(f"vote must be one of {'|'.join(VOTES)}, got {vote!r}")


def _expand(powers, mults) -> np.ndarray:
    """One query's per-class power vectors, class order, repeated per multiplicity."""
    return np.concatenate([np.repeat(p, m) for p, m in zip(powers, mults)])


def _vote_batch(store, pts: np.ndarray, k: int, vote: str, metric) -> np.ndarray:
    """:func:`_vote_tied` for query rows, one joint kernel pass per block.

    Every backend routes through the store's joint layout here (a tree
    cannot enumerate the k nearest faster than one vectorized scan at
    these scales); blocks are capped by the expanded point count.
    """
    sizes = [int(m.sum()) for m in store.mults]
    tied = np.empty((pts.shape[0], len(sizes)), dtype=bool)
    rows = max(1, _BLOCK_ELEMENTS // max(1, store.total))
    for start in range(0, pts.shape[0], rows):
        block = slice(start, start + rows)
        d = np.hstack(
            [
                np.repeat(np.asarray(values, dtype=np.float64), mults, axis=1)
                for values, mults in zip(store.class_blocks(pts[block]), store.mults)
            ]
        )
        tied[block] = _vote_tied(d, sizes, k, vote, metric)
    return tied


def _signed_margins(r_own: np.ndarray, r_other: np.ndarray) -> np.ndarray:
    """``r_other - r_own`` elementwise, ``0.0`` where both radii are infinite."""
    with np.errstate(invalid="ignore"):
        margins = r_other - r_own
    margins[np.isinf(r_own) & np.isinf(r_other)] = 0.0
    return margins


def _shard_call(engine: "QueryEngine", method: str, shard: np.ndarray, k):
    """Module-level worker for :meth:`QueryEngine.map_shards` (picklable)."""
    fn = getattr(engine, method)
    return fn(shard, k) if k is not None else fn(shard)


class QueryEngine(StoreBacked):
    """Vectorized batch and exact single-query primitives over ``(dataset, metric)``.

    Parameters
    ----------
    dataset:
        the labeled examples ``(S+, S-)`` — the *initial* contents;
        :meth:`add_points` / :meth:`remove_points` mutate the engine in
        place afterwards (:attr:`dataset` always reflects the current
        contents).
    metric:
        a :class:`~repro.metrics.Metric` or an alias accepted by
        :func:`~repro.metrics.get_metric` (default Euclidean, or Hamming
        when the dataset is discrete).
    backend:
        index strategy for the batch primitives: ``"auto"`` (default),
        ``"dense"``, ``"kdtree"``, ``"bitpack"`` or ``"ivf"`` — see
        :mod:`repro.knn.store`.  ``"bitpack"`` requires the Hamming
        metric over strictly binary data; ``"kdtree"`` and ``"ivf"``
        require an lp or Hamming metric.
    """

    def __init__(
        self,
        dataset: Dataset,
        metric=None,
        *,
        backend: str = "auto",
    ):
        if not isinstance(dataset, Dataset):
            raise ValidationError("dataset must be a repro.knn.Dataset")
        if metric is None:
            metric = default_metric_name(dataset.discrete)
        self.metric: Metric = get_metric(metric)
        self._store = LabeledStore(dataset, self.metric, backend)

    # -- streaming mutation ----------------------------------------------

    def add_points(self, points, labels, multiplicities=None) -> int:
        """Insert labeled points in place; returns the new :attr:`version`.

        Canonical streaming semantics (shared with
        :meth:`Dataset.with_added <repro.knn.dataset.Dataset.with_added>`):
        a point already present in its class gets its multiplicity
        incremented, a new point is appended at the end of its class,
        and existing row order is preserved.  The backend index absorbs
        the change incrementally.
        """
        self._store.add(points, labels, multiplicities)
        return self.version

    def remove_points(self, points, labels, multiplicities=None) -> int:
        """Remove labeled points in place; returns the new :attr:`version`.

        The mirror of :meth:`add_points`: every listed point must exist
        in its class with at least the requested multiplicity, and
        removing the engine's last point is rejected — validation runs
        up front, so a failed call leaves the engine untouched.  Rows
        whose multiplicity reaches zero are compacted out of the stores
        (order preserved), tombstoned in the bit-packed index, and
        overlaid as deletions on the KD-trees.
        """
        self._store.remove(points, labels, multiplicities)
        return self.version

    # -- distances ------------------------------------------------------

    def powers(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Surrogate-distance vectors ``(to S+, to S-)`` for one query.

        Computed by the metric's row-wise kernel on every call.
        """
        xv = self._store.check_query(x)
        pos, neg = self._store.points
        return self.metric.powers_to(pos, xv), self.metric.powers_to(neg, xv)

    def powers_matrix(self, points) -> np.ndarray:
        """``(q, |S+| + |S-|)`` surrogate matrix, positives first.

        One vectorized kernel call per memory-capped row block, routed
        through the selected backend (the KD-tree backend falls back to
        the dense kernel here — a tree cannot beat a full-matrix scan);
        row ``i`` agrees with ``np.concatenate(self.powers(points[i]))``
        — bit for bit on integer-valued data, up to roundoff on general
        floats (see :meth:`~repro.metrics.Metric.powers_matrix`).
        """
        blocks = self._store.class_blocks(self._store.check_queries(points))
        return np.hstack([np.asarray(block, dtype=np.float64) for block in blocks])

    def distances_matrix(self, points) -> np.ndarray:
        """``(q, |S+| + |S-|)`` true-distance matrix, positives first."""
        pts = self._store.check_queries(points)
        return np.hstack([self.metric.distances_matrix(pts, p) for p in self._store.points])

    # -- radii (Proposition 1 ball inflation) ---------------------------

    def radii(self, x, k: int) -> tuple[float, float]:
        """``(r+, r-)`` for one query, from the row-wise :meth:`powers`."""
        need = self._store.need(k)
        pos_d, neg_d = self.powers(x)
        pos_mult, neg_mult = self._store.mults
        r_pos = _kth_smallest_with_multiplicity(pos_d, pos_mult, need)
        r_neg = _kth_smallest_with_multiplicity(neg_d, neg_mult, need)
        return r_pos, r_neg

    def radii_batch(self, points, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``(r+, r-)`` arrays for every row of *points*.

        The joint-layout backends reduce one kernel pass per
        memory-capped query block; KD-tree/IVF ask each class index
        directly (an empty class without an index contributes ``+inf``,
        the :func:`_kth_smallest_with_multiplicity` convention).
        """
        store = self._store
        need = store.need(k)
        pts = store.check_queries(points)
        q = pts.shape[0]
        indexes = store.class_indexes()
        if indexes:
            r_pos, r_neg = (
                index.kth_power_batch(pts, need) if index is not None else np.full(q, np.inf)
                for index in indexes
            )
            return r_pos, r_neg
        r_pos = np.empty(q)
        r_neg = np.empty(q)
        (pos_mult, neg_mult), (pos_plain, neg_plain) = store.mults, store.plain
        rows = max(1, _BLOCK_ELEMENTS // max(1, store.offsets[-1]))
        for start in range(0, q, rows):
            block = slice(start, min(start + rows, q))
            pos_p, neg_p = store.class_blocks(pts[block])
            r_pos[block] = _top_need_batch(pos_p, pos_mult, need, plain=pos_plain)[:, -1]
            r_neg[block] = _top_need_batch(neg_p, neg_mult, need, plain=neg_plain)[:, -1]
        return r_pos, r_neg

    def ivf_stats(self) -> dict:
        """Summed certify/fallback/requantize counters of the IVF backend.

        All zeros for other backends (the counters only advance when
        IVF indexes serve queries).
        """
        return self._store.ivf_stats()

    # -- classification and margins -------------------------------------

    def classify(self, x, k: int, *, vote: str = "uniform") -> int:
        """``f^k_{S+,S-}(x)`` as 0 or 1 (exact single-query path).

        ``vote="uniform"`` is the paper's optimistic rule (``r+ <= r-``);
        ``vote="distance"`` weighs each of the k nearest points by its
        inverse true distance (exact hits dominate).  Selection ties at
        the k-th distance break by expanded canonical index (positives
        first — the same order :meth:`neighbors` uses), and a tied
        weight sum goes to the positive class, consistent with the
        optimistic rule — the distance-weighted kNN variant, validated
        against :func:`repro.knn.reference.classify_weighted_by_definition`.
        Both modes read the row-wise :meth:`powers`, so exact distance
        ties hold on general floats.
        """
        if vote == "uniform":
            r_pos, r_neg = self.radii(x, k)
            return 1 if r_pos <= r_neg else 0
        _check_vote(vote)
        self._store.need(k)  # validates odd k and k <= total
        mults = self._store.mults
        d = _expand(self.powers(x), mults)
        tied = _vote_tied(d[None, :], [int(m.sum()) for m in mults], k, vote, self.metric)
        return int(tied[0, 0])

    def classify_batch(self, points, k: int, *, vote: str = "uniform") -> np.ndarray:
        """Vector of ``f(x)`` values for every row of *points*.

        Same *vote* modes and tie rules as :meth:`classify`, from the
        batch kernels (see :meth:`powers_matrix` for their roundoff).
        """
        if vote == "uniform":
            r_pos, r_neg = self.radii_batch(points, k)
            return (r_pos <= r_neg).astype(np.int64)
        _check_vote(vote)
        self._store.need(k)
        pts = self._store.check_queries(points)
        return _vote_batch(self._store, pts, k, vote, self.metric)[:, 0].astype(np.int64)

    def margin(self, x, k: int) -> float:
        """Signed surrogate margin ``r- − r+`` (positive ⇒ class 1)."""
        r_pos, r_neg = self.radii(x, k)
        if np.isinf(r_pos) and np.isinf(r_neg):
            return 0.0
        return float(r_neg - r_pos)

    def margins_batch(self, points, k: int) -> np.ndarray:
        """Vector of signed surrogate margins for every row of *points*."""
        return _signed_margins(*self.radii_batch(points, k))

    # -- sharded batches -------------------------------------------------

    def map_shards(
        self,
        method: str,
        points,
        k: int | None = None,
        *,
        workers: int | None = None,
        min_shard_rows: int = 64,
    ):
        """Evaluate a batch method over row shards in a process pool.

        Splits *points* into up to *workers* row shards, evaluates
        ``getattr(engine, method)`` on each shard in a separate process,
        and concatenates the results — the output is identical to the
        direct call.  Worth it for query matrices large enough that the
        kernel time dominates the cost of shipping the engine to each
        worker.

        Parameters
        ----------
        method:
            one of ``"classify_batch"``, ``"margins_batch"``,
            ``"radii_batch"``, ``"powers_matrix"``,
            ``"distances_matrix"``.
        k:
            required for the radii-based methods, ignored otherwise.
        workers:
            process count (default ``os.cpu_count()``).  ``1`` runs the
            direct call in this process.
        min_shard_rows:
            lower bound on rows per shard; small batches degrade to the
            direct call rather than paying pool startup.
        """
        if method not in _SHARD_METHODS:
            raise ValidationError(
                f"method must be one of {'|'.join(_SHARD_METHODS)}, got {method!r}"
            )
        needs_k = method in ("classify_batch", "margins_batch", "radii_batch")
        if needs_k:
            if k is None:
                raise ValidationError(f"method {method!r} requires k")
            self._store.need(k)  # validate before forking
        else:
            k = None
        pts = self._store.check_queries(points)
        if workers is None:
            workers = os.cpu_count() or 1
        workers = max(1, int(workers))
        n_shards = min(workers, max(1, pts.shape[0] // max(1, int(min_shard_rows))))
        if n_shards <= 1:
            return _shard_call(self, method, pts, k)
        shards = np.array_split(pts, n_shards)
        with ProcessPoolExecutor(max_workers=n_shards) as pool:
            parts = list(
                pool.map(
                    _shard_call,
                    [self] * n_shards,
                    [method] * n_shards,
                    shards,
                    [k] * n_shards,
                )
            )
        if method == "radii_batch":
            r_pos = np.concatenate([p[0] for p in parts])
            r_neg = np.concatenate([p[1] for p in parts])
            return r_pos, r_neg
        if method in ("powers_matrix", "distances_matrix"):
            return np.vstack(parts)
        return np.concatenate(parts)

    # -- neighbors -------------------------------------------------------

    def neighbors(self, x, k: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The k nearest points and their boolean labels (multiplicity-expanded).

        Ties at the boundary are broken by expanded index (positives
        first), matching :meth:`Dataset.all_points` ordering.
        """
        k = 1 if k is None else int(k)
        d = _expand(self.powers(x), self._store.mults)
        points, labels = self.dataset.all_points()
        order = np.argsort(d, kind="stable")[:k]
        return points[order], labels[order]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryEngine(metric={self.metric.name}, backend={self.backend}, "
            f"version={self.version}, {self.dataset!r})"
        )


def as_engine(
    dataset: Dataset, metric, engine: QueryEngine | None, *, backend: str = "auto"
) -> QueryEngine:
    """Resolve the optional ``engine=`` argument of the pipeline entry points.

    Returns *engine* after checking it serves the same dataset and
    metric; builds a fresh one (with the requested *backend*) when None.
    A mutated engine's :attr:`~QueryEngine.dataset` snapshot is the
    object to pass here — it is stable between mutations.
    """
    if engine is None:
        return QueryEngine(dataset, metric, backend=backend)
    if not isinstance(engine, QueryEngine):
        raise ValidationError("engine must be a repro.knn.QueryEngine")
    if engine.dataset is not dataset:
        raise ValidationError("engine was built for a different dataset")
    if metric is not None and engine.metric.name != get_metric(metric).name:
        raise ValidationError(
            f"engine uses metric {engine.metric.name!r}, "
            f"the call requested {get_metric(metric).name!r}"
        )
    return engine
