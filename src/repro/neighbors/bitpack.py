"""Bit-packed Hamming nearest-neighbor index (popcount on uint64 words).

The paper credits "a library for fast NN-classification such as FAISS"
for the performance of its minimal-SR pipeline; FAISS's binary indexes
store vectors as packed bit strings and compute Hamming distances with
XOR + popcount.  :class:`BitPackedHammingIndex` is the offline
equivalent: points over {0,1}^n are packed with :func:`np.packbits`
into 64-bit words (a 64x size reduction over float64 rows), and a
query/point distance block is ``popcount(q XOR p)`` accumulated over
the words of each row.

Every count is an exact small integer, so the index is bit-identical
to the dense Gram-expansion kernel of
:class:`~repro.metrics.HammingMetric` — the exactness contract the
:class:`~repro.knn.QueryEngine` backend layer relies on.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError
from ..metrics import HammingMetric
from ..metrics.hamming import is_binary
from .base import NNIndex
from .brute import GrowableMatrix

#: query rows per kernel block: keeps the (rows, size) XOR slab and its
#: popcount accumulator cache-resident (measured fastest around 32 rows
#: on the 5000x128 ``repro bench --workloads hamming_bitpack`` workload).
_QUERY_BLOCK_ROWS = 32

#: the vectorized popcount ufunc arrived in numpy 2.0; older numpys fall
#: back to the dense Gram kernel (the engine's auto rule checks this).
HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")


def pack_binary_rows(points: np.ndarray) -> np.ndarray:
    """Pack a (rows, n) binary matrix into a word-major (W, rows) uint64 array.

    ``W = ceil(n / 64)``; trailing pad bits are zero in every row, so they
    never contribute to an XOR popcount.  The word-major layout makes the
    per-word broadcast against a query column read each point word
    contiguously.
    """
    bits = np.packbits(points.astype(np.uint8), axis=1)
    pad = (-bits.shape[1]) % 8
    if pad:
        bits = np.hstack([bits, np.zeros((bits.shape[0], pad), dtype=np.uint8)])
    words = np.ascontiguousarray(bits).view(np.uint64)
    return np.ascontiguousarray(words.T)


def _count_dtype(dimension: int) -> type:
    """Smallest unsigned dtype that can hold a Hamming distance <= n."""
    if dimension <= np.iinfo(np.uint8).max:
        return np.uint8
    if dimension <= np.iinfo(np.uint16).max:
        return np.uint16
    return np.uint32


class BitPackedHammingIndex(NNIndex):
    """Exact Hamming k-NN over {0,1}^n via packed words and popcount.

    Only accepts the Hamming metric and strictly binary points; queries
    must be binary as well (checked per call).  Distances returned by
    :meth:`query` are integral floats, matching
    :meth:`HammingMetric.distances_to` bit for bit.
    """

    def __init__(self, points, metric="hamming"):
        super().__init__(points, metric)
        if not HAVE_BITWISE_COUNT:  # pragma: no cover - numpy >= 2 in CI
            raise ValidationError(
                "BitPackedHammingIndex requires numpy >= 2.0 (np.bitwise_count)"
            )
        if not isinstance(self.metric, HammingMetric):
            raise ValidationError(
                f"BitPackedHammingIndex requires the Hamming metric, got {self.metric.name}"
            )
        if not is_binary(self.points):
            raise ValidationError(
                "BitPackedHammingIndex requires strictly binary (0/1) points"
            )
        # Storage is append-only: `_word_store` holds packed rows in
        # *insertion* order (word-major after transpose), removals only
        # tombstone their slot in `_alive`, and `compact()` reclaims the
        # space once tombstones dominate.  `storage_size` (live + dead
        # slots) is the column count of `counts_matrix`.
        self._word_store = GrowableMatrix(pack_binary_rows(self.points).T)  # (rows, W)
        self._point_store = GrowableMatrix(self.points)
        self._alive = GrowableMatrix(np.ones(self.points.shape[0], dtype=bool))
        self.points = self._point_store.view
        self._acc_dtype = _count_dtype(self.dimension)
        self._words_major: np.ndarray | None = None  # cached (W, storage) layout

    # -- mutable storage -------------------------------------------------

    @property
    def storage_size(self) -> int:
        """Number of storage slots (live rows plus tombstoned ones)."""
        return len(self._word_store)

    @property
    def size(self) -> int:
        """Number of live (non-tombstoned) indexed points."""
        return int(self._alive.view.sum())

    @property
    def dead_fraction(self) -> float:
        """Share of storage slots occupied by tombstones."""
        storage = self.storage_size
        return 0.0 if storage == 0 else 1.0 - self.size / storage

    def append(self, points) -> np.ndarray:
        """Pack and append binary rows; returns their new storage slots.

        Appends land in amortized-doubling storage (the FAISS-style
        "add to a binary index" path): no existing packed word is ever
        touched, so a stream of inserts costs O(rows) packing work each.
        """
        rows = np.asarray(points, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        rows = self._check_batch(rows)
        start = self.storage_size
        self._word_store.append(pack_binary_rows(rows).T)
        self._point_store.append(rows)
        self._alive.append(np.ones(rows.shape[0], dtype=bool))
        self.points = self._point_store.view
        self._words_major = None
        return np.arange(start, start + rows.shape[0], dtype=np.int64)

    def tombstone(self, slots) -> None:
        """Mark storage *slots* dead; their columns stay in the counts
        matrix (callers must not gather them) until :meth:`compact`."""
        idx = np.asarray(slots, dtype=np.int64).ravel()
        if idx.size == 0:
            return
        if idx.min() < 0 or idx.max() >= self.storage_size:
            raise ValidationError(
                f"slots must be in [0, {self.storage_size}), got {idx.tolist()}"
            )
        alive = self._alive.view
        if not bool(alive[idx].all()):
            raise ValidationError("cannot tombstone an already-dead storage slot")
        self._alive.assign(idx, False)

    def compact(self) -> np.ndarray:
        """Drop tombstoned slots; returns the old-slot → new-slot map.

        Dead slots map to -1.  Callers holding storage-slot arrays (the
        engine's per-class column maps) must remap through the returned
        array.
        """
        alive = np.array(self._alive.view)
        dead = np.flatnonzero(~alive)
        mapping = np.cumsum(alive, dtype=np.int64) - 1
        mapping[~alive] = -1
        if dead.size:
            self._word_store.delete(dead)
            self._point_store.delete(dead)
            self._alive.delete(dead)
            self.points = self._point_store.view
            self._words_major = None
        return mapping

    @property
    def _words(self) -> np.ndarray:
        """Word-major (W, storage) packed layout the kernels consume.

        Rebuilt lazily after a mutation: the contiguous word-major copy
        makes each per-word broadcast read point words sequentially.
        """
        if self._words_major is None:
            self._words_major = np.ascontiguousarray(self._word_store.view.T)
        return self._words_major

    # -- kernels ---------------------------------------------------------

    def _counts_block(self, query_words: np.ndarray, words: np.ndarray) -> np.ndarray:
        """(rows, storage) Hamming counts for one word-major query block.

        Dispatched through the kernel layer: XOR + ``np.bitwise_count``
        broadcasts on the numpy path, a parallel jitted SWAR-popcount
        loop under numba — both produce the same exact integer counts.
        """
        from .kernels import xor_popcount_counts

        return xor_popcount_counts(query_words, words, self._acc_dtype)

    def counts_matrix(self, queries) -> np.ndarray:
        """Full (q, storage_size) integer Hamming-distance matrix, blocked.

        Columns are *storage slots* in insertion order — tombstoned
        slots are still present (their counts are garbage to consumers
        and must not be gathered); the dtype is the smallest unsigned
        integer that can hold the dimension.  Callers that need the
        float64 surrogate-matrix contract should use
        :meth:`powers_matrix`.
        """
        q = self._check_batch(queries)
        words = self._words
        out = np.empty((q.shape[0], self.storage_size), dtype=self._acc_dtype)
        for start in range(0, q.shape[0], _QUERY_BLOCK_ROWS):
            block = slice(start, min(start + _QUERY_BLOCK_ROWS, q.shape[0]))
            out[block] = self._counts_block(pack_binary_rows(q[block]), words)
        return out

    def powers_matrix(self, queries) -> np.ndarray:
        """(q, storage_size) float64 surrogate matrix — bit-identical to the
        dense :meth:`~repro.metrics.Metric.powers_matrix` Hamming kernel."""
        return self.counts_matrix(queries).astype(np.float64)

    # -- NNIndex interface ----------------------------------------------

    def query(self, x, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """The k nearest live rows to *x*: ``(distances, slots)``, ties by slot.

        Returned indices are storage slots (stable across tombstoning,
        remapped only by :meth:`compact`); tombstoned slots are never
        returned.
        """
        xv, k = self._check_query(x, k)
        d = self.counts_matrix(xv.reshape(1, -1))[0]
        slots = np.flatnonzero(self._alive.view)
        order = slots[np.argsort(d[slots], kind="stable")[:k]]
        return d[order].astype(np.float64), order

    # -- validation ------------------------------------------------------

    def _check_batch(self, queries) -> np.ndarray:
        q = np.asarray(queries, dtype=np.float64)
        if q.ndim != 2 or q.shape[1] != self.dimension:
            raise ValidationError(
                f"queries must be a (rows, {self.dimension}) matrix, got shape {q.shape}"
            )
        if not is_binary(q):
            raise ValidationError(
                "BitPackedHammingIndex queries must be strictly binary (0/1)"
            )
        return q
