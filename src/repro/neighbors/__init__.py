"""Nearest-neighbor search substrate: the engine's index layer.

The paper's experiments rely on a fast NN library (FAISS) for the inner
loop of the Proposition 4 minimal-sufficient-reason algorithm.  This
package provides the offline equivalents, and since the backend-pluggable
:class:`~repro.knn.QueryEngine` it is no longer standalone ablation code:
the engine routes its batch primitives through these indexes, selected by
``backend=`` or the engine's own auto rule (:mod:`repro.knn.store`: the
KD-tree for lp at up to 4 dimensions and 16,384 points or more, never
IVF).  :func:`build_index` is the standalone rule for direct use (the
KD-tree at up to 8 dimensions from 64 points, IVF from 65,536 points).

* :class:`BruteForceIndex` — vectorized exact search, any metric (the
  engine's ``"dense"`` backend);
* :class:`KDTreeIndex` — a from-scratch KD-tree, exact for lp metrics
  (and Hamming, which embeds into l1 on the hypercube);
* :class:`BitPackedHammingIndex` — packed-word popcount search over
  {0,1}^n, bit-identical to the dense Hamming kernel and several times
  faster (the FAISS-style binary index);
* :class:`IVFIndex` — a certified inverted file: FAISS's
  approximate-first probe plan made exact by a triangle-inequality
  certificate, falling back to a full scan whenever the certificate
  fails (the million-point backend).

The hot inner loops of the dense and bit-packed paths live in
:mod:`repro.neighbors.kernels`, which dispatches between the original
numpy expressions and optional numba-compiled twins (the
``REPRO_KERNELS`` environment variable pins a choice).

All share the :class:`NNIndex` interface: ``query(x, k)`` returns the
``k`` smallest distances and their point indices, with deterministic
index-order tie-breaking so results are reproducible across backends.

The layer is *mutable* end to end (the streaming-updates tentpole):
:class:`GrowableMatrix` gives the brute/dense paths amortized-doubling
appends, :meth:`BitPackedHammingIndex.append` packs new words in place
while removals tombstone storage slots, and :class:`LazyKDTree` overlays
deltas on the last built tree until a staleness threshold triggers a
rebuild — each strategy bit-identical to a from-scratch rebuild (the
``tests/test_fuzz_parity.py`` differential harness enforces this).
"""

from __future__ import annotations

from .base import NNIndex, build_index
from .bitpack import BitPackedHammingIndex
from .brute import BruteForceIndex, GrowableMatrix
from .ivf import IVFIndex
from .kdtree import KDTreeIndex, LazyKDTree

__all__ = [
    "NNIndex",
    "BruteForceIndex",
    "GrowableMatrix",
    "KDTreeIndex",
    "LazyKDTree",
    "BitPackedHammingIndex",
    "IVFIndex",
    "build_index",
]
