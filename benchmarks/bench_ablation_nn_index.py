"""Ablation: NN-index backend inside the Prop. 4 / Prop. 6 workloads.

The paper remarks that "the use of a library for fast NN-classification
such as FAISS was key for performance" in the minimal-SR pipeline.
This ablation compares our exact backends — vectorized brute force, the
KD-tree, and the bit-packed popcount index — at low and high dimension,
and at the engine level where ``backend=`` selects the index strategy.
Expected shape: the tree wins only in low dimension (brute force is the
default in the paper's regime of hundreds of features — the classic
curse-of-dimensionality behavior), while the bit-packed index wins
outright on binary Hamming data, which is why ``backend="auto"`` picks
it there.

Run through pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_ablation_nn_index.py -q

The gated dense-vs-bitpack ratio is the ``hamming_bitpack`` workload of
``repro bench`` (floor in ``repro.experiments.bench.FLOORS``).
"""

from __future__ import annotations

import pytest

from repro.knn import Dataset, QueryEngine
from repro.neighbors import BitPackedHammingIndex, BruteForceIndex, KDTreeIndex

CASES = [
    ("low-dim", 3, 4000),
    ("high-dim", 64, 2000),
]


@pytest.mark.parametrize("label, dim, count", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("backend", ["brute", "kdtree"])
def test_nn_index_backend(benchmark, rng, label, dim, count, backend):
    points = rng.normal(size=(count, dim))
    queries = rng.normal(size=(50, dim))
    cls = BruteForceIndex if backend == "brute" else KDTreeIndex
    index = cls(points, "l2")

    def task():
        total = 0
        for q in queries:
            _, idx = index.query(q, k=5)
            total += int(idx[0])
        return total

    benchmark(task)


@pytest.mark.parametrize("backend", ["brute", "bitpack"])
def test_nn_index_hamming_backend(benchmark, rng, backend):
    points = rng.integers(0, 2, size=(2000, 128)).astype(float)
    queries = rng.integers(0, 2, size=(50, 128)).astype(float)
    cls = BruteForceIndex if backend == "brute" else BitPackedHammingIndex
    index = cls(points, "hamming")

    def task():
        total = 0
        for q in queries:
            _, idx = index.query(q, k=5)
            total += int(idx[0])
        return total

    benchmark(task)


@pytest.mark.parametrize("backend", ["dense", "bitpack"])
def test_engine_backend_hamming(benchmark, rng, backend):
    points = rng.integers(0, 2, size=(5000, 128)).astype(float)
    labels = rng.integers(0, 2, size=5000).astype(bool)
    data = Dataset(points[labels], points[~labels])
    queries = rng.integers(0, 2, size=(200, 128)).astype(float)
    engine = QueryEngine(data, "hamming", backend=backend)
    benchmark(lambda: engine.classify_batch(queries, 3))
