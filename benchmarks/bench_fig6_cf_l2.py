"""Figure 6b: counterfactual (l2) runtimes on digit images.

Paper workload: MNIST rescaled to side lengths 12..28, N in 250..1000,
closest l2 counterfactual via the Theorem 2 convex program (cvxpy in the
paper, our active-set QP here).  Scaled grid: sides {8, 12, 16}, N in
{50, 100, 150}.  Expected shape: slow growth in N with a mild
dimension dependence.  The best-first sweep bounds every piece in one
vectorized pass and usually projects onto a single piece (one per
opposite-class point exists for k = 1), so one LP and one projection
over about N/2 constraints dominate — not the one convex program per
piece behind the paper's Figure 6b.
"""

from __future__ import annotations

import pytest

from repro.counterfactual import closest_counterfactual
from repro.datasets import DigitImages

SIDES = [8, 12, 16]
SIZES = [50, 100, 150]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("side", SIDES)
def test_fig6b_counterfactual_l2(benchmark, rng, side, size):
    images = DigitImages.generate(rng, digits=(4, 9), count_per_digit=size // 2, side=side)
    data = images.to_dataset(positive_digit=4)
    query = DigitImages.generate(rng, digits=(4,), count_per_digit=1, side=side)
    x = query.flattened()[0]

    def task():
        return closest_counterfactual(data, 1, "l2", x)

    result = benchmark.pedantic(task, rounds=2, iterations=1, warmup_rounds=0)
    assert result.found
