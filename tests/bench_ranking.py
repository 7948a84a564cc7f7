"""Microbenchmarks of ranking and crowding at the stack shapes the loop ranks.

The file does not match ``test_*.py``, so the test suite does not collect
it. Run it on its own with pytest-benchmark::

    python3 -m pytest tests/bench_ranking.py
"""

import numpy as np
import pytest

from knnavg.core import RngStream
from knnavg.nsga2 import crowding_distance, fast_non_dominated_sort
from knnavg.problems import NoiseSpec, ZdtProblem, evaluate_noisy

# (runs, points) of parents plus offspring: one pop-100 run, a desk stack of
# ten pop-10 runs, and pop-10 and pop-20 stacks of 30 runs.
SHAPES = [(1, 200), (10, 20), (30, 20), (30, 40)]


def noisy_populations(runs: int, points: int) -> np.ndarray:
    """Seeded noisy zdt1 objectives of uniform points, as a (runs, points, 2) stack."""
    streams = [RngStream(seed) for seed in range(runs)]
    variables = np.concatenate([stream.random((points, 30)) for stream in streams])
    batch = evaluate_noisy(ZdtProblem("zdt1", 30), NoiseSpec(0.1), variables, streams)
    return batch.raw_objectives.reshape(runs, points, 2)


@pytest.mark.parametrize("runs, points", SHAPES)
def test_fast_non_dominated_sort(benchmark, runs, points):
    objs = noisy_populations(runs, points)
    ranks = benchmark(fast_non_dominated_sort, objs)
    assert ranks.shape == (runs, points)


@pytest.mark.parametrize("runs, points", SHAPES)
def test_crowding_distance(benchmark, runs, points):
    objs = noisy_populations(runs, points)
    ranks = fast_non_dominated_sort(objs)
    dist = benchmark(crowding_distance, objs, ranks)
    assert dist.shape == (runs, points)
