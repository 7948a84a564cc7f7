"""Microbenchmarks of k-NN averaging at the shapes of two benchmark workloads.

The file does not match ``test_*.py``, so the test suite does not collect
it. Run it on its own with pytest-benchmark::

    python3 -m pytest tests/bench_averaging.py

Each timed call is one generation's ``knn_evaluate``: the batch is appended
to a history that already holds the earlier generations of a real k-NN run,
then averaged over it. The history is rebuilt before every round, because
the call appends to it, and the generation before is averaged once in that
setup, so the call finds the running moments, the float32 copy and the
screen buffers where a run leaves them.
"""

import functools

import numpy as np
import pytest

from knnavg.averaging import EvaluationHistory, KnnConfig, knn_evaluate
from knnavg.core import Batch, RngStream
from knnavg.nsga2 import GaConfig, KnnAveraged, run_stack
from knnavg.problems import NoiseSpec, ZdtProblem

CONFIG = KnnConfig(k=10, max_dist=0.25)
# (runs, pop_size, n_vars): knn-mid's single run and a grid-desk stack
MID, DESK = (1, 100, 30), (10, 10, 2)
# (shape, generation): the timed batch takes the history to (generation + 1) * pop_size
# records per run, about 1.1k, 5.1k and 10.1k at knn-mid's shape and 1k at grid-desk's
CASES = [
    pytest.param(MID, 10, id="mid-1.1k"), pytest.param(MID, 50, id="mid-5.1k"),
    pytest.param(MID, 100, id="mid-10.1k"), pytest.param(DESK, 100, id="desk-1k"),
]


@functools.cache
def recorded_run(runs: int, pop: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Variables and raw objectives of a 100-generation k-NN stack, each (runs, records, .)."""
    results = run_stack(
        ZdtProblem("zdt1", n), NoiseSpec(0.1), KnnAveraged(CONFIG),
        GaConfig(pop_size=pop, generations=100), [RngStream(seed) for seed in range(runs)],
    )
    return (np.stack([r.history.variables_matrix() for r in results]),
            np.stack([r.history.raw_matrix() for r in results]))


def generation_batch(variables, raws, pop: int, g: int) -> Batch:
    """Generation ``g``'s samples of every run, run by run, as one unaveraged batch."""
    x = variables[:, g * pop:(g + 1) * pop].reshape(-1, variables.shape[-1])
    f = raws[:, g * pop:(g + 1) * pop].reshape(-1, raws.shape[-1])
    return Batch(variables=x, objectives=f, raw_objectives=f)


@pytest.mark.parametrize("shape, generation", CASES)
def test_knn_evaluate(benchmark, shape, generation):
    runs, pop, n = shape
    variables, raws = recorded_run(*shape)

    def history_before():
        history = EvaluationHistory(n, 2, runs)
        for g in range(generation - 1):
            batch = generation_batch(variables, raws, pop, g)
            history.append_batch(batch.variables, batch.raw_objectives)
        knn_evaluate(generation_batch(variables, raws, pop, generation - 1), history, CONFIG)
        return (generation_batch(variables, raws, pop, generation), history, CONFIG), {}

    averaged = benchmark.pedantic(knn_evaluate, setup=history_before, rounds=20)
    assert averaged.objectives.shape == (runs * pop, 2)
