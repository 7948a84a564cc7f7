"""Test helper: noisy samples drawn the way a loop over single points draws them."""

import numpy as np

from knnavg.core import Batch
from knnavg.problems import evaluate_noisy


def one_at_a_time(problem, noise, rng, count) -> Batch:
    """``count`` noisy samples of uniform random points in one batch.

    Each point is drawn and then evaluated before the next point is drawn,
    so the stream is consumed exactly as by ``count`` calls that each
    sample one point and evaluate it.
    """
    rows = [
        evaluate_noisy(problem, noise, rng.random((1, problem.n_vars)), rng)
        for _ in range(count)
    ]
    return Batch(
        variables=np.concatenate([r.variables for r in rows]),
        objectives=np.concatenate([r.objectives for r in rows]),
        raw_objectives=np.concatenate([r.raw_objectives for r in rows]),
    )
