"""Step-by-step look at distance-weighted neighbor averaging.

Builds a tiny evaluation history by hand and shows exactly which records a
query point borrows from, with what weights, and what comes out.

    python3 demos/02_averaging_walkthrough.py
"""

import numpy as np

from knnavg.averaging import (
    EvaluationHistory,
    KnnConfig,
    history_rows,
    knn_evaluate,
    sed,
)
from knnavg.core import Batch


def samples(xs, fs):
    """Fresh samples as a batch: decision vectors and their raw objectives."""
    return Batch(variables=xs, objectives=fs, raw_objectives=fs)


history = EvaluationHistory(n_vars=2, n_objs=2)

print("=== batch 0: three early samples ===")
batch0 = samples(
    [[0.20, 0.30], [0.22, 0.31], [0.80, 0.90]],
    [[1.00, 2.00], [1.40, 1.60], [3.00, 0.50]],
)
config = KnnConfig(k=3, max_dist=2.0)
out0 = knn_evaluate(batch0, history, config)
for x, raw, f in zip(out0.variables, out0.raw_objectives, out0.objectives):
    print(f"  x={x.tolist()} raw={raw.tolist()}"
          f" -> averaged={np.round(f, 4).tolist()}")

print()
print("=== the standardized distances behind that ===")
variances = history.variances()
print(f"per-dimension variances: {variances.round(5).tolist()}")
vars_matrix = history.variables_matrix()
for i in range(len(history)):
    dists = [sed(vars_matrix[i], vars_matrix[j], variances)
             for j in range(len(history))]
    print(f"  record {i}: distances {[round(d, 3) for d in dists]}")
print("records 0 and 1 are close in standardized terms, record 2 is far,")
print("so the first two blended with each other and record 2 kept to itself.")

print()
print("=== weights fall off with squared distance ===")
d = sed(vars_matrix[0], vars_matrix[1], variances)
print(f"distance between records 0 and 1: {d:.4f}")
print(f"weight of a neighbor at that distance: max({config.max_dist} - d^2, 0)"
      f" = {max(config.max_dist - d * d, 0.0):.4f}")
print(f"weight of the point itself (distance 0): {config.max_dist}")

print()
print("=== a new batch joins the history before averaging ===")
batch1 = samples([[0.21, 0.30]], [[0.60, 2.40]])
out1 = knn_evaluate(batch1, history, config)
print(f"  query raw {batch1.raw_objectives[0].tolist()} ->"
      f" averaged {np.round(out1.objectives[0], 4).tolist()}")
print("  the query's own noisy sample is one of the neighbors, so the")
print("  average is pulled toward, but not onto, its nearby records.")

print()
print("=== k=1 switches averaging off ===")
lone = EvaluationHistory(2, 2)
out = knn_evaluate(samples([[0.5, 0.5]], [[1.23, 4.56]]), lone, KnnConfig(k=1, max_dist=2.0))
print(f"  k=1 output equals the raw sample exactly: {out.objectives[0].tolist()}")

print()
print("=== everything the history recorded ===")
header, rows = history_rows(history)
print("  " + " | ".join(f"{h:>7}" for h in header))
for row in rows:
    print("  " + " | ".join(f"{v:>7}" if isinstance(v, int) else f"{v:>7.3f}"
                            for v in row))
