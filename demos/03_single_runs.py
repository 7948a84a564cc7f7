"""One baseline run against one averaging run, same seed, same noise.

Shows the optimistic-survivor illusion: the noisy baseline reports a final
front that appears to beat the true front, and the gap disappears once each
survivor is re-scored at its noise-free expectation.

    python3 demos/03_single_runs.py
"""

import numpy as np

from knnavg.averaging import KnnConfig
from knnavg.core import RngStream
from knnavg.metrics import compute_report
from knnavg.nsga2 import GaConfig, KnnAveraged, PlainNoisy, run_optimization
from knnavg.problems import NoiseSpec, ZdtProblem, evaluate_true

problem = ZdtProblem("zdt1", 2)
noise = NoiseSpec(0.1)
ga = GaConfig(pop_size=10, generations=100)
seed = 42

print(f"problem=zdt1 n_vars=2 sigma=0.1 pop=10 generations=100 seed={seed}")
print(f"evaluation budget per run: {ga.pop_size * (ga.generations + 1)} samples")
print()

runs = {
    "baseline": PlainNoisy(),
    "knn(5, 0.25)": KnnAveraged(KnnConfig(k=5, max_dist=0.25)),
}
for label, evaluator in runs.items():
    result = run_optimization(problem, noise, evaluator, ga, RngStream(seed))
    front = result.nondominated
    reported = front.objectives
    expected = evaluate_true(problem, front.variables)
    report = compute_report(front, problem, noise)

    with np.errstate(invalid="ignore"):
        below = np.mean(reported[:, 1] < 1.0 - np.sqrt(reported[:, 0]))
    print(f"--- {label} ---")
    print(f"  final front size: {len(front)}")
    print(f"  reported points strictly below the true front: {below:.0%}")
    print(f"  expectation-adjusted metrics:")
    print(f"    hypervolume {report.value('hv'):.4f}"
          f"   igd {report.value('igd'):.4f}"
          f"   delta_f {report.value('delta_f'):.4f}")
    worst = np.linalg.norm(reported - expected, axis=1).max()
    print(f"  largest reported-vs-expected gap: {worst:.4f}")
    print()

print("the baseline's sub-front points are measurement luck, not progress;")
print("averaging spends the same budget and lands nearer the truth on the")
print("error metric. One seed is an anecdote: demos/04_desk_experiment.py")
print("runs the paired experiment that turns this into a verdict.")
