"""Tour of the benchmark problems: true fronts, noise, and what noise hides.

Run from the repository root:

    python3 demos/01_fronts_and_noise.py

Writes front samples to demos/out/ and, when matplotlib is importable, a
small overview figure next to them.
"""

import csv
import pathlib

import numpy as np

from knnavg.core import RngStream
from knnavg.problems import (
    NoiseSpec,
    ZdtProblem,
    evaluate_noisy,
    evaluate_true,
    true_front,
)

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

print("=== true Pareto fronts ===")
fronts = {}
for name in ("zdt1", "zdt2", "zdt3"):
    front = fronts[name] = true_front(ZdtProblem(name, 2), 400)
    f1 = front[:, 0]
    print(f"{name}: {len(front)} points, f1 spans "
          f"[{f1.min():.3f}, {f1.max():.3f}]")
    with open(OUT / f"front_{name}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["f1", "f2"])
        writer.writerows(front.tolist())

# zdt3 is the interesting one: its front is five disconnected arcs. Large
# jumps in consecutive f1 values mark the gaps.
gaps = np.diff(np.sort(fronts["zdt3"][:, 0]))
print(f"zdt3 segment gaps found: {int(np.sum(gaps > 20 * np.median(gaps)))} "
      "(the front has 5 arcs)")

print()
print("=== noise scatters the reported objectives ===")
problem = ZdtProblem("zdt1", 2)
rng = RngStream(7)
x = np.array([0.25, 0.0])
truth = evaluate_true(problem, x)
print(f"point x={x.tolist()} has true objectives {truth.round(4).tolist()}")
for sigma in (0.0, 0.1, 0.5):
    noise = NoiseSpec(sigma)
    samples = evaluate_noisy(problem, noise, np.tile(x, (2000, 1)), rng).objectives
    err = samples - truth
    print(f"sigma={sigma}: sample mean offset {err.mean(axis=0).round(4).tolist()}"
          f", sd {err.std(axis=0).round(4).tolist()}")

print()
print("a single lucky sample can land 'beyond' the front:")
noise = NoiseSpec(0.1)
best = None
for f in evaluate_noisy(problem, noise, np.tile(x, (200, 1)), rng).objectives:
    # noisy f1 can dip below zero where the front curve is undefined
    with np.errstate(invalid="ignore"):
        margin = (1.0 - np.sqrt(f[0])) - f[1]
    if not np.isnan(margin) and (best is None or margin > best[0]):
        best = (margin, f)
print(f"  luckiest of 200 draws: {best[1].round(4).tolist()} "
      f"sits {best[0]:.4f} below the true front curve")
print("  (its true value is still", truth.round(4).tolist(), ")")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available, skipping the figure")
else:
    fig, axes = plt.subplots(1, 3, figsize=(12, 3.5), sharey=True)
    for ax, name in zip(axes, fronts):
        pts = fronts[name]
        ax.plot(pts[:, 0], pts[:, 1], ".", ms=2)
        ax.set_title(name)
        ax.set_xlabel("f1")
    axes[0].set_ylabel("f2")
    fig.tight_layout()
    fig.savefig(OUT / "fronts.png", dpi=120)
    print(f"wrote {OUT / 'fronts.png'}")

print(f"front samples are in {OUT}/front_*.csv")
