"""ZDT benchmark problems, additive Gaussian noise, and their true fronts.

The three problems are the standard two-objective ZDT instances (Zitzler,
Deb & Thiele, 2000): ``n`` decision variables in [0, 1], two objectives to
minimize, and analytically known Pareto fronts. Noise is injected on top of
the noise-free evaluation, which keeps the expected objectives available in
closed form for the quality indicators.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import ContractViolationError, RngStream, Solution, as_count

__all__ = [
    "ZDT_VARIANTS",
    "ZdtProblem",
    "NoiseSpec",
    "ParetoFrontSample",
    "evaluate_true",
    "evaluate_noisy",
    "true_front",
    "mean_objectives",
]

ZDT_VARIANTS = ("zdt1", "zdt2", "zdt3")


@dataclass(frozen=True, eq=False)
class ZdtProblem:
    """One ZDT instance: a variant name plus the number of decision variables.

    All variants share the structure f1 = x1 and f2 = g(x) * h(f1, g) with
    g = 1 + 9 * mean(x2..xn); they differ only in the shape function h. The
    decision space is the unit box and both objectives are minimized.
    """

    variant: str
    n_vars: int

    def __post_init__(self) -> None:
        variant = str(self.variant).lower()
        if variant not in ZDT_VARIANTS:
            raise ContractViolationError(
                f"unknown variant {self.variant!r}; expected one of {ZDT_VARIANTS}"
            )
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "n_vars", as_count(self.n_vars, "n_vars", 2))

    @property
    def n_objs(self) -> int:
        return 2

    @property
    def name(self) -> str:
        return f"{self.variant}-n{self.n_vars}"

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(self.n_vars), np.ones(self.n_vars)


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Additive zero-mean Gaussian noise applied to each objective.

    ``sigma`` is one standard deviation shared by both objectives. Draws are
    independent across objectives and across evaluations. ``sigma = 0``
    reproduces the noise-free values exactly while still consuming the same
    number of random draws, so runs with and without noise stay aligned on
    the same seed.
    """

    sigma: float = 0.0

    def __post_init__(self) -> None:
        try:
            value = float(self.sigma)
        except (TypeError, ValueError) as exc:
            raise ContractViolationError(f"sigma must be a number, got {self.sigma!r}") from exc
        if not np.isfinite(value) or value < 0.0:
            raise ContractViolationError("sigma must be finite and non-negative")
        object.__setattr__(self, "sigma", value)


@dataclass(frozen=True, eq=False)
class ParetoFrontSample:
    """A finite sample of a problem's true Pareto front in objective space."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ContractViolationError("front sample must be a non-empty (n, m) matrix")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


def _checked_variables(problem: ZdtProblem, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (problem.n_vars,):
        raise ContractViolationError(
            f"decision vector has shape {x.shape}, expected ({problem.n_vars},)"
        )
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ContractViolationError("decision variables must lie in [0, 1]")
    return x


def evaluate_true(problem: ZdtProblem, x) -> np.ndarray:
    """Noise-free objective vector (f1, f2) of ``x``."""
    x = _checked_variables(problem, x)
    f1 = x[0]
    g = 1.0 + 9.0 * np.sum(x[1:]) / (problem.n_vars - 1)
    ratio = f1 / g
    if problem.variant == "zdt1":
        h = 1.0 - np.sqrt(ratio)
    elif problem.variant == "zdt2":
        h = 1.0 - ratio**2
    else:  # zdt3
        h = 1.0 - np.sqrt(ratio) - ratio * np.sin(10.0 * np.pi * f1)
    return np.array([f1, g * h])


def evaluate_noisy(problem: ZdtProblem, noise: NoiseSpec, x, rng: RngStream) -> Solution:
    """One noisy objective sample of ``x``.

    Adds an independent N(0, sigma^2) draw to each true objective; exactly
    ``problem.n_objs`` Gaussian draws are consumed per call regardless of
    sigma, so evaluation order fully determines the stream position.
    """
    true = evaluate_true(problem, x)
    draws = rng.standard_normal(problem.n_objs)
    raw = true + noise.sigma * draws
    return Solution(variables=x, objectives=raw, raw_objectives=raw)


def mean_objectives(problem: ZdtProblem, solution: Solution) -> np.ndarray:
    """Expected objective vector of a solution under zero-mean noise.

    The noise is additive with mean zero, so the expectation is the
    noise-free evaluation of the solution's variables.
    """
    return evaluate_true(problem, solution.variables)


@functools.cache
def _zdt3_front_intervals() -> tuple[tuple[float, float], ...]:
    """Non-dominated f1 intervals of the zdt3 front curve.

    The curve f2(f1) = 1 - sqrt(f1) - f1 * sin(10 pi f1) is only partially
    non-dominated; the intervals are recovered numerically by sweeping a
    dense f1 grid and keeping points that strictly improve the running f2
    minimum. Each interval's right edge is pulled in by one grid step so
    every point inside lies strictly on the decreasing branch, which makes
    any sample of the intervals mutually non-dominated.
    """
    f1 = np.linspace(0.0, 1.0, 1_000_001)
    step = f1[1] - f1[0]
    f2 = 1.0 - np.sqrt(f1) - f1 * np.sin(10.0 * np.pi * f1)
    running = np.minimum.accumulate(f2)
    prior_best = np.concatenate(([np.inf], running[:-1]))
    keep_idx = np.flatnonzero(f2 < prior_best)
    breaks = np.flatnonzero(np.diff(keep_idx) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [keep_idx.size - 1]))
    intervals = []
    for s, e in zip(starts, ends):
        lo = float(f1[keep_idx[s]])
        hi = max(lo, float(f1[keep_idx[e]] - step))
        intervals.append((lo, hi))
    return tuple(intervals)


def _sample_intervals(intervals: tuple[tuple[float, float], ...], count: int) -> np.ndarray:
    """``count`` f1 values spread over ``intervals`` proportionally to length."""
    lengths = np.array([hi - lo for lo, hi in intervals])
    cum = np.concatenate(([0.0], np.cumsum(lengths)))
    t = np.linspace(0.0, cum[-1], count)
    idx = np.clip(np.searchsorted(cum, t, side="right") - 1, 0, len(intervals) - 1)
    return np.array([intervals[j][0] + (ti - cum[j]) for j, ti in zip(idx, t)])


def true_front(problem: ZdtProblem, count: int) -> ParetoFrontSample:
    """``count`` points sampled from the problem's true Pareto front.

    zdt1 and zdt2 have connected fronts (f2 = 1 - sqrt(f1) and 1 - f1^2 on
    f1 in [0, 1]); zdt3's front is disconnected and is sampled from its
    numerically derived f1 intervals, proportionally to interval length.
    Every returned point is non-dominated with respect to every other.
    """
    if count < 2:
        raise ContractViolationError("front sample size must be at least 2")
    if problem.variant == "zdt1":
        f1 = np.linspace(0.0, 1.0, count)
        f2 = 1.0 - np.sqrt(f1)
    elif problem.variant == "zdt2":
        f1 = np.linspace(0.0, 1.0, count)
        f2 = 1.0 - f1**2
    else:
        f1 = _sample_intervals(_zdt3_front_intervals(), count)
        f2 = 1.0 - np.sqrt(f1) - f1 * np.sin(10.0 * np.pi * f1)
    return ParetoFrontSample(np.column_stack((f1, f2)))
