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

from .core import Batch, ContractViolationError, RngStream, as_count, as_real

__all__ = [
    "ZDT_VARIANTS",
    "ZdtProblem",
    "NoiseSpec",
    "evaluate_true",
    "evaluate_noisy",
    "true_front",
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
        value = as_real(self.sigma, "sigma")
        if not np.isfinite(value) or value < 0.0:
            raise ContractViolationError("sigma must be finite and non-negative")
        object.__setattr__(self, "sigma", value)


def _checked_variables(problem: ZdtProblem, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != problem.n_vars:
        raise ContractViolationError(
            f"decision vectors have shape {x.shape}; expected {problem.n_vars} values "
            "per vector in an array of 1 or 2 dimensions"
        )
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ContractViolationError("decision variables must lie in [0, 1]")
    return x


def evaluate_true(problem: ZdtProblem, x) -> np.ndarray:
    """Noise-free objectives (f1, f2) of each row of ``x``.

    The noise is additive with mean zero, so these are also the expected
    objectives of a noisy sample. A (b, n) matrix gives a (b, 2) matrix, a
    single (n,) vector a (2,) vector. Each row's values are bitwise those
    of evaluating it alone: g sums the row's variables 2..n in numpy's
    pairwise order either way.
    """
    x = _checked_variables(problem, x)
    f1 = x[..., 0]
    g = 1.0 + 9.0 * np.sum(x[..., 1:], axis=-1) / (problem.n_vars - 1)
    ratio = f1 / g
    if problem.variant == "zdt1":
        h = 1.0 - np.sqrt(ratio)
    elif problem.variant == "zdt2":
        h = 1.0 - ratio**2
    else:  # zdt3
        h = 1.0 - np.sqrt(ratio) - ratio * np.sin(10.0 * np.pi * f1)
    return np.stack((f1, g * h), axis=-1)


def evaluate_noisy(problem: ZdtProblem, noise: NoiseSpec, x, rng: RngStream) -> Batch:
    """One noisy objective sample of each row of the (b, n) matrix ``x``.

    Adds an independent N(0, sigma^2) draw to each true objective. The
    draws are ``standard_normal((b, 2))``: row by row, two per row
    regardless of sigma, which consumes the stream exactly as b single-row
    calls would, so evaluation order fully determines the stream position.
    """
    x = np.asarray(x, dtype=np.float64)
    expected = evaluate_true(problem, x)
    if expected.ndim != 2:
        raise ContractViolationError(
            f"noisy evaluation takes a (b, {problem.n_vars}) matrix; got shape {x.shape}"
        )
    draws = rng.standard_normal((x.shape[0], problem.n_objs))
    raw = expected + noise.sigma * draws
    return Batch(variables=x, objectives=raw, raw_objectives=raw)


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


def true_front(problem: ZdtProblem, count: int) -> np.ndarray:
    """``count`` points of the problem's true Pareto front, as a read-only (count, 2) matrix.

    zdt1 and zdt2 have connected fronts (f2 = 1 - sqrt(f1) and 1 - f1^2 on
    f1 in [0, 1]); zdt3's front is disconnected and is sampled from its
    numerically derived f1 intervals, proportionally to interval length.
    Every returned point is non-dominated with respect to every other.
    """
    count = as_count(count, "front sample size", 2)
    if problem.variant == "zdt1":
        f1 = np.linspace(0.0, 1.0, count)
        f2 = 1.0 - np.sqrt(f1)
    elif problem.variant == "zdt2":
        f1 = np.linspace(0.0, 1.0, count)
        f2 = 1.0 - f1**2
    else:
        f1 = _sample_intervals(_zdt3_front_intervals(), count)
        f2 = 1.0 - np.sqrt(f1) - f1 * np.sin(10.0 * np.pi * f1)
    front = np.column_stack((f1, f2))
    front.setflags(write=False)
    return front
