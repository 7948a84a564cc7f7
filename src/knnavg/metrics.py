"""Quality indicators for solution sets: hypervolume, IGD, objective error.

All indicators are computed on the expectation-adjusted set: each row of a
final :class:`~knnavg.core.Batch` is re-expressed by its expected
(noise-free) objectives, so runs are judged by where their solutions truly
lie rather than by what the noisy samples claimed.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .core import Batch, ContractViolationError, as_count, as_real
from .problems import NoiseSpec, ZdtProblem, evaluate_true, true_front

__all__ = [
    "DEFAULT_REFERENCE",
    "DEFAULT_FRONT_SAMPLE_SIZE",
    "MetricReport",
    "as_reference",
    "hypervolume_2d",
    "igd",
    "delta_f",
    "compute_report",
]

# Reference point for the two-objective hypervolume. The noisy ZDT samples
# in the studied noise range stay well inside it, so no solution set is
# silently clipped to nothing.
DEFAULT_REFERENCE = (11.0, 11.0)
DEFAULT_FRONT_SAMPLE_SIZE = 1000


def as_reference(reference) -> tuple[float, float]:
    """A hypervolume reference point as two finite floats, or a contract violation."""
    if not isinstance(reference, Iterable):
        raise ContractViolationError(f"reference point needs two coordinates, got {reference!r}")
    ref = tuple(as_real(v, "reference coordinate") for v in reference)
    if len(ref) != 2 or not all(np.isfinite(ref)):
        raise ContractViolationError(f"reference point needs two finite coordinates, got {ref}")
    return ref


@dataclass(frozen=True, eq=False)
class MetricReport:
    """The three indicator values of one finished run.

    ``hv_mean_adjusted`` and ``igd_mean_adjusted`` are computed on the
    expectation-adjusted solution set; ``delta_f`` measures how far the
    reported objectives sit from those expected values. The reference point
    and front sample size record the comparison context.
    """

    hv_mean_adjusted: float
    igd_mean_adjusted: float
    delta_f: float
    reference_point: tuple[float, float]
    front_sample_size: int

    def __post_init__(self) -> None:
        for field in ("hv_mean_adjusted", "igd_mean_adjusted", "delta_f"):
            value = as_real(getattr(self, field), field)
            if not np.isfinite(value) or value < 0.0:
                raise ContractViolationError(f"{field} must be finite and non-negative")
            object.__setattr__(self, field, value)
        object.__setattr__(self, "reference_point", as_reference(self.reference_point))
        size = as_count(self.front_sample_size, "front_sample_size", 2)
        object.__setattr__(self, "front_sample_size", size)

    def value(self, metric: str) -> float:
        """Look up an indicator by its short name: hv, igd or delta_f."""
        try:
            return {
                "hv": self.hv_mean_adjusted,
                "igd": self.igd_mean_adjusted,
                "delta_f": self.delta_f,
            }[metric]
        except KeyError:
            raise ContractViolationError(f"unknown metric {metric!r}") from None


def hypervolume_2d(points, reference):
    """Exact area dominated by ``points`` up to the reference point.

    Two objectives, minimization. ``points`` is one (n, 2) matrix, giving a
    float, or a stack (..., n, 2) of them, giving an array of one area per
    matrix. Points that do not strictly dominate the reference are
    ignored; dominated points contribute nothing. The sweep sorts by f1
    and adds each strip's improvement in f2 strictly left to right, so the
    result is exact up to float rounding. An empty set has volume zero.
    """
    ref_f1, ref_f2 = as_reference(reference)
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return 0.0
    if pts.ndim < 2 or pts.shape[-1] != 2:
        raise ContractViolationError(f"expected (n, 2) points, got shape {pts.shape}")
    inside = (pts[..., 0] < ref_f1) & (pts[..., 1] < ref_f2)
    # an ignored point sits at f2 = ref_f2: it never improves the best f2
    f1 = np.where(inside, pts[..., 0], ref_f1)
    f2 = np.where(inside, pts[..., 1], ref_f2)
    # sorted by f1, then f2, within each matrix
    order = np.lexsort((f2.ravel(), f1.ravel(), np.arange(f1.size) // f1.shape[-1]))
    f1, f2 = f1.ravel()[order].reshape(f1.shape), f2.ravel()[order].reshape(f2.shape)
    # the best f2 before each point
    best = np.minimum.accumulate(np.concatenate((np.full_like(f2[..., :1], ref_f2), f2), -1), -1)
    gain = f2 < best[..., :-1]
    strips = np.where(gain, (ref_f1 - f1) * (best[..., :-1] - f2), 0.0)
    area = np.cumsum(strips, axis=-1)[..., -1]
    return float(area) if area.ndim == 0 else area


def igd(front, objectives) -> float:
    """Inverted generational distance from the true front to a solution set.

    The mean, over the rows of the (n, m) front sample, of each point's
    Euclidean distance to its nearest solution. Lower is better; zero means
    every front point coincides with some solution. Each distance sums the
    squared coordinate differences left to right before the square root,
    so the value is bitwise that of a plain front-by-solution distance
    matrix, minimised per front point and averaged.
    """
    front = np.asarray(front, dtype=np.float64)
    if front.ndim != 2 or not front.shape[0]:
        raise ContractViolationError("front sample must be a non-empty (n, m) matrix")
    objs = np.asarray(objectives, dtype=np.float64)
    if objs.size == 0:
        raise ContractViolationError("solution set must be non-empty")
    if objs.ndim != 2 or objs.shape[1] != front.shape[1]:
        raise ContractViolationError(
            f"objective matrix shape {objs.shape} does not match front dimension"
        )
    squared = np.zeros((front.shape[0], objs.shape[0]))
    for j in range(objs.shape[1]):
        diff = front[:, j, None] - objs[None, :, j]
        squared += diff * diff
    # sqrt is monotone and correctly rounded, so it commutes with the minimum
    return float(np.sqrt(squared.min(axis=1)).mean())


def delta_f(reported, expected) -> float:
    """Mean Euclidean distance between reported and expected objectives.

    ``reported`` and ``expected`` are (n, m) matrices whose rows are paired
    index by index. Zero means the reported objectives were exact; large
    values mean the search believed numbers far from the truth.
    """
    reported = np.asarray(reported, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if reported.shape != expected.shape or reported.ndim != 2 or not reported.size:
        raise ContractViolationError(
            f"need equally shaped, non-empty (n, m) matrices, got {reported.shape} "
            f"and {expected.shape}"
        )
    return float(np.linalg.norm(reported - expected, axis=1).mean())


def compute_report(
    solutions: Batch,
    problem: ZdtProblem,
    noise: NoiseSpec,
    reference: tuple[float, float] = DEFAULT_REFERENCE,
    front_sample_size: int = DEFAULT_FRONT_SAMPLE_SIZE,
) -> MetricReport:
    """All three indicators of a final solution set, in one report.

    The noise is additive with mean zero, so the expected objectives of
    each row are its noise-free evaluation; ``noise`` takes part only
    through that contract.
    """
    del noise
    reference = as_reference(reference)
    if not len(solutions):
        raise ContractViolationError("cannot score an empty solution set")
    expected = evaluate_true(problem, solutions.variables)
    front = true_front(problem, front_sample_size)
    return MetricReport(
        hv_mean_adjusted=hypervolume_2d(expected, reference),
        igd_mean_adjusted=igd(front, expected),
        delta_f=delta_f(solutions.objectives, expected),
        reference_point=reference,
        front_sample_size=front_sample_size,
    )
