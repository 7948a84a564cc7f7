"""Paired statistical comparison of two run populations.

The comparison protocol is fixed: a two-sided Wilcoxon signed-rank test on
seed-paired metric values decides whether two configurations differ at all,
and the Vargha-Delaney A12 effect size decides the direction. Metric
orientation (whether larger values are better) is resolved here, so callers
receive a plain better / equivalent / worse verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .core import ContractViolationError
from .metrics import MetricReport

__all__ = [
    "MIN_PAIRS",
    "EXACT_LIMIT",
    "METRICS",
    "HIGHER_IS_BETTER",
    "Verdict",
    "WilcoxonResult",
    "ComparisonVerdict",
    "wilcoxon_signed_rank",
    "vargha_delaney_a12",
    "compare_setting",
]

# Fewer non-zero differences than this cannot reach significance at any
# reasonable alpha; such comparisons are flagged instead of tested.
MIN_PAIRS = 5
# Largest number of non-zero pairs for which the exact null distribution of
# the signed-rank statistic is enumerated; beyond it the normal
# approximation with continuity and tie corrections takes over.
EXACT_LIMIT = 25

METRICS = ("hv", "igd", "delta_f")
HIGHER_IS_BETTER = {"hv": True, "igd": False, "delta_f": False}


class Verdict(str, Enum):
    """Outcome of one metric comparison, from the first sample's viewpoint."""

    BETTER = "better"
    EQUIVALENT = "equivalent"
    WORSE = "worse"


@dataclass(frozen=True)
class WilcoxonResult:
    """Two-sided signed-rank test result.

    ``n_pairs`` counts the non-zero differences that entered the ranking.
    When fewer than ``MIN_PAIRS`` remain the test is not run: ``sufficient``
    is False and the p-value is NaN.
    """

    p_value: float
    statistic: float
    n_pairs: int
    sufficient: bool


@dataclass(frozen=True)
class ComparisonVerdict:
    """Verdict of one averaging setting against the baseline on one metric.

    The setting and the metric are the keys it is stored under.
    """

    p_value: float
    a12: float
    verdict: Verdict
    n_pairs: int
    insufficient: bool = False


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n of ``values``, ties sharing the mean of their ranks.

    A tie group occupying sorted positions i..j-1 gets (i + 1 + j) / 2,
    an exact integer or half: the usual "average" method for ties.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], values.shape[0])
    ranks = np.empty(values.shape[0])
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def _exact_two_sided_p(w_plus: float, ranks: np.ndarray) -> float:
    """Exact p-value by enumerating the signed-rank null distribution.

    Ranks are doubled so midranks from ties become integers; the count of
    sign assignments reaching each statistic value is built by dynamic
    programming. Counts stay below 2**EXACT_LIMIT, which float64 holds
    exactly.
    """
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: counts.size - r]
        counts = counts + shifted
    denominator = counts.sum()
    w2 = int(round(2.0 * w_plus))
    cdf = counts[: w2 + 1].sum() / denominator
    sf = counts[w2:].sum() / denominator
    return float(min(1.0, 2.0 * min(cdf, sf)))


def _approx_two_sided_p(w_plus: float, ranks: np.ndarray) -> float:
    """Normal approximation with tie correction and continuity correction."""
    n = ranks.shape[0]
    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_sizes = np.unique(ranks, return_counts=True)
    variance -= float((tie_sizes.astype(np.float64) ** 3 - tie_sizes).sum()) / 48.0
    if variance <= 0.0:
        return 1.0
    deviation = abs(w_plus - mean) - 0.5
    if deviation <= 0.0:
        return 1.0
    z = deviation / math.sqrt(variance)
    return float(math.erfc(z / math.sqrt(2.0)))


def wilcoxon_signed_rank(sample_a, sample_b) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped before ranking. With up to ``EXACT_LIMIT``
    non-zero pairs the p-value comes from the exact null distribution;
    above that from the normal approximation with continuity correction and
    tie-corrected variance. Fewer than ``MIN_PAIRS`` non-zero pairs yield a
    flagged, untested result rather than an error. Values must be finite.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ContractViolationError("samples must be equally long 1-d vectors")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ContractViolationError("samples must be finite")
    if a.shape[0] < MIN_PAIRS:
        raise ContractViolationError(f"need at least {MIN_PAIRS} pairs")
    diff = a - b
    diff = diff[diff != 0.0]
    n = diff.shape[0]
    if n < MIN_PAIRS:
        return WilcoxonResult(p_value=float("nan"), statistic=float("nan"), n_pairs=n, sufficient=False)
    ranks = _average_ranks(np.abs(diff))
    w_plus = float(ranks[diff > 0.0].sum())
    if n <= EXACT_LIMIT:
        p = _exact_two_sided_p(w_plus, ranks)
    else:
        p = _approx_two_sided_p(w_plus, ranks)
    return WilcoxonResult(p_value=p, statistic=w_plus, n_pairs=n, sufficient=True)


def vargha_delaney_a12(sample_a, sample_b) -> float:
    """Vargha-Delaney A12: probability that a draw from A exceeds one from B.

    Ties count half. 0.5 means stochastically equal samples; 1.0 means every
    value of A exceeds every value of B.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size == 0 or b.size == 0:
        raise ContractViolationError("samples must be non-empty 1-d vectors")
    greater = np.count_nonzero(a[:, None] > b[None, :])
    equal = np.count_nonzero(a[:, None] == b[None, :])
    return float((greater + 0.5 * equal) / (a.size * b.size))


def compare_setting(
    knn_runs: Sequence[MetricReport],
    baseline_runs: Sequence[MetricReport],
    metric: str,
    alpha: float = 0.05,
) -> ComparisonVerdict:
    """Verdict of an averaging setting against its seed-paired baseline.

    Both run lists must be aligned index by index on shared seeds. The
    verdict is EQUIVALENT when the signed-rank test is insufficient or not
    significant at ``alpha``; otherwise the A12 effect size direction is
    translated through the metric's orientation (hypervolume grows with
    quality, the other two shrink). BETTER always means the averaging runs
    won.
    """
    if metric not in METRICS:
        raise ContractViolationError(f"unknown metric {metric!r}; expected one of {METRICS}")
    if not 0.0 < alpha < 1.0:
        raise ContractViolationError("alpha must lie strictly between 0 and 1")
    if len(knn_runs) != len(baseline_runs):
        raise ContractViolationError(
            f"runs are not seed-paired: {len(knn_runs)} averaging vs {len(baseline_runs)} baseline"
        )
    knn_values = np.array([r.value(metric) for r in knn_runs])
    baseline_values = np.array([r.value(metric) for r in baseline_runs])
    test = wilcoxon_signed_rank(knn_values, baseline_values)
    a12 = vargha_delaney_a12(knn_values, baseline_values)
    if not test.sufficient or not (test.p_value < alpha) or a12 == 0.5:
        verdict = Verdict.EQUIVALENT
    elif (a12 > 0.5) == HIGHER_IS_BETTER[metric]:
        verdict = Verdict.BETTER
    else:
        verdict = Verdict.WORSE
    return ComparisonVerdict(
        p_value=test.p_value,
        a12=a12,
        verdict=verdict,
        n_pairs=test.n_pairs,
        insufficient=not test.sufficient,
    )
