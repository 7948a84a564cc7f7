"""Nearest-neighbor fitness averaging over the run's evaluation history.

Instead of trusting a single noisy sample, each solution's objectives are
replaced by a distance-weighted mean of the raw samples of its k nearest
neighbors in decision space, drawn from every evaluation the run has made so
far. Distances are standardized per dimension by the history's variance so
that no variable dominates the neighborhood.

Numerics contract, which seeded runs depend on bit for bit:

- The standardized distance is ``sqrt`` of the left-to-right sum over
  dimensions ``j = 0, 1, ...`` of ``(a_j - b_j)**2 / var_j``, skipping
  dimensions with ``var_j < ZERO_VARIANCE_EPS``. :func:`sed` and
  :func:`knn_evaluate` share this one definition.
- ``max_dist`` is inclusive: a record at exactly ``max_dist`` is kept.
- Among kept records the solution itself comes first, then records by
  ascending distance, equal distances in insertion order.

Averaging a batch of b solutions over a history of n records holds
O(b * n) memory, independent of the number of dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .core import ContractViolationError, Solution

__all__ = [
    "ZERO_VARIANCE_EPS",
    "WeightShape",
    "KnnConfig",
    "EvaluationHistory",
    "history_variances",
    "sed",
    "knn_evaluate",
    "history_rows",
]

# A dimension whose history variance falls below this is treated as carrying
# no spread information: it contributes zero to standardized distances.
ZERO_VARIANCE_EPS = 1e-12


class WeightShape(str, Enum):
    """How a neighbor's distance maps to its averaging weight.

    SQUARED is the default: weight = max(max_dist - sed^2, 0). LINEAR uses
    max(max_dist - sed, 0) and UNIFORM weighs every kept neighbor equally;
    both are exploratory alternatives.
    """

    SQUARED = "squared"
    LINEAR = "linear"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class KnnConfig:
    """Averaging parameters: neighbor count, distance cutoff, weight shape."""

    k: int
    max_dist: float
    weighting: WeightShape = WeightShape.SQUARED

    def __post_init__(self) -> None:
        try:
            k = int(self.k)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ContractViolationError(f"k must be an integer, got {self.k!r}") from exc
        if isinstance(self.k, (bool, np.bool_)) or k != self.k:
            raise ContractViolationError(f"k must be an integer, got {self.k!r}")
        if k < 1:
            raise ContractViolationError("k must be at least 1")
        object.__setattr__(self, "k", k)
        md = float(self.max_dist)
        if not np.isfinite(md) or md <= 0.0:
            raise ContractViolationError("max_dist must be finite and positive")
        object.__setattr__(self, "max_dist", md)
        object.__setattr__(self, "weighting", WeightShape(self.weighting))

    def label(self) -> str:
        return f"knn(k={self.k}, max_dist={self.max_dist!r})"


class EvaluationHistory:
    """Append-only record of every noisy sample drawn during one run.

    Each record keeps the decision vector, the raw sampled objectives, the
    averaged objectives assigned afterwards (initially the raw sample), and
    the batch number it arrived in. Records are never mutated or removed;
    assigning averaged values stores them alongside the raw sample, never in
    its place. The variable matrix and the per-dimension variances are
    cached between appends because averaging reads them once per batch.
    """

    def __init__(self, n_vars: int, n_objs: int) -> None:
        if n_vars < 1 or n_objs < 1:
            raise ContractViolationError("history dimensions must be positive")
        self.n_vars = int(n_vars)
        self.n_objs = int(n_objs)
        self._vars: list[np.ndarray] = []
        self._raws: list[np.ndarray] = []
        self._avgs: list[np.ndarray] = []
        self._batches: list[int] = []
        self._batch_count = 0
        self._vars_cache: np.ndarray | None = None
        self._raws_cache: np.ndarray | None = None
        self._var_cache: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._vars)

    @property
    def batch_count(self) -> int:
        return self._batch_count

    def append_batch(self, solutions: Sequence[Solution]) -> slice:
        """Append one batch of sampled solutions; returns their index range.

        Every solution must carry raw objectives and match the history's
        dimensions. The batch is tagged with the next batch number, which
        under the generational loop is the generation index.
        """
        batch = list(solutions)
        if not batch:
            raise ContractViolationError("cannot append an empty batch")
        for s in batch:
            if s.raw_objectives is None:
                raise ContractViolationError("history records need raw objectives")
            if s.variables.shape != (self.n_vars,) or s.raw_objectives.shape != (self.n_objs,):
                raise ContractViolationError(
                    f"solution dimensions {s.variables.shape[0]}x{s.raw_objectives.shape[0]} "
                    f"do not match history {self.n_vars}x{self.n_objs}"
                )
        start = len(self._vars)
        for s in batch:
            self._vars.append(s.variables)
            self._raws.append(s.raw_objectives)
            self._avgs.append(s.raw_objectives)
            self._batches.append(self._batch_count)
        self._batch_count += 1
        self._vars_cache = None
        self._raws_cache = None
        self._var_cache = None
        return slice(start, len(self._vars))

    def set_averaged(self, rows: slice, values: np.ndarray) -> None:
        """Store the averaged objectives computed for the records in ``rows``."""
        values = np.asarray(values, dtype=np.float64)
        indices = range(*rows.indices(len(self._avgs)))
        if values.shape != (len(indices), self.n_objs):
            raise ContractViolationError(
                f"averaged block has shape {values.shape}, expected ({len(indices)}, {self.n_objs})"
            )
        for row, i in enumerate(indices):
            value = values[row].copy()
            value.setflags(write=False)
            self._avgs[i] = value

    def variables_matrix(self) -> np.ndarray:
        """All recorded decision vectors as an (n, d) matrix (cached)."""
        if self._vars_cache is None:
            mat = np.array(self._vars) if self._vars else np.empty((0, self.n_vars))
            mat.setflags(write=False)
            self._vars_cache = mat
        return self._vars_cache

    def raw_matrix(self) -> np.ndarray:
        """All raw sampled objectives as an (n, m) matrix (cached)."""
        if self._raws_cache is None:
            mat = np.array(self._raws) if self._raws else np.empty((0, self.n_objs))
            mat.setflags(write=False)
            self._raws_cache = mat
        return self._raws_cache

    def averaged_matrix(self) -> np.ndarray:
        """All averaged objectives as an (n, m) matrix."""
        mat = np.array(self._avgs) if self._avgs else np.empty((0, self.n_objs))
        mat.setflags(write=False)
        return mat

    def batch_numbers(self) -> np.ndarray:
        """The batch number of every record, in insertion order."""
        return np.array(self._batches, dtype=np.int64)

    def variances(self) -> np.ndarray:
        """Population variance of each variable dimension over all records."""
        if not self._vars:
            raise ContractViolationError("history is empty; variances are undefined")
        if self._var_cache is None:
            var = self.variables_matrix().var(axis=0)
            var.setflags(write=False)
            self._var_cache = var
        return self._var_cache


def history_variances(history: EvaluationHistory) -> np.ndarray:
    """Per-dimension population variances of the history's decision vectors.

    These are the standardization denominators used by :func:`sed`. The
    history must be non-empty.
    """
    return history.variances()


def sed(a, b, variances) -> float:
    """Standardized Euclidean distance between two decision vectors.

    Each dimension's squared difference is divided by that dimension's
    variance before summing: sqrt(sum((a_i - b_i)^2 / var_i)), summed left
    to right. Dimensions whose variance is below ``ZERO_VARIANCE_EPS`` carry
    no spread information and contribute zero. Variances must be finite and
    non-negative.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    variances = np.asarray(variances, dtype=np.float64)
    if a.shape != b.shape:
        raise ContractViolationError(f"vector shapes differ: {a.shape} vs {b.shape}")
    if variances.shape != a.shape:
        raise ContractViolationError("variances must have one entry per dimension")
    if not np.all(np.isfinite(variances)):
        raise ContractViolationError("variances must be finite")
    if np.any(variances < 0.0):
        raise ContractViolationError("variances must be non-negative")
    return float(_pair_distances(a.reshape(1, -1), b.reshape(1, -1), variances.reshape(-1))[0])


def _pair_distances(a: np.ndarray, b: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """Standardized distance between row i of ``a`` and row i of ``b``.

    The sum over dimensions runs strictly left to right, one dimension at a
    time; this is the distance definition every result depends on.
    """
    acc = np.zeros(a.shape[0])
    for j in np.flatnonzero(variances >= ZERO_VARIANCE_EPS):
        dj = a[:, j] - b[:, j]
        acc += dj * dj / variances[j]
    return np.sqrt(acc)


def _neighbor_pairs(
    queries: np.ndarray, records: np.ndarray, variances: np.ndarray, max_dist: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (query, record) pair within ``max_dist``, with its exact distance.

    ``cdist`` screens all pairs first. It sums the same non-negative terms
    as :func:`_pair_distances`, possibly in another order, so the two agree
    to a few ulps and the relative margin keeps every true neighbor. The
    survivors are then measured exactly and cut at ``max_dist``.
    """
    mask = variances >= ZERO_VARIANCE_EPS
    if np.any(mask):
        coarse = cdist(queries[:, mask], records[:, mask], "seuclidean", V=variances[mask])
    else:
        # no dimension carries spread: every pair sits at distance zero
        coarse = np.zeros((queries.shape[0], records.shape[0]))
    q_idx, r_idx = np.nonzero(coarse <= max_dist * (1.0 + 1e-9))
    dist = _pair_distances(queries[q_idx], records[r_idx], variances)
    keep = dist <= max_dist
    return q_idx[keep], r_idx[keep], dist[keep]


def _weights(distances: np.ndarray, config: KnnConfig) -> np.ndarray:
    if config.weighting is WeightShape.SQUARED:
        return np.maximum(config.max_dist - distances**2, 0.0)
    if config.weighting is WeightShape.LINEAR:
        return np.maximum(config.max_dist - distances, 0.0)
    return np.ones_like(distances)


def knn_evaluate(
    population: Iterable[Solution],
    history: EvaluationHistory,
    config: KnnConfig,
) -> list[Solution]:
    """Assign each solution the weighted mean of its nearest history samples.

    The incoming batch is appended to ``history`` first, so each solution
    finds itself at distance zero and always takes part in its own average.
    Standardization variances are computed once from the post-append
    history. Per solution: records farther than ``config.max_dist`` are
    discarded (a record at exactly ``max_dist`` is kept), the ``config.k``
    closest survivors are kept (distance ties keep the solution itself
    first, then earlier-appended records), and their raw objectives are
    combined with the configured weight shape. A solution whose only kept
    neighbor is itself keeps its raw sample bitwise unchanged. Distances
    follow the module's numerics contract, and memory stays within
    O(batch * history) whatever the number of dimensions.

    Returns new solutions in input order with averaged objectives and the
    original raw objectives; the averages are also stored in the history.
    """
    batch = list(population)
    if not batch:
        return []
    rows = history.append_batch(batch)
    record_vars = history.variables_matrix()
    record_raws = history.raw_matrix()
    q_idx, r_idx, dist = _neighbor_pairs(
        record_vars[rows], record_vars, history.variances(), config.max_dist
    )
    # Group by query; within a query self first, then by distance, then by
    # record index: a stable sort by distance with the solution moved first.
    order = np.lexsort((r_idx, dist, r_idx != rows.start + q_idx, q_idx))
    r_idx, dist = r_idx[order], dist[order]
    starts = np.searchsorted(q_idx[order], np.arange(len(batch) + 1))

    averaged = np.empty((len(batch), history.n_objs))
    out: list[Solution] = []
    for i, solution in enumerate(batch):
        lo = starts[i]
        hi = min(starts[i + 1], lo + config.k)
        mean = np.array(solution.raw_objectives)
        # Only the solution itself kept: averaging would reproduce the raw
        # sample up to rounding; keep it exact instead.
        if hi - lo > 1:
            weights = _weights(dist[lo:hi], config)
            total = weights.sum()
            if total > 0.0:
                mean = weights @ record_raws[r_idx[lo:hi]] / total
        averaged[i] = mean
        out.append(
            Solution(
                variables=solution.variables,
                objectives=mean,
                raw_objectives=solution.raw_objectives,
            )
        )
    history.set_averaged(rows, averaged)
    return out


def history_rows(history: EvaluationHistory) -> tuple[list[str], list[list[float]]]:
    """The history as a flat table: header plus one row per record.

    Columns are the batch number, the decision variables, the raw sampled
    objectives and the averaged objectives. Useful for CSV dumps.
    """
    header = (
        ["batch"]
        + [f"x{i}" for i in range(history.n_vars)]
        + [f"raw_f{j + 1}" for j in range(history.n_objs)]
        + [f"avg_f{j + 1}" for j in range(history.n_objs)]
    )
    batches = history.batch_numbers()
    variables = history.variables_matrix()
    raws = history.raw_matrix()
    avgs = history.averaged_matrix()
    rows = [
        [int(batches[i])]
        + [float(v) for v in variables[i]]
        + [float(v) for v in raws[i]]
        + [float(v) for v in avgs[i]]
        for i in range(len(history))
    ]
    return header, rows
