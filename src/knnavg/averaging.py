"""Nearest-neighbor fitness averaging over the run's evaluation history.

Instead of trusting a single noisy sample, each solution's objectives are
replaced by a distance-weighted mean of the raw samples of its k nearest
neighbors in decision space, drawn from every evaluation the run has made so
far. Distances are standardized per dimension by the history's variance so
that no variable dominates the neighborhood. A neighbor at distance d
weighs ``max(max_dist - d**2, 0)``.

The history keeps every sample as rows of capacity-doubling buffers
(variables, raw objectives, averaged objectives), so appending a batch
costs O(batch), not O(history). It hands out read-only views of the
variables and raw objectives, which never change: appends write past their
end and a full buffer is replaced by a larger copy. Averages are stored
after their batch is appended, so the averaged objectives are handed out as
a read-only copy.

Numerics contract, which seeded runs depend on bit for bit:

- The variances are population variances per dimension, merged batch by
  batch in batch order (Chan, Golub & LeVeque, 1979): a batch of b rows
  with mean ``mean_b = block.mean(axis=0)`` and ``m2_b = ((block -
  mean_b)**2).sum(axis=0)`` joins n earlier rows with column sums ``s`` as
  ``m2 + m2_b + delta**2 * (n * b / (n + b))``, ``delta = mean_b - s / n``,
  and the variance is ``m2 / (n + b)``. The column sums add the rows one
  at a time in insertion order.
- The standardized distance is ``sqrt`` of the left-to-right sum over
  dimensions ``j = 0, 1, ...`` of ``(a_j - b_j)**2 / var_j``, skipping
  dimensions with ``var_j < ZERO_VARIANCE_EPS``. :func:`sed` and
  :func:`knn_evaluate` share this one definition.
- ``max_dist`` is inclusive: a record at exactly ``max_dist`` is kept.
- Among kept records the solution itself comes first, then records by
  ascending distance, equal distances in insertion order.
- The average over the kept neighbors ``j = 0, 1, ...``, in that order, is
  ``(0 + w_0 r_0 + w_1 r_1 + ...) / (0 + w_0 + w_1 + ...)``, both sums
  taken strictly left to right in elementwise floating point. A solution
  whose only kept neighbor is itself keeps its raw sample bitwise.

A screen finds the candidate pairs with one matrix product on the
history's coordinates scaled by 1/sqrt(var), with a slack over twice a
first-order bound on its rounding error (derived in
:func:`_neighbor_pairs`), so it never drops a pair within ``max_dist``.
Only the exact distance decides which pairs are kept, and the weighting
uses no BLAS call, so results depend neither on how the BLAS orders its
sums nor on its thread count or CPU kernel.

Averaging a batch of b solutions over a history of n records holds
O(b * n) memory, independent of the number of dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Batch, ContractViolationError, as_count, as_real

__all__ = [
    "ZERO_VARIANCE_EPS",
    "KnnConfig",
    "EvaluationHistory",
    "sed",
    "knn_evaluate",
    "history_rows",
]

# A dimension whose history variance falls below this is treated as carrying
# no spread information: it contributes zero to standardized distances.
ZERO_VARIANCE_EPS = 1e-12


@dataclass(frozen=True)
class KnnConfig:
    """Averaging parameters: neighbor count and distance cutoff."""

    k: int
    max_dist: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", as_count(self.k, "k", 1))
        md = as_real(self.max_dist, "max_dist")
        if not np.isfinite(md) or md <= 0.0:
            raise ContractViolationError("max_dist must be finite and positive")
        object.__setattr__(self, "max_dist", md)

    def label(self) -> str:
        return f"knn(k={self.k}, max_dist={self.max_dist!r})"


def _read_only(matrix: np.ndarray) -> np.ndarray:
    matrix.setflags(write=False)
    return matrix


def _grown(buffer: np.ndarray, capacity: int) -> np.ndarray:
    grown = np.empty(buffer.shape[:1] + (capacity,) + buffer.shape[2:], dtype=buffer.dtype)
    grown[:, : buffer.shape[1]] = buffer
    return grown


class EvaluationHistory:
    """Append-only record of every noisy sample drawn during one run, or each run of a stack.

    Each record keeps the decision vector, the raw sampled objectives, the
    averaged objectives assigned afterwards (initially the raw sample), and
    the batch number it arrived in. Records are never mutated or removed;
    assigning averaged values stores them alongside the raw sample, never in
    its place. Column sums and squared deviations of the variables are
    merged in batch by batch, lazily, when :meth:`variances` is called, so a
    history nobody asks for variances never pays for them.

    With ``runs`` > 1 the buffers are (runs, capacity, .): batches arrive
    run by run, ``len`` counts one run's records, handed-out matrices have a
    leading run axis, and :meth:`split` gives each run's own history.
    """

    def __init__(self, n_vars: int, n_objs: int, runs: int = 1) -> None:
        if n_vars < 1 or n_objs < 1:
            raise ContractViolationError("history dimensions must be positive")
        self.n_vars = int(n_vars)
        self.n_objs = int(n_objs)
        self.runs = as_count(runs, "runs", 1)
        self._size = 0
        self._vars = np.empty((self.runs, 0, self.n_vars))
        self._raws = np.empty((self.runs, 0, self.n_objs))
        self._avgs = np.empty((self.runs, 0, self.n_objs))
        self._starts: list[int] = []  # first row of every batch
        self._folded = 0  # batches merged into the running moments
        self._sum = np.zeros((self.runs, self.n_vars))
        self._m2 = np.zeros((self.runs, self.n_vars))

    def __len__(self) -> int:
        return self._size

    def append_batch(self, variables: np.ndarray, raw_objectives: np.ndarray) -> slice:
        """Append one batch of samples, given as matrices; returns their index range.

        ``variables`` is (runs * b, n_vars) and ``raw_objectives`` (runs * b,
        n_objs), b >= 1, run by run. The batch is tagged with the next batch
        number, which under the generational loop is the generation index.
        """
        variables = np.asarray(variables, dtype=np.float64)
        raws = np.asarray(raw_objectives, dtype=np.float64)
        b = len(variables) // self.runs if variables.ndim == 2 else 0
        rows = self.runs * b
        if b < 1 or variables.shape != (rows, self.n_vars) or raws.shape != (rows, self.n_objs):
            raise ContractViolationError(
                f"need a non-empty batch of (b, {self.n_vars}) variables and (b, {self.n_objs}) "
                f"raw objectives per run, {self.runs} runs: got {variables.shape}, {raws.shape}"
            )
        start, stop = self._size, self._size + b
        if stop > self._vars.shape[1]:
            capacity = max(stop, 2 * self._vars.shape[1])
            self._vars = _grown(self._vars[:, :start], capacity)
            self._raws = _grown(self._raws[:, :start], capacity)
            self._avgs = _grown(self._avgs[:, :start], capacity)
        self._vars[:, start:stop] = variables.reshape(self.runs, b, self.n_vars)
        self._raws[:, start:stop] = raws.reshape(self.runs, b, self.n_objs)
        self._avgs[:, start:stop] = self._raws[:, start:stop]
        self._starts.append(start)
        self._size = stop
        return slice(start, stop)

    def set_averaged(self, rows: slice, values: np.ndarray) -> None:
        """Store the averaged objectives computed for the records in ``rows``, run by run."""
        values = np.asarray(values, dtype=np.float64)
        expected = (self.runs * len(range(*rows.indices(len(self)))), self.n_objs)
        if values.shape != expected:
            raise ContractViolationError(f"averaged block has shape {values.shape}, not {expected}")
        self._avgs[:, : len(self)][:, rows] = values.reshape(self.runs, -1, self.n_objs)

    def _handed_out(self, stacked: np.ndarray) -> np.ndarray:
        return _read_only(stacked[0] if self.runs == 1 else stacked)

    def variables_matrix(self) -> np.ndarray:
        """All recorded decision vectors as a read-only (n, d) matrix."""
        return self._handed_out(self._vars[:, : len(self)])

    def raw_matrix(self) -> np.ndarray:
        """All raw sampled objectives as a read-only (n, m) matrix."""
        return self._handed_out(self._raws[:, : len(self)])

    def averaged_matrix(self) -> np.ndarray:
        """All averaged objectives as a read-only (n, m) copy."""
        return self._handed_out(self._avgs[:, : len(self)].copy())

    def batch_numbers(self) -> np.ndarray:
        """The batch number of every record, in insertion order (read-only)."""
        sizes = np.diff(self._starts + [len(self)])
        return _read_only(np.repeat(np.arange(len(sizes), dtype=np.int64), sizes))

    def variances(self) -> np.ndarray:
        """Population variance of each variable dimension over all records."""
        self._fold()
        return self._handed_out(self._m2 / len(self))

    def split(self) -> list["EvaluationHistory"]:
        """Each run's history; it shares this history's buffers."""
        parts = []
        for run in range(self.runs):
            part = EvaluationHistory(self.n_vars, self.n_objs)
            part._size, part._starts, part._folded = self._size, list(self._starts), self._folded
            for name in ("_vars", "_raws", "_avgs", "_sum", "_m2"):
                setattr(part, name, getattr(self, name)[run : run + 1])
            parts.append(part)
        return parts

    def _fold(self) -> None:
        """Merge the batches appended since the last fold, one at a time in batch order."""
        if not len(self):
            raise ContractViolationError("history is empty; moments are undefined")
        bounds = self._starts[self._folded :] + [len(self)]
        for start, stop in zip(bounds, bounds[1:]):
            block = self._vars[:, start:stop]
            mean = block.mean(axis=1)
            m2 = ((block - mean[:, None]) ** 2).sum(axis=1)
            if start:
                delta = mean - self._sum / start
                m2 = self._m2 + m2 + delta * delta * (start * (stop - start) / stop)
            self._m2 = m2
            # Row by row, not numpy's pairwise sum: delta reads these sums, so
            # STREAM_VERSION 3's variance bits depend on this order.
            rows = np.concatenate((self._sum[:, None], block), axis=1)
            self._sum = np.cumsum(rows, axis=1)[:, -1]
        self._folded = len(self._starts)


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

    ``variances`` is one (d,) vector for every pair or one row per pair.
    The sum over dimensions runs strictly left to right, one dimension at a
    time; this is the distance definition every result depends on. A
    dimension without spread adds exactly +0.0, as if skipped.
    """
    spread = variances >= ZERO_VARIANCE_EPS
    variances = np.where(spread, variances, 1.0)
    acc = np.zeros(a.shape[0])
    for j in range(a.shape[1]):
        dj = (a[:, j] - b[:, j]) * spread[..., j]
        acc += dj * dj / variances[..., j]
    return np.sqrt(acc)


# Elements of the screen's product and scaled records one step may hold (32
# MiB of float64): a larger stack is screened a few runs at a time.
SCREEN_BUDGET = 1 << 22


def _neighbor_pairs(
    records: np.ndarray, rows: slice, variances: np.ndarray, max_dist: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every (run, query, record) triple within ``max_dist``, with its exact distance.

    ``records`` is (runs, n, d) and ``variances`` (runs, d); a run's queries
    are its ``records[rows]``, indexed by position in ``rows``, and its
    history ends with them: rows past ``rows.stop`` are ignored. A screen
    first keeps every pair that may lie within ``max_dist``; the survivors
    are then measured exactly and cut at ``max_dist``. Over the k dimensions
    with spread, coordinates are scaled by 1/sqrt(var), giving q' and r',
    and the screen evaluates the product form |q'|^2 + |r'|^2 - 2 q'.r'
    with one matrix product per run. A pair passes when this is at most
    ``max_dist**2`` plus a slack ``c * (|q'|^2 + |r'|^2)``, c = 16 (k + 8) u
    with u = 2**-53.

    Why the slack suffices. Let S be the exact standardized squared
    distance and N = |q'|^2 + |r'|^2. Since S <= 2N (to first order), a
    pair with ``max_dist**2 > 3N`` passes outright, so take
    ``max_dist**2 <= 3N``. To first order in u:

    - The exact distance sums k non-negative terms of three roundings each
      and takes a sqrt, so ``distance <= max_dist`` gives
      S <= max_dist**2 (1 + (k + 6) u) <= max_dist**2 + 3 (k + 6) u N.
    - Each scaled coordinate x_j s_j carries three roundings (sqrt,
      reciprocal, product) and q'_j, r'_j share s_j: |q' - r'|^2 <= S + 16 u N.
    - The two squared norms err by at most k u N together and the doubled
      product by at most k u N, whatever summation order or fused
      multiply-add the BLAS uses; the five remaining roundings of the test
      add at most 5 u (2N + max_dist**2) <= 25 u N.

    The screen therefore errs by at most (5k + 59) u N, under half the
    slack, which leaves room for the second-order terms. The slack grows
    with the norms, so records far from the origin cost the screen
    selectivity, never a pair. An absolute ``k * tiny`` covers subnormal
    intermediates. No pair within ``max_dist`` is dropped, whatever the
    BLAS thread count, and the exact pass alone decides the result.
    Runs are screened and measured in groups that fit ``SCREEN_BUDGET``.
    """
    runs, capacity, dims = records.shape
    size = rows.stop
    spread = variances >= ZERO_VARIANCE_EPS
    k = np.count_nonzero(spread, axis=1)
    # a dimension without spread gets scale 0 and drops out of the screen
    scale = np.zeros_like(variances)
    scale[spread] = 1.0 / np.sqrt(variances[spread])
    shrink = 1.0 - 16.0 * (k + 8) * (np.finfo(np.float64).eps / 2.0)
    limit = max_dist * max_dist + k * np.finfo(np.float64).tiny
    step = max(1, SCREEN_BUDGET // (size * (rows.stop - rows.start + dims)))
    found = []
    for group in (slice(first, first + step) for first in range(0, runs, step)):
        rs = records[group, :size] * scale[group, None]
        norms = np.einsum("gij,gij->gi", rs, rs)
        # (1 - c)|r'|^2 - limit - 2 q'.r' <= -(1 - c)|q'|^2; scaling by -2 is exact
        test = (-2.0 * rs[:, rows]) @ rs.transpose(0, 2, 1)
        test += (shrink[group, None] * norms - limit[group, None])[:, None]
        bound = -shrink[group, None] * norms[:, rows]
        # row-major like np.nonzero, which is several times slower on a 3-d mask
        run_q, r_idx = np.divmod(np.flatnonzero(test <= bound[..., None]), size)
        run, q_idx = np.divmod(run_q, test.shape[1])
        # np.take gathers rows several times faster than fancy indexing
        flat, at = records[group].reshape(-1, dims), run * capacity
        run += group.start
        a, b = np.take(flat, [at + rows.start + q_idx, at + r_idx], axis=0)
        dist = _pair_distances(a, b, np.take(variances, run, axis=0))
        keep = dist <= max_dist
        found.append((run[keep], q_idx[keep], r_idx[keep], dist[keep]))
    return tuple(np.concatenate(column) for column in zip(*found))


def knn_evaluate(batch: Batch, history: EvaluationHistory, config: KnnConfig) -> Batch:
    """Assign each row the weighted mean of its nearest history samples.

    The incoming batch is appended to ``history`` first, so each solution
    finds itself at distance zero and always takes part in its own average.
    Standardization variances are those of the post-append history. Per
    solution: records farther than ``config.max_dist`` are discarded (a
    record at exactly ``max_dist`` is kept), the ``config.k`` closest
    survivors are kept (distance ties keep the solution itself first, then
    earlier-appended records), and their raw objectives are combined with
    weights ``max(max_dist - d**2, 0)``. A solution whose only kept neighbor
    is itself keeps its raw sample bitwise unchanged. Distances, variances
    and weighted means follow the module's numerics contract, and memory
    stays within O(batch * history) whatever the number of dimensions.

    With a stacked history each run's rows form one block of the batch and
    are averaged over that run's history only.

    Returns a batch in input order with the averaged objectives and the
    original raw objectives; the averages are also stored in the history.
    """
    if not len(batch):
        return batch
    raws = batch.raw_objectives
    rows = history.append_batch(batch.variables, raws)
    # the whole buffer, so that its rows are gathered without a copy
    variances = np.atleast_2d(history.variances())
    run, q_idx, r_idx, dist = _neighbor_pairs(history._vars, rows, variances, config.max_dist)
    # Pairs arrive by query, then record. Within a query: self (at distance
    # 0) first, then by distance, then by record. A non-negative float's bits
    # order like its value, so one key (distance, not self) and a stable sort do.
    query = run * (rows.stop - rows.start) + q_idx
    key = dist.view(np.uint64) << np.uint64(1) | (r_idx != rows.start + q_idx).astype(np.uint64)
    starts = np.searchsorted(query, np.arange(len(batch) + 1))
    # Only pairs up to a query's k-th smallest key can be kept; sort just those.
    table = np.full((len(batch), np.diff(starts).max()), np.iinfo(np.uint64).max)
    table[query, np.arange(len(query)) - starts[query]] = key
    kth = min(config.k, table.shape[1]) - 1
    near = np.flatnonzero(key <= np.partition(table, kth, axis=1)[query, kth])
    order = near[np.lexsort((key[near], query[near]))]
    run, r_idx, dist = run[order], r_idx[order], dist[order]
    starts = np.searchsorted(query[order], np.arange(len(batch) + 1))

    # The kept neighbors as a padded (b, width) table, self in column 0.
    # Padding weighs 0 against a raw of 0, so it adds exactly +0.0 to sums
    # that start from +0.0 and therefore never hold -0.0.
    counts = np.minimum(np.diff(starts), config.k)
    kept = np.arange(counts.max()) < counts[:, None]
    pair = np.where(kept, starts[:-1, None] + np.arange(counts.max()), 0)
    weights = np.where(kept, np.maximum(config.max_dist - dist[pair] ** 2, 0.0), 0.0)
    raw_rows = history._raws.reshape(-1, history.n_objs)  # buffer rows, run by run
    at = run[pair] * history._raws.shape[1] + r_idx[pair]
    neighbor_raws = np.where(kept[:, :, None], np.take(raw_rows, at, axis=0), 0.0)
    # Both sums strictly left to right along the neighbors: cumsum never
    # reorders its additions, and its first partial sum 0 + w_0 is w_0.
    total = np.cumsum(weights, axis=1)[:, -1:]
    weighted = np.cumsum(weights[:, :, None] * neighbor_raws, axis=1)[:, -1]
    # Only the solution itself kept: averaging would reproduce the raw
    # sample up to rounding; keep it exact instead.
    averaged = np.where(counts[:, None] > 1, weighted / total, raws)
    history.set_averaged(rows, averaged)
    return Batch(variables=batch.variables, objectives=averaged, raw_objectives=raws)


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
    values = np.column_stack(
        (history.variables_matrix(), history.raw_matrix(), history.averaged_matrix())
    )
    return header, [
        [batch] + row for batch, row in zip(history.batch_numbers().tolist(), values.tolist())
    ]
