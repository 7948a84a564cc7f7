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

A screen finds the candidate pairs with one float32 matrix product of the
batch, weighted by 1/var, and a float32 copy of the history, with a slack
over twice a first-order bound on its rounding error (derived in
:func:`_nearest`), so it never drops a pair within ``max_dist``; the exact
distance alone decides. :func:`knn_evaluate` weights the neighbour table
that :func:`_nearest` returns with no BLAS call, so results depend neither
on the BLAS's summation order nor on its thread count or CPU kernel.

Beyond the history itself, averaging a batch holds O(``SCREEN_TILE`` +
pairs) memory, independent of the history's length and of the number of
dimensions. The screen walks the history in tiles of at most
``SCREEN_TILE`` products, whose product and mask the history holds once
and reuses from batch to batch. The float32 copy, half the size of
the variables' buffer, exists only once averaging runs: the screen fills it
lazily, so a history that is never screened never has one.
"""

from __future__ import annotations

import itertools
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
        self.n_vars = as_count(n_vars, "n_vars", 1)
        self.n_objs = as_count(n_objs, "n_objs", 1)
        self.runs = as_count(runs, "runs", 1)
        self._size = 0
        self._vars = np.empty((self.runs, 0, self.n_vars))
        self._raws = np.empty((self.runs, 0, self.n_objs))
        self._avgs = np.empty((self.runs, 0, self.n_objs))
        self._starts: list[int] = []  # first row of every batch
        self._folded = 0  # batches merged into the running moments
        self._sum = np.zeros((self.runs, self.n_vars))
        self._m2 = np.zeros((self.runs, self.n_vars))
        # the neighbour screen's float32 copy of the variables, filled up to
        # row ``_copied``, and its product and mask, reused from batch to batch
        self._vars32 = np.empty((self.runs, 0, self.n_vars), dtype=np.float32)
        self._copied = 0
        self._product = np.empty(0, dtype=np.float32)
        self._mask = np.empty(0, dtype=bool)

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

    def _variables32(self) -> np.ndarray:
        """The variables in float32, (runs, n, d), copied lazily.

        Only the screen asks for them, so a history that is never screened
        never allocates them; each call copies the rows appended since the last.
        """
        start, stop = self._copied, len(self)
        if stop > self._vars32.shape[1]:
            self._vars32 = _grown(self._vars32[:, :start], self._vars.shape[1])
        self._vars32[:, start:stop] = self._vars[:, start:stop]
        self._copied = stop
        return self._vars32[:, :stop]

    def _screen_buffers(self, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The screen's float32 product and bool mask as contiguous ``shape`` arrays.

        Both grow to at least twice their old size when too small, but not
        past one ``SCREEN_TILE`` unless ``shape`` needs it, so a growing
        history reallocates them O(log n) times and holds at most one tile.
        """
        need = int(np.prod(shape))
        if need > self._product.size:
            size = max(need, min(2 * self._product.size, SCREEN_TILE))
            self._product = np.empty(size, dtype=np.float32)
            self._mask = np.empty(size, dtype=bool)
        return self._product[:need].reshape(shape), self._mask[:need].reshape(shape)

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
    a = np.array(a, dtype=np.float64)  # a copy: the distance overwrites it
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
    """Standardized distance between row i of ``a`` and row i of ``b``; overwrites ``a``.

    ``variances`` is one (d,) vector for every pair or one row per pair.
    The sum over dimensions runs strictly left to right, one dimension at a
    time; this is the distance definition every result depends on. A
    dimension without spread adds exactly +0.0, as if skipped.
    """
    spread = variances >= ZERO_VARIANCE_EPS
    a -= b
    a *= spread
    a *= a
    a /= np.where(spread, variances, 1.0)
    acc = np.zeros(a.shape[0])
    for j in range(a.shape[1]):
        acc += a[:, j]
    return np.sqrt(acc)


# Elements of the screen's product one tile may hold (2 MiB of float32), so
# its workspace stops growing with the history. Not smaller: at spans of
# 4,096 records or fewer, numpy's broadcast add and comparison ran 1.6-2x
# slower per element.
SCREEN_TILE = 1 << 19


@np.errstate(over="ignore", invalid="ignore")  # the float32 screen's overflow passes pairs
def _nearest(
    history: EvaluationHistory, rows: slice, count: int, max_dist: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each query's ``count`` nearest records within ``max_dist``, as a padded table.

    A run's queries are its records in ``rows``, the batch appended last,
    B = runs x b in batch order. Returns ``counts`` (B,), min(records within
    ``max_dist``, ``count``), and (B, ``counts.max()``) tables of flat buffer
    rows ``run * capacity + r`` and their exact distances, each row self
    first, then by distance, then by record. Entries past ``counts[i]`` are padding.

    A screen first keeps every pair that may lie within ``max_dist``; the
    survivors are then measured exactly and cut at ``max_dist``. The screen
    runs in float32 (u = 2**-24) on the history's float32 copy of the
    variables, q' and r'. With w_j = 1/var_j over the k dimensions with
    spread and 0 elsewhere, and w' its float32 value flushed to 0 below
    float32's normal range, it evaluates
    |q'|_w'^2 + |r'|_w'^2 - 2 (q' w').r', the norms with one ``einsum`` and
    the rest with matrix products into the history's reused workspace. A
    pair passes when this is at most ``max_dist**2 + k * 2**-104`` plus a
    slack ``c * (|q'|_w'^2 + |r'|_w'^2)``, c = 16 (k + 8) u.

    Why the slack suffices. Let S be the exact standardized squared
    distance, N = |q|_w^2 + |r|_w^2 and L = ``max_dist**2``. Since S <= 2N,
    a pair with L > 4N passes outright, so take L <= 4N. A run with a norm
    past a quarter of float32's range, or NaN, passes every pair, so take
    the others, where no sum overflows. To first order:

    - The float64 roundings, each at most 2**-53 = 2**-29 u, add under u N
      together: the exact pass's (it keeps only S <= L (1 + (k + 6) 2**-53)),
      the weights' and the limit's.
    - A norm term r'_j r'_j w'_j carries two roundings from converting r_j,
      one from w_j and two products, and its sum of k terms k - 1 more,
      whatever their order, so the two norms err by at most (k + 4) u N
      together. The product, with q'_j (-2 w'_j) (the -2 is exact), q_j's
      and r_j's conversions and the BLAS sum of k products, k more whatever
      its order or fused multiply-add, errs by at most (k + 4) u N too, as
      2 |q_j r_j| <= q_j^2 + r_j^2.
    - Converting L and 1 - c (used twice), the test's three roundings and
      the bound's one, each of a value at most 6N, add at most 19 u N.
    - Below float32's normal range a rounding errs by up to 2**-150
      absolutely instead (Higham, 2002, sec. 2.1). As w'_j = 0 or 2**-126
      <= w'_j < 2**40 (by ZERO_VARIANCE_EPS), a square errs by at most
      2**-110 per dimension and norm, and the other such errors, by
      Cauchy-Schwarz against S, by under k 2**-146 + u N; ``k * 2**-104``
      covers the absolute part.

    That is (2k + 29) u N, under half the slack, which leaves room for the
    second-order terms. A limit past float32's range is inf, so every pair
    passes. No pair within ``max_dist`` is dropped, whatever the BLAS, and
    the exact pass alone decides the result.

    Tiles. The screen walks the records in tiles of at most
    ``SCREEN_TILE`` products: a group of whole runs when one run's b x n
    product fits, else one run's records ``lo:lo + span`` at a time. The
    argument above bounds each element alone, so tiling leaves it as it
    is. Each tile's candidates are offset by ``lo`` and all are sorted
    once, which restores the (run, query, record) order of one row-major
    mask; the key table relies on it. The exact pass runs once.
    """
    buffer, size, b = history._vars, rows.stop, rows.stop - rows.start
    runs, capacity, dims = buffer.shape
    variances = np.atleast_2d(history.variances())
    spread = variances >= ZERO_VARIANCE_EPS
    k = np.count_nonzero(spread, axis=1)
    f32 = np.finfo(np.float32)
    # a dimension without spread, or whose weight is subnormal in float32,
    # gets weight 0 and drops out of the screen
    weight = np.zeros_like(variances)
    weight[spread] = 1.0 / variances[spread]
    weight = np.where(weight >= f32.tiny, weight, 0.0).astype(np.float32)
    shrink = (1.0 - 16.0 * (k + 8) * (f32.eps / 2.0)).astype(np.float32)
    limit = (max_dist * max_dist + k * 2.0**-104).astype(np.float32)
    records = history._variables32()
    norms = np.einsum("gij,gij,gj->gi", records, records, weight)
    overflow = ~(norms.max(axis=1) <= f32.max / 4)  # or NaN: the run passes every pair
    # (1 - c)|r|^2 - limit - 2 (q w).r <= -(1 - c)|q|^2; scaling by -2 is exact
    queries = records[:, rows] * (-2.0 * weight[:, None])
    bound = -shrink[:, None, None] * norms[:, rows, None]
    step, span = max(1, SCREEN_TILE // (size * b)), min(size, max(1, SCREEN_TILE // b))
    found = []
    for first, lo in itertools.product(range(0, runs, step), range(0, size, span)):
        group, tile = slice(first, first + step), slice(lo, lo + span)
        part = records[group, tile]
        test, mask = history._screen_buffers((len(part), b, part.shape[1]))
        np.matmul(queries[group], part.transpose(0, 2, 1), out=test)
        test += (shrink[group, None] * norms[group, tile] - limit[group, None])[:, None]
        np.less_equal(test, bound[group], out=mask)
        mask[overflow[group]] = True
        # row-major like np.nonzero, which is several times slower on a 3-d mask
        passed = np.flatnonzero(mask)
        run_q, r_idx = np.divmod(passed, test.shape[2])
        found.append((first * b + run_q) * size + lo + r_idx)
    # each tile's indices ascend; a stable sort merges those runs into row-major order
    query, r_idx = np.divmod(np.sort(np.concatenate(found), kind="stable"), size)
    run, q_idx = np.divmod(query, b)
    # np.take gathers rows several times faster than fancy indexing
    at = run * capacity
    a, r = np.take(buffer.reshape(-1, dims), [at + rows.start + q_idx, at + r_idx], axis=0)
    dist = _pair_distances(a, r, np.take(variances, run, axis=0))
    keep = dist <= max_dist
    query, q_idx, r_idx, at, dist = query[keep], q_idx[keep], r_idx[keep], at[keep], dist[keep]
    del a, r, run, keep  # freed before the key table is built
    # Keys arrive in record order; a distance's bits order like its value, so a stable sort
    # of (distance, not self) puts self first, then distance, then record, and padding last.
    key = dist.view(np.uint64) << np.uint64(1) | (r_idx != rows.start + q_idx).astype(np.uint64)
    starts = np.searchsorted(query, np.arange(runs * b + 1))
    table = np.full((runs * b, np.diff(starts).max()), np.iinfo(np.uint64).max)
    table[query, np.arange(len(query)) - starts[query]] = key
    counts = np.minimum(np.diff(starts), count)
    pair = starts[:-1, None] + np.argsort(table, axis=1, kind="stable")[:, : counts.max()]
    # a padding column may point past the last pair: clipped, it stays padding
    return counts, (at + r_idx).take(pair, mode="clip"), dist.take(pair, mode="clip")


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
    and weighted means follow the module's numerics contract, and the
    screen holds at most one ``SCREEN_TILE`` whatever the history's length.
    With ``config.k == 1`` nothing is searched: the solution itself is always
    kept first, at distance 0, so every row keeps its raw sample.

    With a stacked history each run's rows form one block of the batch and
    are averaged over that run's history only.

    Returns a batch in input order with the averaged objectives and the
    original raw objectives; the averages are also stored in the history.
    """
    if not len(batch):
        return batch
    raws = batch.raw_objectives
    rows = history.append_batch(batch.variables, raws)
    if config.k == 1:
        return Batch(variables=batch.variables, objectives=raws, raw_objectives=raws)
    counts, records, dist = _nearest(history, rows, config.k, config.max_dist)
    # Padding weighs 0 against a raw of 0, so it adds exactly +0.0 to sums
    # that start from +0.0 and therefore never hold -0.0.
    kept = np.arange(records.shape[1]) < counts[:, None]
    weights = np.where(kept, np.maximum(config.max_dist - dist**2, 0.0), 0.0)
    raw_rows = history._raws.reshape(-1, history.n_objs)  # buffer rows, run by run
    neighbor_raws = np.where(kept[:, :, None], np.take(raw_rows, records, axis=0), 0.0)
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
