"""Evaluation history, standardized distance, and kNN averaging."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from knnavg import averaging
from knnavg.averaging import (
    ZERO_VARIANCE_EPS,
    EvaluationHistory,
    KnnConfig,
    _neighbor_pairs,
    history_rows,
    knn_evaluate,
    sed,
)
from knnavg.core import Batch, ContractViolationError, RngStream
from knnavg.nsga2 import GaConfig, KnnAveraged, run_optimization
from knnavg.problems import NoiseSpec, ZdtProblem
from sampling import one_at_a_time


def make_batch(variables, raws):
    """Fresh samples: one row per sample, objectives equal to the raw draws."""
    raws = np.asarray(raws, dtype=float)
    return Batch(variables=variables, objectives=raws, raw_objectives=raws)


def brute_force_average(history, rows, config):
    """Independent reimplementation: per-query loop over the full history."""
    variances = history.variances()
    all_vars = history.variables_matrix()
    all_raws = history.raw_matrix()
    out = []
    for row in rows:
        dists = [sed(all_vars[row], all_vars[j], variances) for j in range(len(all_vars))]
        order = sorted(range(len(all_vars)), key=lambda j: (dists[j], j != row, j))
        within = [j for j in order if dists[j] <= config.max_dist]
        chosen = within[: config.k]
        if len(chosen) == 1:
            out.append(all_raws[chosen[0]].copy())
            continue
        weights = np.array([max(config.max_dist - dists[j] ** 2, 0.0) for j in chosen])
        total = weights.sum()
        if total <= 0.0:
            out.append(all_raws[row].copy())
            continue
        out.append(weights @ all_raws[chosen] / total)
    return np.array(out)


class TestSed:
    def test_hand_value_unit_variance(self):
        assert sed([0.0, 0.0], [1.0, 1.0], [1.0, 1.0]) == pytest.approx(
            1.4142135623730951, abs=1e-15
        )

    def test_hand_value_mixed_variance(self):
        assert sed([0.0, 0.0], [2.0, 0.0], [4.0, 1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_identical_points(self):
        assert sed([0.3, 0.7], [0.3, 0.7], [0.2, 0.5]) == 0.0

    def test_zero_variance_dimension_ignored(self):
        # first coordinate differs but carries no variance
        assert sed([0.0, 0.0], [5.0, 1.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_all_variances_zero(self):
        assert sed([0.0, 0.0], [3.0, 4.0], [0.0, 0.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ContractViolationError):
            sed([0.0], [1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ContractViolationError):
            sed([0.0, 0.0], [1.0, 2.0], [1.0])

    def test_negative_variance_rejected(self):
        with pytest.raises(ContractViolationError):
            sed([0.0], [1.0], [-1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_variance_rejected(self, bad):
        # a NaN variance used to fail the < 0 check and drop its dimension
        with pytest.raises(ContractViolationError):
            sed([0.0, 0.0], [1.0, 1.0], [bad, 1.0])

    def test_sums_dimensions_left_to_right(self):
        # 30 terms: numpy's pairwise np.sum would round differently
        rng = RngStream(58)
        for _ in range(20):
            a, b = rng.random(30), rng.random(30)
            v = rng.random(30) + 0.01
            total = 0.0
            for x, y, var in zip(a, b, v):
                total += (x - y) * (x - y) / var
            assert sed(a, b, v) == math.sqrt(total)

    def test_symmetry(self):
        rng = RngStream(55)
        for _ in range(50):
            a, b = rng.random(4), rng.random(4)
            v = rng.random(4) + 0.01
            assert sed(a, b, v) == sed(b, a, v)

    def test_triangle_inequality(self):
        rng = RngStream(56)
        for _ in range(200):
            a, b, c = rng.random(3), rng.random(3), rng.random(3)
            v = rng.random(3) + 0.01
            assert sed(a, c, v) <= sed(a, b, v) + sed(b, c, v) + 1e-12

    def test_rescaling_invariance(self):
        # scaling a dimension and its variance by the matching factors is a no-op
        rng = RngStream(57)
        for _ in range(100):
            a, b = rng.random(4), rng.random(4)
            v = rng.random(4) + 0.05
            scale = rng.random(4) * 3.0 + 0.5
            d0 = sed(a, b, v)
            d1 = sed(a * scale, b * scale, v * scale**2)
            assert d1 == pytest.approx(d0, abs=1e-9)


class TestEvaluationHistory:
    def test_empty_history(self):
        history = EvaluationHistory(2, 2)
        assert len(history) == 0
        assert history.batch_numbers().size == 0

    def test_dimensions_validated(self):
        with pytest.raises(ContractViolationError):
            EvaluationHistory(0, 2)
        with pytest.raises(ContractViolationError):
            EvaluationHistory(2, 0)

    def test_append_assigns_batch_numbers(self):
        history = EvaluationHistory(2, 2)
        history.append_batch([[0.0, 0.0]], [[0.0, 1.0]])
        rows = history.append_batch([[1.0, 0.0], [0.5, 0.5]], [[1.0, 0.0], [0.5, 0.5]])
        assert rows == slice(1, 3)
        assert np.array_equal(history.batch_numbers(), [0, 1, 1])
        assert len(history) == 3

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractViolationError):
            EvaluationHistory(2, 2).append_batch(np.empty((0, 2)), np.empty((0, 2)))

    def test_missing_raw_rejected(self):
        with pytest.raises(ContractViolationError):
            EvaluationHistory(1, 2).append_batch([[0.5]], None)
        with pytest.raises(ContractViolationError):
            EvaluationHistory(1, 2).append_batch([[0.5], [0.6]], [[1.0, 2.0]])

    def test_dimension_mismatch_rejected(self):
        history = EvaluationHistory(2, 2)
        history.append_batch([[0.0, 0.0]], [[0.0, 1.0]])
        with pytest.raises(ContractViolationError):
            history.append_batch([[0.0, 0.0, 0.0]], [[0.0, 1.0]])
        with pytest.raises(ContractViolationError):
            history.append_batch([[0.0, 0.0]], [[0.0, 1.0, 2.0]])

    def test_set_averaged_kept_alongside_raw(self):
        history = EvaluationHistory(2, 2)
        rows = history.append_batch([[0.0, 0.0]], [[2.0, 3.0]])
        history.set_averaged(rows, np.array([[1.0, 1.5]]))
        assert np.array_equal(history.raw_matrix()[0], [2.0, 3.0])
        assert np.array_equal(history.averaged_matrix()[0], [1.0, 1.5])

    def test_matrices_read_only(self):
        history = EvaluationHistory(2, 2)
        history.append_batch([[0.1, 0.2]], [[0.3, 0.4]])
        with pytest.raises(ValueError):
            history.variables_matrix()[0, 0] = 9.0
        with pytest.raises(ValueError):
            history.raw_matrix()[0, 0] = 9.0
        with pytest.raises(ValueError):
            history.averaged_matrix()[0, 0] = 9.0
        with pytest.raises(ValueError):
            history.batch_numbers()[0] = 9

    def test_handed_out_matrices_never_change(self):
        # a caller may hold a matrix across later appends and averaging
        history = EvaluationHistory(2, 2)
        rows = history.append_batch([[0.1, 0.2]], [[0.3, 0.4]])
        held = [
            history.variables_matrix(), history.raw_matrix(),
            history.averaged_matrix(), history.batch_numbers(), history.variances(),
        ]
        snapshot = [m.copy() for m in held]
        history.set_averaged(rows, np.array([[9.0, 9.0]]))
        history.append_batch([[0.5, 0.6]], [[0.7, 0.8]])
        for matrix, before in zip(held, snapshot):
            assert not matrix.flags.writeable
            assert np.array_equal(matrix, before)
        assert np.array_equal(history.averaged_matrix(), [[9.0, 9.0], [0.7, 0.8]])
        assert np.array_equal(history.batch_numbers(), [0, 1])

    def test_variances_empty_history_rejected(self):
        with pytest.raises(ContractViolationError):
            EvaluationHistory(2, 2).variances()


@st.composite
def batch_splits(draw):
    """Records in batches of arbitrary sizes, and after which appends to ask for moments."""
    d = draw(st.sampled_from([1, 2, 5, 30]))
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    offset = draw(st.floats(-10.0, 10.0)) * scale
    x = offset + scale * rng.standard_normal((sum(sizes), d))
    asked = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    return x, sizes, asked


class TestHistoryVariances:
    def test_single_record_zero_variance(self):
        history = EvaluationHistory(2, 2)
        history.append_batch([[0.3, 0.9]], [[1.0, 2.0]])
        assert np.array_equal(history.variances(), [0.0, 0.0])

    def test_two_record_hand_value(self):
        # population variance of {0, 2} is 1 in each dimension
        history = EvaluationHistory(2, 2)
        history.append_batch([[0.0, 0.0], [2.0, 2.0]], [[1.0, 1.0], [2.0, 2.0]])
        assert np.array_equal(history.variances(), [1.0, 1.0])

    def test_matches_two_pass_oracle(self):
        # independent two-pass computation over 1,000 random records
        rng = RngStream(61)
        history = EvaluationHistory(3, 2)
        samples = [(rng.random(3), rng.random(2)) for _ in range(1000)]
        history.append_batch([x for x, _ in samples], [r for _, r in samples])
        xs = history.variables_matrix()
        oracle = []
        for d in range(3):
            column = [float(x) for x in xs[:, d]]
            mean = sum(column) / len(column)
            oracle.append(sum((v - mean) ** 2 for v in column) / len(column))
        got = history.variances()
        assert np.allclose(got, oracle, rtol=1e-12, atol=0.0)

    @given(batch_splits())
    def test_running_moments_over_any_batch_split(self, case):
        x, sizes, asked = case
        eager, lazy = EvaluationHistory(x.shape[1], 1), EvaluationHistory(x.shape[1], 1)
        for block, ask in zip(np.split(x, np.cumsum(sizes)[:-1]), asked):
            for history in (eager, lazy):
                history.append_batch(block, np.zeros((len(block), 1)))
            if ask:
                eager.variances()
        # the moments do not depend on when they were asked for
        assert eager.variances().tobytes() == lazy.variances().tobytes()
        oracle = []
        for column in x.T.tolist():
            mean = math.fsum(column) / len(column)
            oracle.append(math.fsum((v - mean) ** 2 for v in column) / len(column))
        assert np.allclose(lazy.variances(), oracle, rtol=1e-12, atol=0.0)


class TestKnnConfig:
    def test_k_validated(self):
        with pytest.raises(ContractViolationError):
            KnnConfig(k=0, max_dist=1.0)

    def test_max_dist_validated(self):
        with pytest.raises(ContractViolationError):
            KnnConfig(k=5, max_dist=0.0)
        with pytest.raises(ContractViolationError):
            KnnConfig(k=5, max_dist=float("inf"))

    @pytest.mark.parametrize("bad", [2.7, True, False, np.True_, "3", math.nan, math.inf])
    def test_non_integer_k_rejected(self, bad):
        # k=2.7 used to become 2 and k=True to become 1 silently
        with pytest.raises(ContractViolationError):
            KnnConfig(k=bad, max_dist=1.0)

    @pytest.mark.parametrize("k", [3, np.int64(3), 3.0])
    def test_integral_k_accepted(self, k):
        config = KnnConfig(k=k, max_dist=1.0)
        assert config.k == 3 and type(config.k) is int

    def test_label(self):
        assert KnnConfig(k=10, max_dist=0.25).label() == "knn(k=10, max_dist=0.25)"


class TestKnnEvaluate:
    def test_empty_population(self):
        history = EvaluationHistory(2, 2)
        out = knn_evaluate(make_batch(np.empty((0, 2)), np.empty((0, 2))), history,
                           KnnConfig(k=3, max_dist=1.0))
        assert len(out) == 0 and len(history) == 0

    def test_single_record_returns_raw_bitwise(self):
        history = EvaluationHistory(2, 2)
        (s,) = batch = make_batch([[0.25, 0.75]], [[0.1234567890123456, 2.5]])
        (out,) = knn_evaluate(batch, history, KnnConfig(k=5, max_dist=0.5))
        assert np.array_equal(out.objectives, s.raw_objectives)
        assert np.array_equal(out.raw_objectives, s.raw_objectives)

    def test_colocated_points_average_raw_values(self):
        # three identical inputs: every SED is 0, weights equal, mean of raws
        history = EvaluationHistory(2, 2)
        batch = make_batch([[0.5, 0.5]] * 3, [[0.0, 0.0], [0.1, 0.1], [0.2, 0.2]])
        out = knn_evaluate(batch, history, KnnConfig(k=3, max_dist=0.5))
        for s in out:
            assert np.allclose(s.objectives, [0.1, 0.1], atol=1e-12)
            # raw values are preserved untouched
        assert np.array_equal(out.raw_objectives[1], [0.1, 0.1])

    def test_k1_returns_raw_bitwise(self):
        problem = ZdtProblem("zdt1", 2)
        noise = NoiseSpec(0.3)
        rng = RngStream(62)
        history = EvaluationHistory(2, 2)
        config = KnnConfig(k=1, max_dist=2.0)
        for _ in range(5):
            batch = one_at_a_time(problem, noise, rng, 8)
            out = knn_evaluate(batch, history, config)
            for before, after in zip(batch, out):
                assert np.array_equal(after.objectives, before.raw_objectives)

    def test_k1_bitwise_with_duplicate_variables(self):
        # duplicates at distance zero must still resolve to each point's own raw
        history = EvaluationHistory(2, 2)
        batch = make_batch([[0.5, 0.5], [0.5, 0.5]], [[1.0, 2.0], [3.0, 4.0]])
        out = knn_evaluate(batch, history, KnnConfig(k=1, max_dist=1.0))
        assert np.array_equal(out.objectives, [[1.0, 2.0], [3.0, 4.0]])

    def test_batch_appended_before_averaging(self):
        # the batch itself is part of the history it averages over
        history = EvaluationHistory(2, 2)
        batch = make_batch([[0.2, 0.8]], [[1.0, 1.0]])
        knn_evaluate(batch, history, KnnConfig(k=3, max_dist=1.0))
        assert len(history) == 1
        assert np.array_equal(history.averaged_matrix()[0], [1.0, 1.0])

    def test_matches_brute_force_oracle(self):
        rng = RngStream(63)
        problem = ZdtProblem("zdt1", 3)
        noise = NoiseSpec(0.4)
        for trial in range(100):
            history = EvaluationHistory(3, 2)
            config = KnnConfig(
                k=int(rng.integers(5)) + 1,
                max_dist=0.1 + float(rng.random()) * 1.5,
            )
            rows_by_batch = []
            batches = int(rng.integers(3)) + 1
            for _ in range(batches):
                batch = one_at_a_time(problem, noise, rng, int(rng.integers(6)) + 2)
                out = knn_evaluate(batch, history, config)
                rows_by_batch.append((out, range(len(history) - len(batch), len(history))))
            # check only the final batch: its averages used the full history state
            out, rows = rows_by_batch[-1]
            expected = brute_force_average(history, list(rows), config)
            assert np.allclose(out.objectives, expected, rtol=0.0, atol=1e-12), trial

    def test_neighbor_budget_and_radius(self):
        # every average stays within the convex hull of <= k raws inside max_dist
        rng = RngStream(64)
        problem = ZdtProblem("zdt2", 2)
        noise = NoiseSpec(0.5)
        history = EvaluationHistory(2, 2)
        config = KnnConfig(k=4, max_dist=0.8)
        for _ in range(6):
            batch = one_at_a_time(problem, noise, rng, 10)
            out = knn_evaluate(batch, history, config)
            variances = history.variances()
            all_vars = history.variables_matrix()
            all_raws = history.raw_matrix()
            rows = range(len(history) - len(batch), len(history))
            for s, row in zip(out, rows):
                dists = np.array(
                    [sed(all_vars[row], all_vars[j], variances) for j in range(len(all_vars))]
                )
                within = np.flatnonzero(dists <= config.max_dist)
                pool = all_raws[within]
                lo = pool.min(axis=0) - 1e-12
                hi = pool.max(axis=0) + 1e-12
                assert np.all(s.objectives >= lo) and np.all(s.objectives <= hi)

    def test_convexity_of_output(self):
        # averaged objectives never escape the raw range of the whole history
        rng = RngStream(65)
        problem = ZdtProblem("zdt3", 2)
        noise = NoiseSpec(0.3)
        history = EvaluationHistory(2, 2)
        config = KnnConfig(k=6, max_dist=1.2)
        for _ in range(5):
            batch = one_at_a_time(problem, noise, rng, 12)
            out = knn_evaluate(batch, history, config)
            raws = history.raw_matrix()
            lo, hi = raws.min(axis=0) - 1e-12, raws.max(axis=0) + 1e-12
            for s in out:
                assert np.all(s.objectives >= lo) and np.all(s.objectives <= hi)

    def test_variance_reduction_at_colocated_points(self):
        # averaging n iid draws shrinks the spread when neighbors exist
        rng = RngStream(66)
        outputs = []
        for _ in range(400):
            history = EvaluationHistory(2, 2)
            raws = [[float(rng.standard_normal(1)[0]), 0.0] for _ in range(5)]
            batch = make_batch([[0.5, 0.5]] * 5, raws)
            out = knn_evaluate(batch, history, KnnConfig(k=5, max_dist=1.0))
            outputs.append(out.objectives[0, 0])
        assert np.var(outputs) < 0.5  # iid variance is 1.0; 5-way averaging cuts it

    def test_variables_preserved(self):
        history = EvaluationHistory(2, 2)
        batch = make_batch([[0.31, 0.62], [0.30, 0.60]], [[1.0, 2.0], [3.0, 4.0]])
        out = knn_evaluate(batch, history, KnnConfig(k=2, max_dist=5.0))
        assert np.array_equal(out.variables, [[0.31, 0.62], [0.30, 0.60]])


def reference_average(history, rows, config, distances):
    """The averaging definition written out the long way.

    ``distances`` is the full query-by-record matrix. Per query: a stable
    sort by distance, the query itself moved first, records beyond
    ``max_dist`` dropped, the first k kept and their raws weighted, the
    weights and the weighted raws each summed from zero strictly left to
    right in that order.
    """
    raws = history.raw_matrix()
    out = []
    for i, row in enumerate(range(rows.start, rows.stop)):
        d = distances[i]
        order = np.argsort(d, kind="stable")
        order = np.concatenate(([row], order[order != row]))
        chosen = order[d[order] <= config.max_dist][: config.k]
        if chosen.shape[0] == 1:
            out.append(raws[row].copy())
            continue
        weights = np.maximum(config.max_dist - d[chosen] ** 2, 0.0)
        total, weighted = 0.0, np.zeros(raws.shape[1])
        for j, weight in zip(chosen, weights):
            total += weight
            weighted = weighted + weight * raws[j]
        out.append(weighted / total)
    return np.array(out)


def full_distance_matrix(queries, records, variances):
    """sqrt of the left-to-right per-dimension sum, over every pair."""
    acc = np.zeros((queries.shape[0], records.shape[0]))
    for j in range(variances.shape[0]):
        if variances[j] >= ZERO_VARIANCE_EPS:
            dj = queries[:, j][:, None] - records[:, j][None, :]
            acc += dj * dj / variances[j]
    return np.sqrt(acc)


@st.composite
def averaging_cases(draw):
    """A history plus one batch, shaped to hit the selection edge cases."""
    d = draw(st.sampled_from([1, 2, 5, 30]))
    n_prior = draw(st.integers(0, 30))
    n_batch = draw(st.integers(1, 10))
    total = n_prior + n_batch
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # coordinates on a coarse grid: many exact distance ties
        x = rng.integers(0, 4, size=(total, d)) / 4.0
    else:
        x = rng.random((total, d))
    # exact duplicates inside the batch and copies of earlier records
    for _ in range(draw(st.integers(0, n_batch))):
        x[n_prior + rng.integers(n_batch)] = x[rng.integers(total)]
    spread = draw(st.sampled_from(["full", "one-constant", "all-constant", "narrow"]))
    if spread == "one-constant":
        x[:, rng.integers(d)] = 0.375
    elif spread == "all-constant":
        x[:] = x[0]
    elif spread == "narrow":
        # a narrow band far from the origin: the screen's norms dwarf the
        # distances it has to keep
        x = 1.0 - 1e-3 * x
    raws = rng.standard_normal((total, 2))
    k = draw(st.integers(1, 12))
    boundary = draw(st.booleans())
    max_dist = draw(st.floats(0.05, 3.0))
    return x, raws, n_prior, k, boundary, max_dist


def assert_matches_definition(x, raws, n_prior, k, pick_max_dist):
    """Run ``knn_evaluate`` on rows ``n_prior:`` of ``x`` over a history
    holding rows ``:n_prior`` and compare it bitwise with the definition:
    first the (query, record, distance) pairs kept within the cutoff, then
    the weighted means.

    ``pick_max_dist`` maps the full query-by-record distance matrix to the
    cutoff, so a test can place the cutoff on a distance that occurs.
    """
    kernel_history = EvaluationHistory(x.shape[1], 2)
    reference_history = EvaluationHistory(x.shape[1], 2)
    if n_prior:
        kernel_history.append_batch(x[:n_prior], raws[:n_prior])
        reference_history.append_batch(x[:n_prior], raws[:n_prior])
    batch = make_batch(x[n_prior:], raws[n_prior:])
    rows = reference_history.append_batch(batch.variables, batch.raw_objectives)
    records = reference_history.variables_matrix()
    variances = reference_history.variances()
    distances = full_distance_matrix(records[rows], records, variances)
    config = KnnConfig(k=k, max_dist=pick_max_dist(distances))
    expected = reference_average(reference_history, rows, config, distances)

    kept = zip(*_neighbor_pairs(records, rows, variances, config.max_dist))
    q_idx, r_idx = np.nonzero(distances <= config.max_dist)
    within = zip(q_idx, r_idx, distances[q_idx, r_idx])
    assert sorted((int(q), int(r), float(d)) for q, r, d in kept) == sorted(
        (int(q), int(r), float(d)) for q, r, d in within
    )

    got = knn_evaluate(batch, kernel_history, config).objectives
    assert got.tobytes() == expected.tobytes()
    assert kernel_history.averaged_matrix()[rows].tobytes() == expected.tobytes()
    if k == 1:
        assert got.tobytes() == raws[n_prior:].tobytes()


class TestKnnEvaluateMatchesDefinition:
    @given(averaging_cases())
    def test_bitwise_equal_to_full_matrix_definition(self, case):
        x, raws, n_prior, k, boundary, max_dist = case

        def pick(distances):
            positive = distances[distances > 0.0]
            if boundary and positive.size:
                # a distance that occurs: the cutoff is inclusive
                return float(np.sort(positive)[positive.size // 2])
            return max_dist

        assert_matches_definition(x, raws, n_prior, k, pick)

    def test_records_exactly_at_the_cutoff_are_kept(self):
        # At d=30 the screen's product form rounds above the exact distance
        # for many pairs, and far more so in a narrow band far from the
        # origin; its slack must keep those on the cutoff, which the
        # kept-pair comparison sees directly.
        rng = RngStream(67)
        x, raws = rng.random((40, 30)), rng.random((40, 2))
        for band in (x, 1.0 - 1e-3 * x):
            for record in range(30):
                assert_matches_definition(band, raws, 30, 40, lambda dist: float(dist[0, record]))


class TestScreenSelectivity:
    def test_screen_passes_few_pairs_beyond_the_cutoff(self, monkeypatch):
        # Every result would stay right if the screen passed every pair; only
        # the exact pass would slow down. Count what reaches it over one run.
        config = KnnConfig(k=10, max_dist=0.25)
        exact = averaging._pair_distances
        candidates, kept = [], []

        def counting(a, b, variances):
            dist = exact(a, b, variances)
            candidates.append(dist.size)
            kept.append(int(np.count_nonzero(dist <= config.max_dist)))
            return dist

        monkeypatch.setattr(averaging, "_pair_distances", counting)
        run_optimization(ZdtProblem("zdt1", 30), NoiseSpec(0.1), KnnAveraged(config),
                         GaConfig(pop_size=20, generations=15), RngStream(1))
        # 16 batches of 20, and every solution keeps at least itself
        assert len(candidates) == 16 and sum(kept) >= 320
        assert sum(candidates) <= 1.01 * sum(kept)


class TestHistoryRows:
    def test_header_and_row_layout(self):
        history = EvaluationHistory(2, 2)
        batch = make_batch([[0.25, 0.75]], [[1.0, 2.0]])
        knn_evaluate(batch, history, KnnConfig(k=1, max_dist=1.0))
        header, rows = history_rows(history)
        assert header == ["batch", "x0", "x1", "raw_f1", "raw_f2", "avg_f1", "avg_f2"]
        assert rows == [[0, 0.25, 0.75, 1.0, 2.0, 1.0, 2.0]]
        assert all(type(v) in (int, float) for row in rows for v in row)

    def test_row_count_tracks_history(self):
        history = EvaluationHistory(2, 2)
        for _ in range(3):
            batch = make_batch([[0.5, 0.5]] * 4, [[1.0, 1.0]] * 4)
            knn_evaluate(batch, history, KnnConfig(k=2, max_dist=1.0))
        _, rows = history_rows(history)
        assert len(rows) == 12
