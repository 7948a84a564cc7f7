"""Quality indicators: hypervolume, IGD, objective error, expectation-adjusted scoring."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from knnavg.core import Batch, ContractViolationError, RngStream
from knnavg.metrics import (
    DEFAULT_FRONT_SAMPLE_SIZE,
    DEFAULT_REFERENCE,
    MetricReport,
    as_reference,
    compute_report,
    delta_f,
    hypervolume_2d,
    igd,
)
from knnavg.problems import (
    NoiseSpec,
    ZdtProblem,
    evaluate_noisy,
    evaluate_true,
    true_front,
)
from sampling import one_at_a_time


def monte_carlo_hv(points, reference, n_samples, seed):
    """Independent estimate: fraction of uniform box samples dominated."""
    rng = np.random.default_rng(seed)
    reference = np.asarray(reference, dtype=float)
    pts = np.asarray(points, dtype=float)
    samples = rng.random((n_samples, 2)) * reference
    dominated = np.zeros(n_samples, dtype=bool)
    for p in pts:
        dominated |= np.all(samples >= p, axis=1)
    box = float(reference[0] * reference[1])
    frac = dominated.mean()
    estimate = frac * box
    stderr = box * np.sqrt(frac * (1.0 - frac) / n_samples)
    return estimate, stderr


class TestHypervolume2d:
    def test_single_point_unit_square(self):
        assert hypervolume_2d([[0.0, 0.0]], (1.0, 1.0)) == 1.0

    def test_two_point_staircase(self):
        assert hypervolume_2d([[0.0, 0.5], [0.5, 0.0]], (1.0, 1.0)) == 0.75

    def test_empty_set(self):
        assert hypervolume_2d(np.empty((0, 2)), (1.0, 1.0)) == 0.0

    def test_point_at_reference_contributes_nothing(self):
        assert hypervolume_2d([[1.0, 1.0]], (1.0, 1.0)) == 0.0
        assert hypervolume_2d([[0.5, 1.0]], (1.0, 1.0)) == 0.0

    def test_point_beyond_reference_ignored(self):
        base = hypervolume_2d([[0.2, 0.2]], (1.0, 1.0))
        with_outlier = hypervolume_2d([[0.2, 0.2], [2.0, -5.0]], (1.0, 1.0))
        assert with_outlier == base

    def test_dominated_point_contributes_nothing(self):
        base = hypervolume_2d([[0.2, 0.2]], (1.0, 1.0))
        assert hypervolume_2d([[0.2, 0.2], [0.5, 0.5]], (1.0, 1.0)) == base

    def test_duplicate_points_counted_once(self):
        assert hypervolume_2d([[0.0, 0.0], [0.0, 0.0]], (1.0, 1.0)) == 1.0

    def test_permutation_invariance(self):
        rng = RngStream(71)
        for _ in range(30):
            pts = rng.random(10 * 2).reshape(10, 2)
            shuffled = pts[np.argsort(rng.random(10))]
            a = hypervolume_2d(pts, (1.0, 1.0))
            b = hypervolume_2d(shuffled, (1.0, 1.0))
            assert a == pytest.approx(b, abs=1e-15)

    def test_adding_a_point_never_shrinks(self):
        rng = RngStream(72)
        for _ in range(50):
            pts = rng.random(8 * 2).reshape(8, 2)
            extra = rng.random(2)
            a = hypervolume_2d(pts, (1.0, 1.0))
            b = hypervolume_2d(np.vstack((pts, extra)), (1.0, 1.0))
            assert b >= a - 1e-15

    def test_matches_monte_carlo_oracle(self):
        # light version of the large-scale check in the acceptance suite
        rng = RngStream(73)
        for trial in range(10):
            pts = rng.random(12 * 2).reshape(12, 2)
            exact = hypervolume_2d(pts, (1.0, 1.0))
            estimate, stderr = monte_carlo_hv(pts, (1.0, 1.0), 200_000, seed=trial)
            assert abs(exact - estimate) <= 3.0 * stderr + 1e-9

    def test_zdt1_front_value_at_standard_reference(self):
        # analytic value: 11*11 - integral of (1 - sqrt(f1)) related terms;
        # a dense front sample converges to 120.6667 from below
        pts = true_front(ZdtProblem("zdt1", 2), 100_000)
        assert hypervolume_2d(pts, DEFAULT_REFERENCE) == pytest.approx(
            120.66666666666667, abs=1e-3
        )

    def test_reference_shape_validated(self):
        with pytest.raises(ContractViolationError):
            hypervolume_2d([[0.0, 0.0]], (1.0, 1.0, 1.0))

    def test_points_shape_validated(self):
        with pytest.raises(ContractViolationError):
            hypervolume_2d([[0.0, 0.0, 0.0]], (1.0, 1.0))


class TestIgd:
    def test_hand_value(self):
        front = np.array([[0.0, 0.0], [1.0, 1.0]])
        # nearest to (0,0) is itself; nearest to (1,1) is (0,0) at sqrt(2)
        assert igd(front, [[0.0, 0.0]]) == pytest.approx(
            (0.0 + np.sqrt(2.0)) / 2.0, abs=1e-15
        )

    def test_zero_when_set_covers_front(self):
        front = true_front(ZdtProblem("zdt1", 2), 50)
        assert igd(front, front) == 0.0

    def test_adding_a_point_never_increases(self):
        front = true_front(ZdtProblem("zdt2", 2), 100)
        rng = RngStream(74)
        for _ in range(30):
            objs = rng.random(6 * 2).reshape(6, 2) * 2.0
            extra = rng.random(2) * 2.0
            a = igd(front, objs)
            b = igd(front, np.vstack((objs, extra)))
            assert b <= a + 1e-15

    def test_empty_set_rejected(self):
        front = true_front(ZdtProblem("zdt1", 2), 10)
        with pytest.raises(ContractViolationError):
            igd(front, np.empty((0, 2)))

    def test_dimension_mismatch_rejected(self):
        front = true_front(ZdtProblem("zdt1", 2), 10)
        with pytest.raises(ContractViolationError):
            igd(front, [[0.0, 0.0, 0.0]])

    def test_front_shape_validated(self):
        for front in (np.zeros((0, 2)), np.zeros(2), np.zeros((1, 2, 1))):
            with pytest.raises(ContractViolationError):
                igd(front, [[0.0, 0.0]])

    @given(
        st.sampled_from(["zdt1", "zdt2", "zdt3"]),
        st.integers(2, 60),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
        st.integers(0, 10),
        st.booleans(),
    )
    def test_bitwise_equal_to_cdist(self, variant, n_front, n_objs, seed, copies, coarse):
        # scipy stays the oracle: the same value to the last bit, with
        # duplicate solutions and solutions lying exactly on the front
        front = true_front(ZdtProblem(variant, 2), n_front)
        rng = np.random.default_rng(seed)
        objs = rng.random((n_objs, 2)) * 1.5
        if coarse:
            objs = np.round(objs * 4.0) / 4.0
        for _ in range(copies):
            source = front if rng.random() < 0.5 else objs
            objs[rng.integers(n_objs)] = source[rng.integers(source.shape[0])]
        expected = float(cdist(front, objs).min(axis=1).mean())
        assert igd(front, objs).hex() == expected.hex()


def make_pair(reported, expected):
    return np.asarray(reported, dtype=float), np.asarray(expected, dtype=float)


class TestDeltaF:
    def test_hand_value_single_pair(self):
        reported, expected = make_pair([[3.0, 4.0]], [[0.0, 0.0]])
        assert delta_f(reported, expected) == 5.0

    def test_hand_value_mean_over_pairs(self):
        reported, expected = make_pair([[1.0, 0.0], [0.0, 3.0]], [[0.0, 0.0], [0.0, 0.0]])
        assert delta_f(reported, expected) == 2.0

    def test_zero_for_identical_sets(self):
        reported, expected = make_pair([[0.5, 0.5], [1.0, 2.0]], [[0.5, 0.5], [1.0, 2.0]])
        assert delta_f(reported, expected) == 0.0

    def test_translation_invariance(self):
        rng = RngStream(75)
        for _ in range(20):
            reported = rng.random(5 * 2).reshape(5, 2)
            expected = rng.random(5 * 2).reshape(5, 2)
            shift = rng.random(2) * 10.0
            assert delta_f(reported + shift, expected + shift) == pytest.approx(
                delta_f(reported, expected), abs=1e-12
            )

    def test_symmetric_in_roles(self):
        reported, expected = make_pair([[1.0, 2.0]], [[4.0, 6.0]])
        assert delta_f(reported, expected) == delta_f(expected, reported)

    def test_size_mismatch_rejected(self):
        reported, expected = make_pair([[1.0, 2.0], [3.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ContractViolationError):
            delta_f(reported, expected[:1])
        with pytest.raises(ContractViolationError):
            delta_f(reported, expected[:, :1])
        with pytest.raises(ContractViolationError):
            delta_f(np.empty((0, 2)), np.empty((0, 2)))


class TestAdjustedSet:
    """Scoring replaces each row's objectives by its expected objectives."""

    def test_replaces_objectives_with_expectation(self):
        problem = ZdtProblem("zdt1", 2)
        noise = NoiseSpec(0.5)
        rng = RngStream(76)
        batch = one_at_a_time(problem, noise, rng, 10)
        expected = evaluate_true(problem, batch.variables)
        assert expected.shape == batch.objectives.shape
        for x, row in zip(batch.variables, expected):
            assert np.array_equal(row, evaluate_true(problem, x))
        report = compute_report(batch, problem, noise)
        assert report.delta_f == delta_f(batch.objectives, expected)
        assert report.hv_mean_adjusted == hypervolume_2d(expected, DEFAULT_REFERENCE)

    def test_corner_point(self):
        problem = ZdtProblem("zdt1", 2)
        noise = NoiseSpec(1.0)
        batch = evaluate_noisy(problem, noise, [[0.0, 0.0]], RngStream(77))
        report = compute_report(batch, problem, noise)
        # the expected corner point (0, 1) lies on the front, 10 x 10 inside the reference
        assert report.hv_mean_adjusted == 110.0
        diff = batch.objectives[0] - [0.0, 1.0]
        assert report.delta_f == float(np.sqrt(np.sum(diff * diff)))

    def test_noise_free_run_is_fixed_point(self):
        problem = ZdtProblem("zdt2", 3)
        noise = NoiseSpec(0.0)
        rng = RngStream(78)
        batch = one_at_a_time(problem, noise, rng, 5)
        assert np.array_equal(evaluate_true(problem, batch.variables), batch.objectives)
        assert compute_report(batch, problem, noise).delta_f == 0.0


class TestMetricReport:
    def test_value_lookup(self):
        report = MetricReport(
            hv_mean_adjusted=1.0,
            igd_mean_adjusted=0.5,
            delta_f=0.25,
            reference_point=(11.0, 11.0),
            front_sample_size=1000,
        )
        assert report.value("hv") == 1.0
        assert report.value("igd") == 0.5
        assert report.value("delta_f") == 0.25

    def test_unknown_metric_rejected(self):
        report = MetricReport(1.0, 0.5, 0.25, (11.0, 11.0), 1000)
        with pytest.raises(ContractViolationError):
            report.value("spread")

    def test_negative_indicator_rejected(self):
        with pytest.raises(ContractViolationError):
            MetricReport(-1.0, 0.5, 0.25, (11.0, 11.0), 1000)

    def test_non_finite_indicator_rejected(self):
        with pytest.raises(ContractViolationError):
            MetricReport(float("nan"), 0.5, 0.25, (11.0, 11.0), 1000)

    def test_reference_point_shape(self):
        with pytest.raises(ContractViolationError):
            MetricReport(1.0, 0.5, 0.25, (11.0,), 1000)

    @pytest.mark.parametrize("bad", [(1.0, float("nan")), (float("inf"), 11.0)])
    def test_non_finite_reference_point_rejected(self, bad):
        with pytest.raises(ContractViolationError, match="finite"):
            MetricReport(1.0, 0.5, 0.25, bad, 1000)


class TestAsReference:
    def test_two_finite_coordinates_become_floats(self):
        ref = as_reference([np.float32(11.0), 5])
        assert ref == (11.0, 5.0)
        assert all(type(v) is float for v in ref)

    @pytest.mark.parametrize(
        "bad", [(1.0, float("nan")), (float("inf"), float("inf")), (11.0,), (1.0, 2.0, 3.0)]
    )
    def test_rejected(self, bad):
        with pytest.raises(ContractViolationError, match="two finite coordinates"):
            as_reference(bad)


class TestComputeReport:
    def test_composes_the_three_indicators(self):
        problem = ZdtProblem("zdt1", 2)
        noise = NoiseSpec(0.1)
        rng = RngStream(79)
        batch = one_at_a_time(problem, noise, rng, 12)
        report = compute_report(batch, problem, noise)
        adjusted_objs = evaluate_true(problem, batch.variables)
        front = true_front(problem, DEFAULT_FRONT_SAMPLE_SIZE)
        assert report.hv_mean_adjusted == hypervolume_2d(adjusted_objs, DEFAULT_REFERENCE)
        assert report.igd_mean_adjusted == igd(front, adjusted_objs)
        assert report.delta_f == delta_f(batch.objectives, adjusted_objs)
        assert report.reference_point == DEFAULT_REFERENCE
        assert report.front_sample_size == DEFAULT_FRONT_SAMPLE_SIZE

    def test_custom_reference_and_sample_size(self):
        problem = ZdtProblem("zdt1", 2)
        noise = NoiseSpec(0.0)
        rng = RngStream(80)
        batch = one_at_a_time(problem, noise, rng, 5)
        report = compute_report(batch, problem, noise, reference=(5.0, 5.0), front_sample_size=64)
        assert report.reference_point == (5.0, 5.0)
        assert report.front_sample_size == 64

    def test_empty_set_rejected(self):
        with pytest.raises(ContractViolationError):
            empty = Batch(np.empty((0, 2)), np.empty((0, 2)), np.empty((0, 2)))
            compute_report(empty, ZdtProblem("zdt1", 2), NoiseSpec(0.0))

    def test_noise_free_front_set_has_zero_error(self):
        # variables on the front (x2..xn = 0) with no noise: delta_f must be 0
        problem = ZdtProblem("zdt1", 2)
        noise = NoiseSpec(0.0)
        rng = RngStream(81)
        batch = evaluate_noisy(problem, noise, [[float(rng.random()), 0.0]], rng)
        for _ in range(9):
            batch = batch.concat(evaluate_noisy(problem, noise, [[float(rng.random()), 0.0]], rng))
        report = compute_report(batch, problem, noise)
        assert report.delta_f == 0.0
