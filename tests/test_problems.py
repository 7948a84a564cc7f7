"""ZDT benchmarks, noise injection, and true-front samples."""

import numpy as np
import pytest

from knnavg.core import ContractViolationError, RngStream
from knnavg.problems import (
    NoiseSpec,
    ParetoFrontSample,
    ZdtProblem,
    evaluate_noisy,
    evaluate_true,
    mean_objectives,
    true_front,
)


class TestZdtProblem:
    def test_variant_validated(self):
        with pytest.raises(ContractViolationError):
            ZdtProblem("zdt9", 2)

    def test_variant_case_normalized(self):
        assert ZdtProblem("ZDT1", 2).variant == "zdt1"

    def test_n_vars_minimum(self):
        with pytest.raises(ContractViolationError):
            ZdtProblem("zdt1", 1)

    def test_unit_box_bounds(self):
        problem = ZdtProblem("zdt2", 4)
        lower, upper = problem.bounds
        assert np.array_equal(lower, np.zeros(4))
        assert np.array_equal(upper, np.ones(4))
        assert problem.n_objs == 2
        assert problem.name == "zdt2-n4"


class TestEvaluateTrue:
    def test_zdt1_origin_corner(self):
        assert np.array_equal(evaluate_true(ZdtProblem("zdt1", 2), [0.0, 0.0]), [0.0, 1.0])

    def test_zdt1_front_corner(self):
        assert np.array_equal(evaluate_true(ZdtProblem("zdt1", 2), [1.0, 0.0]), [1.0, 0.0])

    def test_zdt2_front_corner(self):
        assert np.array_equal(evaluate_true(ZdtProblem("zdt2", 2), [1.0, 0.0]), [1.0, 0.0])

    def test_zdt1_interior_hand_value(self):
        # g = 5.5, f2 = 5.5 * (1 - sqrt(0.25 / 5.5))
        f = evaluate_true(ZdtProblem("zdt1", 2), [0.25, 0.5])
        assert f[0] == 0.25
        assert f[1] == pytest.approx(4.327396060044142, abs=1e-14)

    def test_zdt2_interior_hand_value(self):
        f = evaluate_true(ZdtProblem("zdt2", 2), [0.5, 0.5])
        assert f[1] == pytest.approx(5.454545454545455, abs=1e-14)

    def test_zdt3_interior_hand_value(self):
        # sin(5 pi) = 0 leaves only the sqrt term
        f = evaluate_true(ZdtProblem("zdt3", 2), [0.5, 0.5])
        assert f[1] == pytest.approx(3.841687604822299, abs=1e-14)

    def test_zdt3_oscillating_term(self):
        f = evaluate_true(ZdtProblem("zdt3", 2), [0.8, 0.0])
        assert f[1] == pytest.approx(0.10557280900008492, abs=1e-14)

    def test_higher_dimension_hand_value(self):
        f = evaluate_true(ZdtProblem("zdt1", 4), [0.5, 0.25, 0.75, 1.0])
        assert f[1] == pytest.approx(5.12917130661303, abs=1e-13)

    def test_pure_function(self):
        problem = ZdtProblem("zdt3", 5)
        x = np.full(5, 0.3)
        assert np.array_equal(evaluate_true(problem, x), evaluate_true(problem, x))

    def test_out_of_bounds_rejected(self):
        problem = ZdtProblem("zdt1", 2)
        with pytest.raises(ContractViolationError):
            evaluate_true(problem, [1.5, 0.0])
        with pytest.raises(ContractViolationError):
            evaluate_true(problem, [-0.1, 0.0])

    def test_wrong_length_rejected(self):
        with pytest.raises(ContractViolationError):
            evaluate_true(ZdtProblem("zdt1", 3), [0.5, 0.5])


class TestNoiseSpec:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ContractViolationError):
            NoiseSpec(-0.1)

    def test_scalar_broadcast(self):
        # the one sigma scales the draw of every objective
        problem = ZdtProblem("zdt1", 2)
        x = np.array([0.3, 0.6])
        sample = evaluate_noisy(problem, NoiseSpec(0.5), x, RngStream(8))
        draws = RngStream(8).standard_normal(2)
        assert np.array_equal(sample.raw_objectives, evaluate_true(problem, x) + 0.5 * draws)

    def test_sigma_stored_as_float(self):
        for value in (1, np.float32(0.5), np.int64(2)):
            sigma = NoiseSpec(value).sigma
            assert sigma == float(value) and type(sigma) is float

    def test_vector_sigma_rejected(self):
        # one sigma is shared by both objectives; a vector is a contract violation
        with pytest.raises(ContractViolationError):
            NoiseSpec((0.1, 0.2))
        with pytest.raises(ContractViolationError):
            NoiseSpec("0.1 0.2")


class TestEvaluateNoisy:
    def test_sigma_zero_equals_true_evaluation(self):
        problem = ZdtProblem("zdt1", 3)
        rng = RngStream(11)
        for _ in range(20):
            x = rng.random(3)
            s = evaluate_noisy(problem, NoiseSpec(0.0), x, rng)
            assert np.array_equal(s.objectives, evaluate_true(problem, x))
            assert np.array_equal(s.raw_objectives, s.objectives)

    def test_seeded_reproducibility(self):
        problem = ZdtProblem("zdt1", 2)
        a = evaluate_noisy(problem, NoiseSpec(0.1), [0.0, 0.0], RngStream(4))
        b = evaluate_noisy(problem, NoiseSpec(0.1), [0.0, 0.0], RngStream(4))
        assert np.array_equal(a.objectives, b.objectives)

    def test_draw_count_independent_of_sigma(self):
        # sigma=0 and sigma>0 must advance the stream identically
        problem = ZdtProblem("zdt1", 2)
        quiet, loud = RngStream(21), RngStream(21)
        evaluate_noisy(problem, NoiseSpec(0.0), [0.5, 0.5], quiet)
        evaluate_noisy(problem, NoiseSpec(0.5), [0.5, 0.5], loud)
        assert quiet.random() == loud.random()

    def test_sample_mean_close_to_truth(self):
        problem = ZdtProblem("zdt1", 2)
        noise = NoiseSpec(0.1)
        rng = RngStream(31)
        x = np.array([0.25, 0.5])
        true = evaluate_true(problem, x)
        samples = np.array(
            [evaluate_noisy(problem, noise, x, rng).raw_objectives for _ in range(10_000)]
        )
        bound = 4 * 0.1 / np.sqrt(10_000)
        assert np.all(np.abs(samples.mean(axis=0) - true) < bound)

    def test_noise_dimensions_independent(self):
        problem = ZdtProblem("zdt1", 2)
        noise = NoiseSpec(0.25)
        rng = RngStream(32)
        x = np.array([0.5, 0.5])
        true = evaluate_true(problem, x)
        deltas = np.array(
            [evaluate_noisy(problem, noise, x, rng).raw_objectives - true for _ in range(10_000)]
        )
        corr = np.corrcoef(deltas[:, 0], deltas[:, 1])[0, 1]
        assert abs(corr) < 0.05


class TestMeanObjectives:
    def test_equals_true_evaluation(self):
        problem = ZdtProblem("zdt2", 3)
        rng = RngStream(41)
        for _ in range(20):
            s = evaluate_noisy(problem, NoiseSpec(0.3), rng.random(3), rng)
            assert np.array_equal(mean_objectives(problem, s), evaluate_true(problem, s.variables))

    def test_matches_resampling_average(self):
        problem = ZdtProblem("zdt1", 2)
        noise = NoiseSpec(0.2)
        rng = RngStream(42)
        x = np.array([0.1, 0.9])
        s = evaluate_noisy(problem, noise, x, rng)
        resampled = np.array(
            [evaluate_noisy(problem, noise, x, rng).raw_objectives for _ in range(10_000)]
        )
        bound = 4 * 0.2 / np.sqrt(10_000)
        assert np.all(np.abs(resampled.mean(axis=0) - mean_objectives(problem, s)) < bound)


class TestTrueFront:
    def test_count_validated(self):
        with pytest.raises(ContractViolationError):
            true_front(ZdtProblem("zdt1", 2), 1)

    def test_zdt1_endpoints(self):
        sample = true_front(ZdtProblem("zdt1", 2), 2)
        assert np.allclose(sample.points, [[0.0, 1.0], [1.0, 0.0]])

    def test_zdt2_formula(self):
        sample = true_front(ZdtProblem("zdt2", 2), 3)
        assert sample.points[1][0] == pytest.approx(0.5)
        assert sample.points[1][1] == pytest.approx(0.75)

    def test_requested_count_returned(self):
        for variant in ("zdt1", "zdt2", "zdt3"):
            assert len(true_front(ZdtProblem(variant, 2), 257)) == 257

    def test_zdt3_points_on_curve(self):
        sample = true_front(ZdtProblem("zdt3", 2), 500)
        f1 = sample.points[:, 0]
        expected = 1.0 - np.sqrt(f1) - f1 * np.sin(10.0 * np.pi * f1)
        assert np.allclose(sample.points[:, 1], expected, atol=1e-12)

    def test_zdt3_front_is_disconnected(self):
        # the non-dominated part of the curve has five separate f1 bands
        sample = true_front(ZdtProblem("zdt3", 2), 2000)
        gaps = np.diff(np.sort(sample.points[:, 0]))
        typical = np.median(gaps)
        assert np.sum(gaps > 20 * typical) == 4

    def test_mutual_non_domination_all_variants(self):
        for variant in ("zdt1", "zdt2", "zdt3"):
            pts = true_front(ZdtProblem(variant, 2), 300).points
            le = np.all(pts[:, None, :] <= pts[None, :, :], axis=2)
            lt = np.any(pts[:, None, :] < pts[None, :, :], axis=2)
            assert not np.any(le & lt)

    def test_non_dominated_versus_dense_curve_sweep(self):
        # no point of a dense curve sweep may dominate a front sample point
        sweeps = {}
        f1 = np.linspace(0.0, 1.0, 10_000)
        sweeps["zdt1"] = np.column_stack((f1, 1.0 - np.sqrt(f1)))
        sweeps["zdt2"] = np.column_stack((f1, 1.0 - f1**2))
        sweeps["zdt3"] = np.column_stack(
            (f1, 1.0 - np.sqrt(f1) - f1 * np.sin(10.0 * np.pi * f1))
        )
        for variant, sweep in sweeps.items():
            pts = true_front(ZdtProblem(variant, 2), 200).points
            le = np.all(sweep[:, None, :] <= pts[None, :, :], axis=2)
            lt = np.any(sweep[:, None, :] < pts[None, :, :], axis=2)
            assert not np.any(le & lt), variant

    def test_front_independent_of_n_vars(self):
        a = true_front(ZdtProblem("zdt3", 2), 100).points
        b = true_front(ZdtProblem("zdt3", 10), 100).points
        assert np.array_equal(a, b)


class TestParetoFrontSample:
    def test_shape_validated(self):
        with pytest.raises(ContractViolationError):
            ParetoFrontSample(np.zeros((0, 2)))
        with pytest.raises(ContractViolationError):
            ParetoFrontSample(np.zeros(3))

    def test_points_frozen(self):
        sample = ParetoFrontSample(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            sample.points[0, 0] = 5.0
