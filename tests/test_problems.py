"""ZDT benchmarks, noise injection, and true-front samples."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from knnavg.core import ContractViolationError, RngStream
from knnavg.metrics import compute_report
from knnavg.problems import (
    NoiseSpec,
    ZdtProblem,
    evaluate_noisy,
    evaluate_true,
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
        # the decision space is the unit box that evaluation enforces, corners included
        problem = ZdtProblem("zdt2", 4)
        assert problem.n_objs == 2
        assert evaluate_true(problem, np.stack((np.zeros(4), np.ones(4)))).shape == (2, 2)
        for outside in (-np.nextafter(0.0, 1.0), np.nextafter(1.0, 2.0)):
            with pytest.raises(ContractViolationError):
                evaluate_true(problem, np.full(4, outside))


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
        with pytest.raises(ContractViolationError):
            evaluate_true(ZdtProblem("zdt1", 3), [[0.5, 0.5]])

    def test_matrix_gives_one_row_per_vector(self):
        problem = ZdtProblem("zdt1", 2)
        f = evaluate_true(problem, [[0.0, 0.0], [1.0, 0.0], [0.25, 0.5]])
        assert f.shape == (3, 2)
        assert np.array_equal(f[2], evaluate_true(problem, [0.25, 0.5]))


class TestNoiseSpec:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ContractViolationError):
            NoiseSpec(-0.1)

    def test_scalar_broadcast(self):
        # the one sigma scales the draw of every objective
        problem = ZdtProblem("zdt1", 2)
        x = np.array([0.3, 0.6])
        sample = evaluate_noisy(problem, NoiseSpec(0.5), [x], RngStream(8))
        draws = RngStream(8).standard_normal(2)
        assert np.array_equal(sample.raw_objectives, [evaluate_true(problem, x) + 0.5 * draws])

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
            (s,) = evaluate_noisy(problem, NoiseSpec(0.0), [x], rng)
            assert np.array_equal(s.objectives, evaluate_true(problem, x))
            assert np.array_equal(s.raw_objectives, s.objectives)

    def test_seeded_reproducibility(self):
        problem = ZdtProblem("zdt1", 2)
        a = evaluate_noisy(problem, NoiseSpec(0.1), [[0.0, 0.0]], RngStream(4))
        b = evaluate_noisy(problem, NoiseSpec(0.1), [[0.0, 0.0]], RngStream(4))
        assert np.array_equal(a.objectives, b.objectives)

    def test_draw_count_independent_of_sigma(self):
        # sigma=0 and sigma>0 must advance the stream identically
        problem = ZdtProblem("zdt1", 2)
        quiet, loud = RngStream(21), RngStream(21)
        evaluate_noisy(problem, NoiseSpec(0.0), [[0.5, 0.5]], quiet)
        evaluate_noisy(problem, NoiseSpec(0.5), [[0.5, 0.5]], loud)
        assert quiet.random() == loud.random()

    def test_single_vector_rejected(self):
        # noisy evaluation takes a (b, n) matrix, even for one point, and
        # refuses anything else before it draws
        rng, probe = RngStream(5), RngStream(5)
        with pytest.raises(ContractViolationError):
            evaluate_noisy(ZdtProblem("zdt1", 2), NoiseSpec(0.1), [0.5, 0.5], rng)
        assert rng.random() == probe.random()

    def test_sample_mean_close_to_truth(self):
        problem = ZdtProblem("zdt1", 2)
        noise = NoiseSpec(0.1)
        rng = RngStream(31)
        x = np.array([0.25, 0.5])
        true = evaluate_true(problem, x)
        samples = evaluate_noisy(problem, noise, np.tile(x, (10_000, 1)), rng).raw_objectives
        bound = 4 * 0.1 / np.sqrt(10_000)
        assert np.all(np.abs(samples.mean(axis=0) - true) < bound)

    def test_noise_dimensions_independent(self):
        problem = ZdtProblem("zdt1", 2)
        noise = NoiseSpec(0.25)
        rng = RngStream(32)
        x = np.array([0.5, 0.5])
        true = evaluate_true(problem, x)
        deltas = evaluate_noisy(problem, noise, np.tile(x, (10_000, 1)), rng).raw_objectives - true
        corr = np.corrcoef(deltas[:, 0], deltas[:, 1])[0, 1]
        assert abs(corr) < 0.05


@st.composite
def evaluation_cases(draw):
    """A (b, n) matrix of decision vectors, with exact 0 and 1 coordinates."""
    n = draw(st.sampled_from([2, 30]))
    b = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.random((b, n))
    x[rng.random((b, n)) < 0.1] = 0.0
    x[rng.random((b, n)) < 0.1] = 1.0
    variant = draw(st.sampled_from(["zdt1", "zdt2", "zdt3"]))
    sigma = draw(st.sampled_from([0.0, 0.1, 0.5]))
    return ZdtProblem(variant, n), NoiseSpec(sigma), x, draw(st.integers(0, 2**32 - 1))


class TestBatchedEvaluation:
    @given(evaluation_cases())
    def test_matrix_equals_row_by_row(self, case):
        # one (b, n) call: the same bits and the same stream position as b
        # single-point evaluations, each the true objectives plus two draws
        problem, noise, x, seed = case
        batched_rng, row_rng = RngStream(seed), RngStream(seed)
        batch = evaluate_noisy(problem, noise, x, batched_rng)
        expected = np.array(
            [evaluate_true(problem, row) + noise.sigma * row_rng.standard_normal(2) for row in x]
        )
        assert batch.raw_objectives.tobytes() == expected.tobytes()
        assert batch.objectives.tobytes() == expected.tobytes()
        assert batch.variables.tobytes() == x.tobytes()
        assert batched_rng.random() == row_rng.random()
        one_row_rng = RngStream(seed)
        one_row = [evaluate_noisy(problem, noise, row[None], one_row_rng) for row in x]
        assert np.concatenate([s.raw_objectives for s in one_row]).tobytes() == expected.tobytes()


class TestMeanObjectives:
    """The expected objectives of a noisy sample are its noise-free evaluation."""

    def test_equals_true_evaluation(self):
        problem = ZdtProblem("zdt2", 3)
        rng = RngStream(41)
        for _ in range(20):
            batch = evaluate_noisy(problem, NoiseSpec(0.3), [rng.random(3)], rng)
            expected = evaluate_true(problem, batch.variables[0])
            # scoring measures the sample's error against exactly that expectation
            diff = batch.objectives[0] - expected
            error = float(np.sqrt(np.sum(diff * diff)))
            assert compute_report(batch, problem, NoiseSpec(0.3)).delta_f == error

    def test_matches_resampling_average(self):
        problem = ZdtProblem("zdt1", 2)
        noise = NoiseSpec(0.2)
        rng = RngStream(42)
        x = np.array([0.1, 0.9])
        evaluate_noisy(problem, noise, [x], rng)
        resampled = evaluate_noisy(problem, noise, np.tile(x, (10_000, 1)), rng).raw_objectives
        bound = 4 * 0.2 / np.sqrt(10_000)
        assert np.all(np.abs(resampled.mean(axis=0) - evaluate_true(problem, x)) < bound)


class TestTrueFront:
    def test_count_validated(self):
        with pytest.raises(ContractViolationError):
            true_front(ZdtProblem("zdt1", 2), 1)

    def test_zdt1_endpoints(self):
        front = true_front(ZdtProblem("zdt1", 2), 2)
        assert np.allclose(front, [[0.0, 1.0], [1.0, 0.0]])

    def test_zdt2_formula(self):
        front = true_front(ZdtProblem("zdt2", 2), 3)
        assert front[1][0] == pytest.approx(0.5)
        assert front[1][1] == pytest.approx(0.75)

    def test_requested_count_returned(self):
        for variant in ("zdt1", "zdt2", "zdt3"):
            assert true_front(ZdtProblem(variant, 2), 257).shape == (257, 2)

    def test_zdt3_points_on_curve(self):
        front = true_front(ZdtProblem("zdt3", 2), 500)
        f1 = front[:, 0]
        expected = 1.0 - np.sqrt(f1) - f1 * np.sin(10.0 * np.pi * f1)
        assert np.allclose(front[:, 1], expected, atol=1e-12)

    def test_zdt3_front_is_disconnected(self):
        # the non-dominated part of the curve has five separate f1 bands
        front = true_front(ZdtProblem("zdt3", 2), 2000)
        gaps = np.diff(np.sort(front[:, 0]))
        typical = np.median(gaps)
        assert np.sum(gaps > 20 * typical) == 4

    def test_mutual_non_domination_all_variants(self):
        for variant in ("zdt1", "zdt2", "zdt3"):
            pts = true_front(ZdtProblem(variant, 2), 300)
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
            pts = true_front(ZdtProblem(variant, 2), 200)
            le = np.all(sweep[:, None, :] <= pts[None, :, :], axis=2)
            lt = np.any(sweep[:, None, :] < pts[None, :, :], axis=2)
            assert not np.any(le & lt), variant

    def test_front_independent_of_n_vars(self):
        a = true_front(ZdtProblem("zdt3", 2), 100)
        b = true_front(ZdtProblem("zdt3", 10), 100)
        assert np.array_equal(a, b)

    def test_matrix_frozen(self):
        front = true_front(ZdtProblem("zdt1", 2), 2)
        assert front.dtype == np.float64
        with pytest.raises(ValueError):
            front[0, 0] = 5.0
