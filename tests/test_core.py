"""Core types: solutions, batches, dominance, filtering, count and seed checks, the random stream."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from knnavg.averaging import KnnConfig
from knnavg.core import (
    Batch,
    ContractViolationError,
    RngStream,
    Solution,
    dominance_matrix,
)
from knnavg.experiment import ExperimentGrid
from knnavg.metrics import MetricReport, as_reference, compute_report
from knnavg.nsga2 import GaConfig
from knnavg.problems import NoiseSpec, ZdtProblem, evaluate_noisy, true_front
from oracles import dominates


class TestSolution:
    def test_arrays_are_copied_and_frozen(self):
        variables = np.array([0.1, 0.2])
        s = Solution(variables=variables, objectives=np.array([1.0, 2.0]))
        variables[0] = 9.9
        assert s.variables[0] == 0.1
        with pytest.raises(ValueError):
            s.objectives[0] = 5.0

    def test_raw_objectives_length_must_match(self):
        with pytest.raises(ContractViolationError):
            Solution(
                variables=np.zeros(2),
                objectives=np.array([1.0, 2.0]),
                raw_objectives=np.array([1.0, 2.0, 3.0]),
            )

    def test_raw_objectives_optional(self):
        s = Solution(variables=np.zeros(2), objectives=np.array([1.0, 2.0]))
        assert s.raw_objectives is None
        assert s.variables.shape == s.objectives.shape == (2,)

    def test_non_numeric_rejected(self):
        with pytest.raises(ContractViolationError):
            Solution(variables=np.zeros(2), objectives=["a", "b"])


class TestBatch:
    def test_rows_are_solutions(self):
        batch = Batch(
            variables=[[0.1, 0.2], [0.3, 0.4]],
            objectives=[[1.0, 2.0], [3.0, 4.0]],
            raw_objectives=[[1.5, 2.5], [3.5, 4.5]],
        )
        assert len(batch) == 2
        second = list(batch)[1]
        assert isinstance(second, Solution)
        assert np.array_equal(second.variables, [0.3, 0.4])
        assert np.array_equal(second.objectives, [3.0, 4.0])
        assert np.array_equal(second.raw_objectives, [3.5, 4.5])

    def test_matrices_are_copied_and_frozen(self):
        variables = np.array([[0.1, 0.2]])
        batch = Batch(variables, np.ones((1, 2)), np.ones((1, 2)))
        variables[0, 0] = 9.9
        assert batch.variables[0, 0] == 0.1
        with pytest.raises(ValueError):
            batch.objectives[0, 0] = 5.0

    def test_take_and_concat(self):
        batch = Batch(np.arange(6.0).reshape(3, 2), np.eye(3)[:, :2], np.eye(3)[:, :2])
        picked = batch.take(np.array([2, 0]))
        assert np.array_equal(picked.variables, [[4.0, 5.0], [0.0, 1.0]])
        assert np.array_equal(batch.take(np.array([True, False, True])).variables,
                              [[0.0, 1.0], [4.0, 5.0]])
        joined = picked.concat(batch)
        assert len(joined) == 5
        assert np.array_equal(joined.raw_objectives[2:], batch.raw_objectives)

    def test_shapes_validated(self):
        with pytest.raises(ContractViolationError):
            Batch(np.zeros(2), np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.raises(ContractViolationError):
            Batch(np.zeros((2, 2)), np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.raises(ContractViolationError):
            Batch(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 3)))


def grid_with(**overrides):
    fields = dict(
        problems=("zdt1",), n_vars_list=(2,), sigmas=(0.1,),
        pop_sizes=(10,), ks=(3,), max_dists=(0.25,),
    )
    fields.update(overrides)
    return ExperimentGrid(**fields)


def metric_report_with(**overrides):
    fields = dict(
        hv_mean_adjusted=1.0, igd_mean_adjusted=1.0, delta_f=1.0,
        reference_point=(11.0, 11.0), front_sample_size=10,
    )
    fields.update(overrides)
    return MetricReport(**fields)


# Every count of the public configuration types, read back after validation.
COUNTS = {
    "KnnConfig.k": lambda v: KnnConfig(k=v, max_dist=1.0).k,
    "GaConfig.pop_size": lambda v: GaConfig(pop_size=v, generations=5).pop_size,
    "GaConfig.generations": lambda v: GaConfig(pop_size=10, generations=v).generations,
    "ZdtProblem.n_vars": lambda v: ZdtProblem("zdt1", v).n_vars,
    "ExperimentGrid.n_vars_list": lambda v: grid_with(n_vars_list=(v,)).n_vars_list[0],
    "ExperimentGrid.pop_sizes": lambda v: grid_with(pop_sizes=(v,)).pop_sizes[0],
    "ExperimentGrid.ks": lambda v: grid_with(ks=(v,)).ks[0],
    "ExperimentGrid.repetitions": lambda v: grid_with(repetitions=v).repetitions,
    "ExperimentGrid.generations": lambda v: grid_with(generations=v).generations,
    "ExperimentGrid.base_seed": lambda v: grid_with(base_seed=v).base_seed,
    "RngStream.seed": lambda v: RngStream(v).seed,
    "true_front.count": lambda v: len(true_front(ZdtProblem("zdt1", 2), v)),
    "MetricReport.front_sample_size":
        lambda v: metric_report_with(front_sample_size=v).front_sample_size,
}


class TestCounts:
    @pytest.mark.parametrize("field", sorted(COUNTS))
    @pytest.mark.parametrize(
        "value, accepted",
        [
            (10, True), (np.int64(10), True), (10.0, True),
            # each of these used to be truncated: 10.7 -> 10, True -> 1
            (10.7, False), (True, False), (np.True_, False),
            ("10", False), (None, False), (math.nan, False), (math.inf, False),
        ],
    )
    def test_counts_are_integral(self, field, value, accepted):
        if accepted:
            count = COUNTS[field](value)
            assert count == 10 and type(count) is int
        else:
            with pytest.raises(ContractViolationError):
                COUNTS[field](value)


# Every real-valued input of the public configuration and result types.
REALS = {
    "NoiseSpec.sigma": lambda v: NoiseSpec(v).sigma,
    "KnnConfig.max_dist": lambda v: KnnConfig(k=1, max_dist=v).max_dist,
    "GaConfig.crossover_prob": lambda v: GaConfig(10, 1, crossover_prob=v).crossover_prob,
    "GaConfig.mutation_prob": lambda v: GaConfig(10, 1, mutation_prob=v).mutation_prob,
    "ExperimentGrid.sigmas": lambda v: grid_with(sigmas=(v,)).sigmas[0],
    "ExperimentGrid.max_dists": lambda v: grid_with(max_dists=(v,)).max_dists[0],
    "MetricReport.hv_mean_adjusted":
        lambda v: metric_report_with(hv_mean_adjusted=v).hv_mean_adjusted,
    "MetricReport.igd_mean_adjusted":
        lambda v: metric_report_with(igd_mean_adjusted=v).igd_mean_adjusted,
    "MetricReport.delta_f": lambda v: metric_report_with(delta_f=v).delta_f,
    "MetricReport.reference_point":
        lambda v: metric_report_with(reference_point=(v, 11.0)).reference_point[0],
    "as_reference": lambda v: as_reference((11.0, v))[1],
    "compute_report.reference": lambda v: compute_report(
        Batch(np.full((1, 2), 0.5), np.ones((1, 2)), np.ones((1, 2))), ZdtProblem("zdt1", 2),
        NoiseSpec(0.0), reference=(v, 11.0), front_sample_size=2,
    ).reference_point[0],
}


class TestReals:
    @pytest.mark.parametrize("field", sorted(REALS))
    @pytest.mark.parametrize(
        "value, accepted",
        [
            (0.5, True), (np.float64(0.5), True), (np.float32(0.5), True), (1, True),
            (np.int64(1), True),
            # each of these used to be converted (True -> 1.0, "0.5" -> 0.5)
            # or to escape as TypeError or a plain ValueError
            (True, False), (np.True_, False), ("0.5", False), ("x", False), (None, False),
            ([0.5], False), (math.nan, False),
        ],
    )
    def test_reals_are_numbers(self, field, value, accepted):
        if accepted:
            real = REALS[field](value)
            assert real == float(value) and type(real) is float
        else:
            with pytest.raises(ContractViolationError):
                REALS[field](value)

    def test_reference_point_must_be_a_sequence(self):
        # 5 used to raise TypeError while iterating
        for bad in (5, None, 5.0):
            with pytest.raises(ContractViolationError):
                as_reference(bad)


def pair_dominance(a, b) -> tuple[bool, bool]:
    """(a dominates b, b dominates a), read off a two-row dominance matrix."""
    dom = dominance_matrix(np.array([a, b], dtype=float))
    return bool(dom[0, 1]), bool(dom[1, 0])


class TestDominates:
    def test_strict_improvement_everywhere(self):
        assert pair_dominance([1, 1], [2, 2]) == (True, False)

    def test_equal_vectors_do_not_dominate(self):
        assert pair_dominance([1, 1], [1, 1]) == (False, False)

    def test_incomparable_pair(self):
        assert pair_dominance([1, 3], [3, 1]) == (False, False)
        assert pair_dominance([3, 1], [1, 3]) == (False, False)

    def test_weak_improvement_with_one_strict(self):
        assert pair_dominance([1, 2], [1, 3]) == (True, False)

    def test_dimension_mismatch(self):
        # objective vectors of different lengths cannot share a batch
        ragged = [[1.0, 2.0], [1.0, 2.0, 3.0]]
        with pytest.raises(ContractViolationError):
            Batch(np.zeros((2, 2)), ragged, ragged)

    def test_irreflexive_asymmetric_transitive(self):
        # property sweep over random objective vectors
        rng = np.random.default_rng(101)
        for _ in range(400):
            dom = dominance_matrix(rng.random((3, 2)))
            assert not dom.diagonal().any()
            assert not (dom & dom.T).any()
            for a, b, c in ((0, 1, 2), (2, 1, 0), (1, 0, 2), (0, 2, 1)):
                if dom[a, b] and dom[b, c]:
                    assert dom[a, c]


def numbered_batch(objectives) -> Batch:
    """A batch of (n, m) objectives whose variables hold each row's number."""
    objs = np.asarray(objectives, dtype=float)
    numbers = np.arange(len(objs), dtype=float)
    return Batch(np.column_stack((numbers, numbers)), objs, objs)


def front_of(batch: Batch) -> Batch:
    """The rows no other row dominates, in order, as the search loop takes them."""
    return batch.take(~dominance_matrix(batch.objectives).any(axis=0))


def row_numbers(batch: Batch) -> list[int]:
    return batch.variables[:, 0].astype(int).tolist()


class TestNonDominatedFilter:
    def test_singleton(self):
        assert row_numbers(front_of(numbered_batch([[1, 1]]))) == [0]

    def test_hand_checked_mix(self):
        front = front_of(numbered_batch([[1, 1], [2, 2], [0, 3]]))
        assert row_numbers(front) == [0, 2]
        assert np.array_equal(front.objectives, [[1, 1], [0, 3]])

    def test_duplicates_survive_together(self):
        assert row_numbers(front_of(numbered_batch([[1, 1], [1, 1]]))) == [0, 1]

    def test_empty_input(self):
        assert len(front_of(numbered_batch(np.empty((0, 2))))) == 0

    def test_order_preserved(self):
        front = front_of(numbered_batch([[0, 3], [3, 0], [1, 1], [5, 5]]))
        assert row_numbers(front) == [0, 1, 2]

    def test_no_survivor_dominates_another(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            survivors = front_of(numbered_batch(rng.random((30, 2)))).objectives.tolist()
            assert survivors
            for x in survivors:
                for y in survivors:
                    assert not dominates(x, y)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(78)
        for _ in range(200):
            objs = rng.random((25, 3)).tolist()
            expected = [
                i for i, s in enumerate(objs) if not any(dominates(other, s) for other in objs)
            ]
            assert row_numbers(front_of(numbered_batch(objs))) == expected

    def test_idempotent(self):
        rng = np.random.default_rng(79)
        for _ in range(50):
            once = front_of(numbered_batch(rng.random((20, 2))))
            assert row_numbers(front_of(once)) == row_numbers(once)


@st.composite
def objective_matrices(draw):
    """Objective matrices with ties, exact duplicates and infinities."""
    n = draw(st.integers(0, 30))
    m = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        objs = rng.integers(0, 3, size=(n, m)).astype(float)  # many ties
    else:
        objs = rng.random((n, m))
    for _ in range(draw(st.integers(0, n))):
        if n:
            objs[rng.integers(n)] = objs[rng.integers(n)]
    if n and draw(st.booleans()):
        objs[rng.integers(n), rng.integers(m)] = np.inf
    return objs


class TestDominanceMatrix:
    @given(objective_matrices())
    def test_equals_broadcast_definition(self, objs):
        less_eq = np.all(objs[:, None, :] <= objs[None, :, :], axis=2)
        strict = np.any(objs[:, None, :] < objs[None, :, :], axis=2)
        dom = dominance_matrix(objs)
        assert dom.shape == (len(objs), len(objs))
        assert np.array_equal(dom, less_eq & strict)

    def test_agrees_with_dominates(self):
        rng = np.random.default_rng(80)
        objs = rng.integers(0, 3, size=(20, 2)).astype(float)
        dom = dominance_matrix(objs)
        rows = objs.tolist()
        for i, a in enumerate(rows):
            for j, b in enumerate(rows):
                assert dom[i, j] == dominates(a, b)


class TestRngStream:
    def test_same_seed_bitwise_identical_10000_draws(self):
        a = RngStream(987654321).random(10_000)
        b = RngStream(987654321).random(10_000)
        assert np.array_equal(a, b)

    def test_pinned_generator_sequence(self):
        # Frozen draws pin the generator algorithm; a silent swap of the
        # bit generator would change reproducibility guarantees.
        draws = RngStream(12345).random(3)
        assert draws[0] == 0.22733602246716966
        assert draws[1] == 0.31675833970975287
        assert draws[2] == 0.7973654573327341

    def test_different_seeds_differ(self):
        assert not np.array_equal(RngStream(1).random(100), RngStream(2).random(100))

    def test_seed_range_enforced(self):
        with pytest.raises(ContractViolationError):
            RngStream(-1)
        with pytest.raises(ContractViolationError):
            RngStream(2**64)
        RngStream(2**64 - 1)  # boundary accepted
        # non-integral, boolean and string seeds are rejected, not truncated
        for bad in (2.7, True, "3"):
            with pytest.raises(ContractViolationError):
                RngStream(bad)

    def test_standard_normal_moments(self):
        draws = RngStream(2024).standard_normal(200_000)
        assert np.all(np.isfinite(draws))
        assert abs(draws.mean()) < 0.01
        assert abs(draws.std() - 1.0) < 0.01

    def test_standard_normal_position_independent_of_sigma(self):
        # the ziggurat consumes a varying number of bits per value, so only
        # fixed-shape calls pin the stream: sigma=0 consumes exactly the
        # draws sigma>0 does, on every seed
        problem, x = ZdtProblem("zdt1", 2), np.full((7, 2), 0.5)
        for seed in range(200):
            quiet, loud = RngStream(seed), RngStream(seed)
            evaluate_noisy(problem, NoiseSpec(0.0), x, quiet)
            evaluate_noisy(problem, NoiseSpec(0.5), x, loud)
            assert quiet.random() == loud.random()
        expected = np.random.Generator(np.random.PCG64(55)).standard_normal(7)
        assert np.array_equal(RngStream(55).standard_normal(7), expected)

    def test_integers_range(self):
        stream = RngStream(3)
        values = stream.integers(10, size=1000)
        assert values.min() >= 0
        assert values.max() <= 9
        with pytest.raises(ContractViolationError):
            stream.integers(0)
