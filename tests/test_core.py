"""Core types: dominance, filtering, count checks, and the seeded random stream."""

import math

import numpy as np
import pytest

from knnavg.averaging import KnnConfig
from knnavg.core import (
    ContractViolationError,
    RngStream,
    Solution,
    dominates,
    non_dominated_filter,
)
from knnavg.experiment import ExperimentGrid
from knnavg.nsga2 import GaConfig
from knnavg.problems import ZdtProblem


def sol(*objectives):
    return Solution(variables=np.zeros(2), objectives=np.array(objectives, dtype=float))


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
        s = sol(1.0, 2.0)
        assert s.raw_objectives is None
        assert s.n_vars == 2
        assert s.n_objs == 2

    def test_non_numeric_rejected(self):
        with pytest.raises(ContractViolationError):
            Solution(variables=np.zeros(2), objectives=["a", "b"])


def grid_with(**overrides):
    fields = dict(
        problems=("zdt1",), n_vars_list=(2,), sigmas=(0.1,),
        pop_sizes=(10,), ks=(3,), max_dists=(0.25,),
    )
    fields.update(overrides)
    return ExperimentGrid(**fields)


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


class TestDominates:
    def test_strict_improvement_everywhere(self):
        assert dominates(sol(1, 1), sol(2, 2))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates(sol(1, 1), sol(1, 1))

    def test_incomparable_pair(self):
        assert not dominates(sol(1, 3), sol(3, 1))
        assert not dominates(sol(3, 1), sol(1, 3))

    def test_weak_improvement_with_one_strict(self):
        assert dominates(sol(1, 2), sol(1, 3))

    def test_dimension_mismatch(self):
        a = Solution(variables=np.zeros(2), objectives=np.array([1.0, 2.0]))
        b = Solution(variables=np.zeros(2), objectives=np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ContractViolationError):
            dominates(a, b)

    def test_irreflexive_asymmetric_transitive(self):
        # property sweep over random objective vectors
        rng = np.random.default_rng(101)
        for _ in range(400):
            a, b, c = (sol(*rng.random(2)) for _ in range(3))
            assert not dominates(a, a)
            if dominates(a, b):
                assert not dominates(b, a)
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)


class TestNonDominatedFilter:
    def test_singleton(self):
        s = sol(1, 1)
        assert non_dominated_filter([s]) == [s]

    def test_hand_checked_mix(self):
        a, b, c = sol(1, 1), sol(2, 2), sol(0, 3)
        assert non_dominated_filter([a, b, c]) == [a, c]

    def test_duplicates_survive_together(self):
        a, b = sol(1, 1), sol(1, 1)
        assert non_dominated_filter([a, b]) == [a, b]

    def test_empty_input(self):
        assert non_dominated_filter([]) == []

    def test_order_preserved(self):
        points = [sol(0, 3), sol(3, 0), sol(1, 1), sol(5, 5)]
        survivors = non_dominated_filter(points)
        assert survivors == [points[0], points[1], points[2]]

    def test_no_survivor_dominates_another(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            pop = [sol(*rng.random(2)) for _ in range(30)]
            survivors = non_dominated_filter(pop)
            assert survivors
            for x in survivors:
                for y in survivors:
                    assert not dominates(x, y)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(78)
        for _ in range(200):
            pop = [sol(*rng.random(3)) for _ in range(25)]
            expected = [
                s for s in pop if not any(dominates(other, s) for other in pop)
            ]
            assert non_dominated_filter(pop) == expected

    def test_idempotent(self):
        rng = np.random.default_rng(79)
        for _ in range(50):
            pop = [sol(*rng.random(2)) for _ in range(20)]
            once = non_dominated_filter(pop)
            assert non_dominated_filter(once) == once


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

    def test_children_deterministic_and_distinct(self):
        parent = RngStream(42)
        c0 = parent.child(0).random(50)
        c0_again = RngStream(42).child(0).random(50)
        c1 = RngStream(42).child(1).random(50)
        assert np.array_equal(c0, c0_again)
        assert not np.array_equal(c0, c1)
        assert not np.array_equal(c0, RngStream(42).random(50))

    def test_grandchildren_distinct(self):
        a = RngStream(7).child(0).child(1).random(20)
        b = RngStream(7).child(1).child(0).random(20)
        assert not np.array_equal(a, b)

    def test_standard_normal_moments(self):
        draws = RngStream(2024).standard_normal(200_000)
        assert np.all(np.isfinite(draws))
        assert abs(draws.mean()) < 0.01
        assert abs(draws.std() - 1.0) < 0.01

    def test_standard_normal_consumes_one_uniform_each(self):
        a = RngStream(55)
        b = RngStream(55)
        a.standard_normal(7)
        b.random(7)
        assert a.random() == b.random()

    def test_integers_range(self):
        stream = RngStream(3)
        values = stream.integers(10, size=1000)
        assert values.min() >= 0
        assert values.max() <= 9
        with pytest.raises(ContractViolationError):
            stream.integers(0)

    def test_coin_is_boolean_and_balanced(self):
        stream = RngStream(9)
        flips = [stream.coin() for _ in range(10_000)]
        assert all(isinstance(f, bool) for f in flips)
        assert 0.45 < np.mean(flips) < 0.55
