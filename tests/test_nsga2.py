"""Non-dominated sorting, variation operators, and the generational loop."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from knnavg.averaging import EvaluationHistory, KnnConfig
from knnavg.core import ContractViolationError, RngStream, Solution, dominates, non_dominated_filter
from knnavg.metrics import hypervolume_2d
from knnavg.nsga2 import (
    GaConfig,
    KnnAveraged,
    PlainNoisy,
    _first_front,
    _survival,
    crowding_distance,
    fast_non_dominated_sort,
    polynomial_mutation,
    run_optimization,
    sbx_crossover,
)
from knnavg.problems import NoiseSpec, ZdtProblem


def sols(*objective_rows):
    return [
        Solution(variables=np.zeros(2), objectives=np.asarray(row, dtype=float))
        for row in objective_rows
    ]


def random_population(rng, count, spread=2.0):
    return [
        Solution(variables=rng.random(2), objectives=rng.random(2) * spread)
        for _ in range(count)
    ]


UNIT_BOUNDS = (np.zeros(2), np.ones(2))


class TestFastNonDominatedSort:
    def test_chain(self):
        fronts = fast_non_dominated_sort(sols([0.0, 0.0], [1.0, 1.0], [2.0, 2.0]))
        assert fronts == [[0], [1], [2]]

    def test_incomparable_pair_shares_front(self):
        assert fast_non_dominated_sort(sols([0.0, 1.0], [1.0, 0.0])) == [[0, 1]]

    def test_mixed_example(self):
        fronts = fast_non_dominated_sort(sols([1.0, 1.0], [2.0, 2.0], [0.0, 3.0]))
        assert fronts == [[0, 2], [1]]

    def test_empty_population(self):
        assert fast_non_dominated_sort([]) == []

    def test_duplicates_share_front(self):
        fronts = fast_non_dominated_sort(sols([1.0, 1.0], [1.0, 1.0]))
        assert fronts == [[0, 1]]

    def test_partition_property(self):
        rng = RngStream(85)
        for _ in range(20):
            population = random_population(rng, 30)
            fronts = fast_non_dominated_sort(population)
            flat = [i for front in fronts for i in front]
            assert sorted(flat) == list(range(30))
            for front in fronts:
                assert front == sorted(front)

    def test_first_front_members_undominated(self):
        rng = RngStream(86)
        for _ in range(20):
            population = random_population(rng, 25)
            fronts = fast_non_dominated_sort(population)
            for i in fronts[0]:
                assert not any(dominates(q, population[i]) for q in population)

    def test_later_fronts_dominated_by_previous(self):
        rng = RngStream(87)
        for _ in range(20):
            population = random_population(rng, 25)
            fronts = fast_non_dominated_sort(population)
            for prev, front in zip(fronts, fronts[1:]):
                for i in front:
                    assert any(dominates(population[j], population[i]) for j in prev)

    def test_within_front_mutual_nondomination(self):
        rng = RngStream(88)
        for _ in range(20):
            population = random_population(rng, 25)
            for front in fast_non_dominated_sort(population):
                for i in front:
                    for j in front:
                        assert not dominates(population[i], population[j])


@st.composite
def survival_cases(draw):
    """Parents plus offspring and a target, shaped to hit ties and big fronts."""
    n = draw(st.integers(2, 40))
    m = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["grid", "trade-off", "random"]))
    if shape == "grid":
        # few distinct values: equal objectives and exact duplicates
        objs = rng.integers(0, 3, size=(n, m)).astype(float)
    elif shape == "trade-off":
        # mostly one front, larger than the target
        f1 = rng.random(n)
        objs = np.column_stack([f1, 1.0 - f1] + [rng.random(n)] * (m - 2))
        objs[rng.random(n) < 0.2] += 0.5
    else:
        objs = rng.random((n, m))
    for _ in range(draw(st.integers(0, n // 2))):
        objs[rng.integers(n)] = objs[rng.integers(n)]
    return sols(*objs), draw(st.integers(1, n))


class TestSurvival:
    @given(survival_cases())
    def test_rank0_survivors_are_the_survivors_front(self, case):
        combined, target = case
        survivors, ranks, _ = _survival(combined, target)
        assert len(survivors) == target
        front = _first_front(survivors, ranks)
        assert [id(s) for s in front] == [id(s) for s in non_dominated_filter(survivors)]


class TestCrowdingDistance:
    def test_boundary_and_interior(self):
        # interior point spans the full range in both objectives: 1 + 1
        d = crowding_distance(sols([0.0, 1.0], [0.5, 0.5], [1.0, 0.0]))
        assert d[0] == np.inf
        assert d[2] == np.inf
        assert d[1] == pytest.approx(2.0)

    def test_small_fronts_all_infinite(self):
        assert np.all(np.isposinf(crowding_distance(sols([0.0, 0.0]))))
        assert np.all(np.isposinf(crowding_distance(sols([0.0, 1.0], [1.0, 0.0]))))

    def test_empty_front_rejected(self):
        with pytest.raises(ContractViolationError):
            crowding_distance([])

    def test_denser_region_scores_lower(self):
        # the point crowded by close neighbors gets a smaller distance
        d = crowding_distance(
            sols([0.0, 1.0], [0.1, 0.9], [0.2, 0.8], [1.0, 0.0])
        )
        assert d[1] < d[2]

    def test_constant_objective_contributes_nothing(self):
        d = crowding_distance(sols([0.0, 5.0], [0.5, 5.0], [1.0, 5.0]))
        assert d[1] == pytest.approx(1.0)

    def test_interior_formula(self):
        rng = RngStream(89)
        for _ in range(20):
            population = random_population(rng, 8)
            d = crowding_distance(population)
            objs = np.array([s.objectives for s in population])
            expected = np.zeros(8)
            for m in range(2):
                order = np.argsort(objs[:, m], kind="stable")
                expected[order[0]] = np.inf
                expected[order[-1]] = np.inf
                span = objs[order[-1], m] - objs[order[0], m]
                finite = np.isfinite(expected)
                for pos in range(1, 7):
                    i = order[pos]
                    if np.isfinite(expected[i]) and span > 0:
                        expected[i] += (objs[order[pos + 1], m] - objs[order[pos - 1], m]) / span
            finite = np.isfinite(expected)
            assert np.array_equal(np.isfinite(d), finite)
            assert np.allclose(d[finite], expected[finite], atol=1e-12)


class TestSbxCrossover:
    def test_skipped_pair_passes_through(self):
        a, b = np.array([0.2, 0.7]), np.array([0.9, 0.1])
        ca, cb = sbx_crossover(a, b, 0.0, 15.0, UNIT_BOUNDS, RngStream(90))
        assert np.array_equal(ca, a) and np.array_equal(cb, b)
        assert ca is not a and cb is not b

    def test_identical_parents_pass_through(self):
        a = np.array([0.3, 0.6])
        ca, cb = sbx_crossover(a, a.copy(), 1.0, 15.0, UNIT_BOUNDS, RngStream(90))
        assert np.array_equal(ca, a) and np.array_equal(cb, a)

    def test_children_within_bounds(self):
        rng = RngStream(91)
        for _ in range(2000):
            a, b = rng.random(3), rng.random(3)
            ca, cb = sbx_crossover(a, b, 1.0, 15.0, (np.zeros(3), np.ones(3)), rng)
            for child in (ca, cb):
                assert np.all(child >= 0.0) and np.all(child <= 1.0)

    def test_midpoint_preserved_without_clipping(self):
        # away from the bounds the two children always straddle the parents' mean
        wide = (np.full(3, -100.0), np.full(3, 100.0))
        rng = RngStream(92)
        for _ in range(500):
            a, b = rng.random(3), rng.random(3)
            ca, cb = sbx_crossover(a, b, 1.0, 15.0, wide, rng)
            assert np.allclose(ca + cb, a + b, atol=1e-10)

    def test_child_mean_matches_parent_mean(self):
        rng = RngStream(93)
        a, b = np.array([0.2]), np.array([0.8])
        children = []
        for _ in range(10_000):
            ca, cb = sbx_crossover(a, b, 1.0, 15.0, (np.zeros(1), np.ones(1)), rng)
            children.append(ca[0])
            children.append(cb[0])
        assert np.mean(children) == pytest.approx(0.5, abs=0.02)

    def test_draw_accounting_active(self):
        # an applied crossover consumes 1 + n uniforms
        used, probe = RngStream(94), RngStream(94)
        sbx_crossover([0.2, 0.4, 0.6], [0.8, 0.5, 0.1], 1.0, 15.0,
                      (np.zeros(3), np.ones(3)), used)
        probe.random()
        probe.random(3)
        assert used.random() == probe.random()

    def test_draw_accounting_skipped(self):
        # a skipped crossover consumes only the gate draw
        used, probe = RngStream(95), RngStream(95)
        sbx_crossover([0.2, 0.4], [0.8, 0.5], 0.0, 15.0, UNIT_BOUNDS, used)
        probe.random()
        assert used.random() == probe.random()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractViolationError):
            sbx_crossover([0.2], [0.8, 0.5], 1.0, 15.0, UNIT_BOUNDS, RngStream(96))


class TestPolynomialMutation:
    def test_skipped_offspring_copied(self):
        x = np.array([0.3, 0.6])
        y = polynomial_mutation(x, 0.0, 20.0, UNIT_BOUNDS, RngStream(97))
        assert np.array_equal(y, x) and y is not x

    def test_stays_within_bounds(self):
        rng = RngStream(98)
        for _ in range(5000):
            x = rng.random(3)
            y = polynomial_mutation(x, 1.0, 20.0, (np.zeros(3), np.ones(3)), rng)
            assert np.all(y >= 0.0) and np.all(y <= 1.0)

    def test_boundary_genes_stay_feasible(self):
        rng = RngStream(99)
        for x in ([0.0, 1.0], [0.0, 0.0], [1.0, 1.0]):
            for _ in range(200):
                y = polynomial_mutation(x, 1.0, 20.0, UNIT_BOUNDS, rng)
                assert np.all(y >= 0.0) and np.all(y <= 1.0)

    def test_perturbation_centered(self):
        # symmetric start, symmetric distribution: mean stays at the start
        rng = RngStream(100)
        values = [
            polynomial_mutation([0.5], 1.0, 20.0, (np.zeros(1), np.ones(1)), rng)[0]
            for _ in range(50_000)
        ]
        assert np.mean(values) == pytest.approx(0.5, abs=0.005)

    def test_draw_accounting_active(self):
        # a mutating offspring consumes 1 + n + n uniforms
        used, probe = RngStream(101), RngStream(101)
        polynomial_mutation([0.2, 0.4, 0.6], 1.0, 20.0, (np.zeros(3), np.ones(3)), used)
        probe.random()
        probe.random(3)
        probe.random(3)
        assert used.random() == probe.random()

    def test_draw_accounting_skipped(self):
        used, probe = RngStream(102), RngStream(102)
        polynomial_mutation([0.2, 0.4], 0.0, 20.0, UNIT_BOUNDS, used)
        probe.random()
        assert used.random() == probe.random()


class TestGaConfig:
    def test_odd_population_rejected(self):
        with pytest.raises(ContractViolationError):
            GaConfig(pop_size=11, generations=10)

    def test_minimums(self):
        with pytest.raises(ContractViolationError):
            GaConfig(pop_size=0, generations=10)
        with pytest.raises(ContractViolationError):
            GaConfig(pop_size=10, generations=0)

    def test_probability_range(self):
        with pytest.raises(ContractViolationError):
            GaConfig(pop_size=10, generations=10, crossover_prob=1.5)
        with pytest.raises(ContractViolationError):
            GaConfig(pop_size=10, generations=10, mutation_prob=-0.1)

    def test_eta_positive(self):
        with pytest.raises(ContractViolationError):
            GaConfig(pop_size=10, generations=10, eta_crossover=0.0)

    def test_defaults(self):
        ga = GaConfig(pop_size=10, generations=5)
        assert ga.crossover_prob == 0.9
        assert ga.mutation_prob == 1.0
        assert ga.eta_crossover == 15.0
        assert ga.eta_mutation == 20.0


def small_run(seed, evaluator=None, sigma=0.1, pop=10, gens=20, variant="zdt1"):
    problem = ZdtProblem(variant, 2)
    return run_optimization(
        problem,
        NoiseSpec(sigma),
        evaluator if evaluator is not None else PlainNoisy(),
        GaConfig(pop_size=pop, generations=gens),
        RngStream(seed),
    )


class TestRunOptimization:
    def test_evaluation_budget(self):
        result = small_run(seed=1, pop=10, gens=20)
        assert len(result.history) == 10 * 21
        assert result.history.batch_count == 21

    def test_trace_covers_every_generation(self):
        result = small_run(seed=2, gens=15)
        assert [t.generation for t in result.trace] == list(range(16))

    def test_deterministic(self):
        a = small_run(seed=3)
        b = small_run(seed=3)
        for s, t in zip(a.population, b.population):
            assert np.array_equal(s.variables, t.variables)
            assert np.array_equal(s.objectives, t.objectives)
        assert [t.front_hypervolume for t in a.trace] == [
            t.front_hypervolume for t in b.trace
        ]

    def test_seeds_differ(self):
        a = small_run(seed=4)
        b = small_run(seed=5)
        assert not np.array_equal(
            np.array([s.variables for s in a.population]),
            np.array([s.variables for s in b.population]),
        )

    def test_population_size_constant(self):
        result = small_run(seed=6)
        assert len(result.population) == 10

    def test_nondominated_is_filter_of_population(self):
        result = small_run(seed=7)
        objs = np.array([s.objectives for s in result.nondominated])
        pop_objs = np.array([s.objectives for s in result.population])
        for o in objs:
            le = np.all(pop_objs <= o, axis=1)
            lt = np.any(pop_objs < o, axis=1)
            assert not np.any(le & lt)
        assert result.trace[-1].front_size == len(result.nondominated)

    def test_all_sampled_variables_in_bounds(self):
        result = small_run(seed=8, sigma=0.3)
        xs = result.history.variables_matrix()
        assert np.all(xs >= 0.0) and np.all(xs <= 1.0)

    def test_plain_evaluator_keeps_raw_objectives(self):
        result = small_run(seed=9, sigma=0.2)
        avgs = result.history.averaged_matrix()
        raws = result.history.raw_matrix()
        assert np.array_equal(avgs, raws)

    def test_noise_free_run_approaches_true_front(self):
        result = small_run(seed=10, sigma=0.0, pop=20, gens=100)
        # dense true-front hypervolume at (11, 11) is 110 + 10 + 2/3
        assert result.trace[-1].front_hypervolume >= 0.95 * 120.66666666666667

    def test_elitism_while_front_below_capacity(self):
        # with exact evaluations, survival keeps the whole first front as
        # long as it fits, so its hypervolume cannot drop at those steps
        checked = 0
        for seed in (11, 12, 13):
            result = small_run(seed=seed, sigma=0.0, pop=10, gens=100)
            for prev, cur in zip(result.trace, result.trace[1:]):
                if cur.front_size < result.ga.pop_size:
                    checked += 1
                    assert cur.front_hypervolume >= prev.front_hypervolume - 1e-9
        assert checked > 0

    def test_k1_averaging_reproduces_baseline_run(self):
        for seed in (14, 15):
            base = small_run(seed=seed, sigma=0.3)
            knn = small_run(
                seed=seed, sigma=0.3, evaluator=KnnAveraged(KnnConfig(k=1, max_dist=0.25))
            )
            for s, t in zip(base.population, knn.population):
                assert np.array_equal(s.variables, t.variables)
                assert np.array_equal(s.objectives, t.objectives)

    def test_averaging_changes_search_path(self):
        base = small_run(seed=16, sigma=0.3)
        knn = small_run(
            seed=16, sigma=0.3, evaluator=KnnAveraged(KnnConfig(k=10, max_dist=0.25))
        )
        assert not np.array_equal(
            np.array([s.variables for s in base.population]),
            np.array([s.variables for s in knn.population]),
        )

    def test_evaluator_label_recorded(self):
        result = small_run(seed=17)
        assert result.evaluator_label == "plain"
        knn = small_run(seed=17, evaluator=KnnAveraged(KnnConfig(k=3, max_dist=0.5)))
        assert knn.evaluator_label == "knn(k=3, max_dist=0.5)"

    def test_trace_hypervolume_matches_recomputation(self):
        result = small_run(seed=18)
        objs = np.array([s.objectives for s in result.nondominated])
        assert result.trace[-1].front_hypervolume == hypervolume_2d(objs, (11.0, 11.0))


class TestOptimizationResultSerialization:
    def test_summary_keys(self):
        result = small_run(seed=19, gens=5)
        data = result.to_dict()
        assert data["problem"] == {"variant": "zdt1", "n_vars": 2}
        assert data["noise_sigma"] == 0.1
        assert data["evaluator"] == "plain"
        assert data["seed"] == 19
        assert data["history_length"] == 60
        assert len(data["trace"]) == 6
        assert "history" not in data
        assert all(
            set(entry) == {"variables", "raw_objectives", "objectives"}
            for entry in data["nondominated"]
        )

    def test_history_embedding(self):
        result = small_run(seed=20, gens=5)
        data = result.to_dict(include_history=True)
        assert len(data["history"]["rows"]) == 60
        assert data["history"]["columns"][0] == "batch"

    def test_json_round_trip(self):
        import json

        result = small_run(seed=21, gens=3)
        text = json.dumps(result.to_dict(include_history=True))
        assert json.loads(text)["seed"] == 21
