"""Non-dominated sorting, variation operators, and the generational loop."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnavg.averaging import EvaluationHistory, KnnConfig
from knnavg.core import ContractViolationError, RngStream
from knnavg.metrics import hypervolume_2d
from knnavg.nsga2 import (
    CROSSOVER_PROB,
    ETA_CROSSOVER,
    ETA_MUTATION,
    GaConfig,
    KnnAveraged,
    PlainNoisy,
    _survival,
    crowding_distance,
    draw_variation,
    fast_non_dominated_sort,
    polynomial_mutation,
    run_optimization,
    run_stack,
    sbx_crossover,
    tournament_winners,
)
from knnavg.problems import ZDT_VARIANTS, NoiseSpec, ZdtProblem
from oracles import dominates


def rows(*vectors):
    """Objective or decision vectors as the rows of a matrix."""
    return np.array(vectors, dtype=float)


def random_objectives(rng, count, spread=2.0):
    return rng.random((count, 2)) * spread


def front_lists(objectives):
    """The fronts of ``fast_non_dominated_sort``'s ranks, each as ascending row indices."""
    ranks = fast_non_dominated_sort(objectives)
    return [np.flatnonzero(ranks == rank).tolist() for rank in range(ranks.max(initial=-1) + 1)]


def one_front_crowding(front):
    """Crowding distances of rows that all lie on one front."""
    return crowding_distance(front, np.zeros(len(front), dtype=np.int64))


class TestFastNonDominatedSort:
    def test_chain(self):
        fronts = front_lists(rows([0.0, 0.0], [1.0, 1.0], [2.0, 2.0]))
        assert fronts == [[0], [1], [2]]

    def test_incomparable_pair_shares_front(self):
        assert front_lists(rows([0.0, 1.0], [1.0, 0.0])) == [[0, 1]]

    def test_mixed_example(self):
        fronts = front_lists(rows([1.0, 1.0], [2.0, 2.0], [0.0, 3.0]))
        assert fronts == [[0, 2], [1]]

    def test_empty_population(self):
        assert front_lists(np.empty((0, 2))) == []

    @pytest.mark.parametrize("shape", [(), (2,), (3,)], ids=["scalar", "2-vector", "3-vector"])
    def test_non_matrix_rejected(self, shape):
        # a vector used to fail inside the sweep, not at the contract
        with pytest.raises(ContractViolationError, match="objectives"):
            fast_non_dominated_sort(np.zeros(shape))

    def test_duplicates_share_front(self):
        fronts = front_lists(rows([1.0, 1.0], [1.0, 1.0]))
        assert fronts == [[0, 1]]

    def test_partition_property(self):
        rng = RngStream(85)
        for _ in range(20):
            fronts = front_lists(random_objectives(rng, 30))
            flat = [i for front in fronts for i in front]
            assert sorted(flat) == list(range(30))
            for front in fronts:
                assert front == sorted(front)

    def test_first_front_members_undominated(self):
        rng = RngStream(86)
        for _ in range(20):
            objs = random_objectives(rng, 25).tolist()
            fronts = front_lists(np.array(objs))
            for i in fronts[0]:
                assert not any(dominates(q, objs[i]) for q in objs)

    def test_later_fronts_dominated_by_previous(self):
        rng = RngStream(87)
        for _ in range(20):
            objs = random_objectives(rng, 25).tolist()
            fronts = front_lists(np.array(objs))
            for prev, front in zip(fronts, fronts[1:]):
                for i in front:
                    assert any(dominates(objs[j], objs[i]) for j in prev)

    def test_within_front_mutual_nondomination(self):
        rng = RngStream(88)
        for _ in range(20):
            objs = random_objectives(rng, 25).tolist()
            for front in front_lists(np.array(objs)):
                for i in front:
                    for j in front:
                        assert not dominates(objs[i], objs[j])


@st.composite
def ranking_stacks(draw):
    """Stacks of two-objective matrices: ties, duplicates, fronts, signed zeros and infinities."""
    runs, n = draw(st.integers(1, 4)), draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["grid", "trade-off", "signed"]))
    if shape == "grid":
        # few distinct values: equal coordinates and exact duplicates
        objs = rng.integers(0, 3, size=(runs, n, 2)).astype(float)
    elif shape == "trade-off":
        # one front, with some points pushed back into later fronts
        f1 = rng.random((runs, n))
        objs = np.stack((f1, 1.0 - f1), axis=-1)
        objs[rng.random((runs, n)) < 0.3] += 0.25
        copies, sources = rng.integers(max(n, 1), size=(2, n // 4))
        objs[:, copies] = objs[:, sources]
    else:
        # -0.0 and 0.0 are the same point to dominance, though not bitwise
        objs = rng.choice([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf], size=(runs, n, 2))
    return objs


class TestRankingSweep:
    @given(ranking_stacks())
    def test_ranks_follow_the_recursive_definition(self, objs):
        ranks = fast_non_dominated_sort(objs)
        assert ranks.dtype == np.int64 and ranks.shape == objs.shape[:-1]
        for matrix, rank in zip(objs.tolist(), ranks.tolist()):
            for p, r in zip(matrix, rank):
                # 0 when nothing dominates p, else one more than the largest rank among its
                # dominators; dominance is acyclic, so only the true ranks satisfy this
                dominators = [s for q, s in zip(matrix, rank) if dominates(q, p)]
                assert r == max(dominators, default=-1) + 1

    def test_nan_objectives_rejected(self):
        objs = np.zeros((2, 3, 2))
        objs[1, 2, 0] = np.nan
        with pytest.raises(ContractViolationError, match="NaN"):
            fast_non_dominated_sort(objs)

    @pytest.mark.parametrize("m", [1, 3])
    def test_other_objective_counts_rejected(self, m):
        with pytest.raises(ContractViolationError, match=r"\(\.\.\., n, 2\) objectives"):
            fast_non_dominated_sort(np.zeros((2, 3, m)))


@st.composite
def survival_cases(draw):
    """Parents plus offspring and a target, shaped to hit ties and big fronts."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["grid", "trade-off", "random"]))
    if shape == "grid":
        # few distinct values: equal objectives and exact duplicates
        objs = rng.integers(0, 3, size=(n, 2)).astype(float)
    elif shape == "trade-off":
        # mostly one front, larger than the target
        f1 = rng.random(n)
        objs = np.column_stack((f1, 1.0 - f1))
        objs[rng.random(n) < 0.2] += 0.5
    else:
        objs = rng.random((n, 2))
    for _ in range(draw(st.integers(0, n // 2))):
        objs[rng.integers(n)] = objs[rng.integers(n)]
    return objs, draw(st.integers(1, n))


class TestSurvival:
    @given(survival_cases())
    def test_rank0_survivors_are_the_survivors_front(self, case):
        combined, target = case
        chosen, ranks, _ = (part[0] for part in _survival(combined[None], target))
        assert len(chosen) == target
        survivors = combined[chosen].tolist()
        undominated = [not any(dominates(q, p) for q in survivors) for p in survivors]
        assert (ranks == 0).tolist() == undominated


class TestCrowdingDistance:
    def test_boundary_and_interior(self):
        # interior point spans the full range in both objectives: 1 + 1
        d = one_front_crowding(rows([0.0, 1.0], [0.5, 0.5], [1.0, 0.0]))
        assert d[0] == np.inf
        assert d[2] == np.inf
        assert d[1] == pytest.approx(2.0)

    def test_small_fronts_all_infinite(self):
        assert np.all(np.isposinf(one_front_crowding(rows([0.0, 0.0]))))
        assert np.all(np.isposinf(one_front_crowding(rows([0.0, 1.0], [1.0, 0.0]))))

    def test_empty_front_rejected(self):
        with pytest.raises(ContractViolationError):
            one_front_crowding(np.empty((0, 2)))

    @pytest.mark.parametrize("shape", [(), (2,), (3,)], ids=["scalar", "2-vector", "3-vector"])
    def test_non_matrix_rejected(self, shape):
        with pytest.raises(ContractViolationError, match="objectives"):
            crowding_distance(np.zeros(shape), np.zeros(shape, dtype=np.int64))

    def test_denser_region_scores_lower(self):
        # the point crowded by close neighbors gets a smaller distance
        d = one_front_crowding(
            rows([0.0, 1.0], [0.1, 0.9], [0.2, 0.8], [1.0, 0.0])
        )
        assert d[1] < d[2]

    def test_constant_objective_contributes_nothing(self):
        d = one_front_crowding(rows([0.0, 5.0], [0.5, 5.0], [1.0, 5.0]))
        assert d[1] == pytest.approx(1.0)

    def test_interior_formula(self):
        rng = RngStream(89)
        for _ in range(20):
            objs = random_objectives(rng, 8)
            d = one_front_crowding(objs)
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


# a two-member population of distinct ranks; crowding ties everywhere
DISTINCT = (np.array([0, 1]), np.array([np.inf, np.inf]))


def ga_pair(pop_size=2):
    return GaConfig(pop_size=pop_size, generations=1)


def contract_blocks(probe, pop_size, n):
    """One generation's blocks, drawn on ``probe`` in the contract's order."""
    pairs = pop_size // 2
    return {
        "candidates": probe.integers(pop_size, (pairs, 2, 2)),
        "coins": probe.random((pairs, 2)),
        "cross_gates": probe.random(pairs),
        "u_cross": probe.random((pairs, n)),
        "unused": probe.random(pop_size),
        "u_pick": probe.random((pop_size, n)),
        "u_mutation": probe.random((pop_size, n)),
    }


class TestDrawVariation:
    @pytest.mark.parametrize("ranks", [[0, 1], [0, 0]])
    def test_tournaments_toss_a_coin_only_on_a_tie(self, ranks):
        # every tournament draws a coin; it decides only a tie on rank and
        # crowding, and identical candidates (i == j) tie with themselves
        candidates = np.array([[0, 1], [1, 0], [0, 0], [1, 1]])
        crowding = np.array([np.inf, np.inf])
        heads = tournament_winners(candidates, np.zeros(4), np.array(ranks), crowding)
        tails = tournament_winners(candidates, np.full(4, 0.5), np.array(ranks), crowding)
        if ranks == [0, 1]:
            assert heads.tolist() == tails.tolist() == [0, 0, 0, 1]
        else:
            assert heads.tolist() == [0, 1, 0, 1]
            assert tails.tolist() == [1, 0, 0, 1]

    def test_crowding_decides_an_equal_rank(self):
        ranks = np.array([0, 0, 0, 1])
        crowding = np.array([0.1, 0.4, 0.3, 0.9])
        candidates = np.array([[[0, 1], [2, 1]], [[2, 0], [3, 0]]])
        coins = np.array([[0.0, 0.0], [0.9, 0.9]])
        winners = tournament_winners(candidates, coins, ranks, crowding)
        # rank beats crowding: member 3 loses to member 0 despite more room
        assert winners.tolist() == [[1, 1], [2, 0]]

    def test_blocks_in_contract_order(self):
        used, probe = RngStream(113), RngStream(113)
        ranks = np.array([0, 1, 0, 2, 1, 0])
        crowding = np.array([1.0, np.inf, 2.0, 0.5, 3.0, 1.0])
        draws = draw_variation(ranks, crowding, ga_pair(pop_size=6), 3, used)
        blocks = contract_blocks(probe, 6, 3)
        expected = tournament_winners(blocks["candidates"], blocks["coins"], ranks, crowding)
        assert np.array_equal(draws.parents, expected)
        assert np.array_equal(draws.crosses, blocks["cross_gates"] < CROSSOVER_PROB)
        # the per-child block between u_cross and u_pick is drawn and not used
        for name in ("u_cross", "u_pick", "u_mutation"):
            assert np.array_equal(getattr(draws, name), blocks[name])
        assert used.random() == probe.random()

    def test_same_draws_whatever_the_gates_and_ranks(self):
        # the stream advances by the same blocks for every population state
        # and gate outcome, so all arms of a repetition stay in lockstep
        states = [
            (np.zeros(8, dtype=np.int64), np.full(8, np.inf)),
            (np.arange(8), np.arange(8.0)),
            (np.array([0, 0, 1, 1, 2, 2, 3, 3]), np.array([np.inf, 1.0] * 4)),
        ]
        after = set()
        for seed in range(120, 130):
            for ranks, crowding in states:
                rng = RngStream(seed)
                draws = draw_variation(ranks, crowding, ga_pair(pop_size=8), 4, rng)
                after.add((seed, rng.random(), draws.u_mutation.tobytes()))
        assert len(after) == 10

    def test_gates_follow_the_probabilities(self):
        draws = draw_variation(
            np.zeros(2000, dtype=np.int64), np.arange(2000.0), ga_pair(pop_size=2000), 3,
            RngStream(105),
        )
        assert draws.crosses.mean() == pytest.approx(CROSSOVER_PROB, abs=0.03)
        # rows a gate skips hold uniforms too: the blocks are drawn whole
        for u in (draws.u_cross, draws.u_pick, draws.u_mutation):
            assert np.all((u > 0.0) & (u < 1.0))


class TestSbxCrossover:
    def test_skipped_pair_passes_through(self):
        a, b = rows([0.2, 0.7]), rows([0.9, 0.1])
        ca, cb = sbx_crossover(a, b, [False], RngStream(90).random((1, 2)))
        assert np.array_equal(ca, a) and np.array_equal(cb, b)
        assert ca is not a and cb is not b

    def test_identical_parents_pass_through(self):
        a = rows([0.3, 0.6])
        ca, cb = sbx_crossover(a, a.copy(), [True], RngStream(90).random((1, 2)))
        assert np.array_equal(ca, a) and np.array_equal(cb, a)

    def test_children_within_bounds(self):
        rng = RngStream(91)
        a, b, u = rng.random((2000, 3)), rng.random((2000, 3)), rng.random((2000, 3))
        ca, cb = sbx_crossover(a, b, np.ones(2000, bool), u)
        for child in (ca, cb):
            assert np.all(child >= 0.0) and np.all(child <= 1.0)

    def test_midpoint_preserved_without_clipping(self):
        # children the box does not clip always straddle the parents' mean
        rng = RngStream(92)
        a, b, u = rng.random((500, 3)), rng.random((500, 3)), rng.random((500, 3))
        ca, cb = sbx_crossover(a, b, np.ones(500, bool), u)
        inside = (ca > 0.0) & (ca < 1.0) & (cb > 0.0) & (cb < 1.0)
        assert inside.mean() > 0.8
        assert np.allclose((ca + cb)[inside], (a + b)[inside], atol=1e-10)

    def test_child_mean_matches_parent_mean(self):
        rng = RngStream(93)
        a, b = np.full((10_000, 1), 0.2), np.full((10_000, 1), 0.8)
        ca, cb = sbx_crossover(a, b, np.ones(10_000, bool), rng.random((10_000, 1)))
        assert np.mean(np.concatenate((ca, cb))) == pytest.approx(0.5, abs=0.02)

    def test_draw_accounting_active(self):
        # a crossing pair's uniforms are its row of the crossover block
        used, probe = RngStream(94), RngStream(94)
        draws = draw_variation(*DISTINCT, ga_pair(), 3, used)
        blocks = contract_blocks(probe, 2, 3)
        assert draws.crosses.tolist() == [True]
        assert np.array_equal(draws.u_cross, blocks["u_cross"])
        assert used.random() == probe.random()

    def test_draw_accounting_skipped(self):
        # a skipped crossover still draws its row: same draws, same position
        used, probe = RngStream(100), RngStream(100)
        draws = draw_variation(*DISTINCT, ga_pair(), 3, used)
        blocks = contract_blocks(probe, 2, 3)
        assert draws.crosses.tolist() == [False]
        assert np.array_equal(draws.u_cross, blocks["u_cross"])
        assert used.random() == probe.random()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractViolationError):
            sbx_crossover(rows([0.2]), rows([0.8, 0.5]), [True], RngStream(96).random((1, 2)))


class TestPolynomialMutation:
    def test_skipped_offspring_copied(self):
        # an offspring none of whose variables is picked comes back as a copy
        x = rows([0.3, 0.6])
        u_pick, u = 0.5 + 0.5 * RngStream(97).random((2, 1, 2))
        y = polynomial_mutation(x, u_pick, u)
        assert np.array_equal(y, x) and y is not x

    def test_stays_within_bounds(self):
        rng = RngStream(98)
        x, u_pick, u = rng.random((5000, 3)), rng.random((5000, 3)), rng.random((5000, 3))
        y = polynomial_mutation(x, u_pick, u)
        assert np.all(y >= 0.0) and np.all(y <= 1.0)

    def test_boundary_genes_stay_feasible(self):
        rng = RngStream(99)
        for x in ([0.0, 1.0], [0.0, 0.0], [1.0, 1.0]):
            u_pick, u = rng.random((200, 2)), rng.random((200, 2))
            y = polynomial_mutation(np.tile(x, (200, 1)), u_pick, u)
            assert np.all(y >= 0.0) and np.all(y <= 1.0)

    def test_only_picked_variables_move(self):
        # variable j moves only when its pick uniform falls below 1/n
        x = rows([0.5, 0.5], [0.5, 0.5])
        u_pick = rows([0.1, 0.9], [0.9, 0.4])
        y = polynomial_mutation(x, u_pick, np.full((2, 2), 0.9))
        assert y[0, 0] != 0.5 and y[0, 1] == 0.5
        assert y[1, 0] == 0.5 and y[1, 1] != 0.5

    def test_perturbation_centered(self):
        # symmetric start, symmetric distribution: mean stays at the start
        rng = RngStream(100)
        values = polynomial_mutation(
            np.full((50_000, 1), 0.5), np.zeros((50_000, 1)), rng.random((50_000, 1))
        )
        assert np.mean(values) == pytest.approx(0.5, abs=0.005)

    def test_draw_accounting_active(self):
        # an offspring's picks and perturbations are its rows of the blocks
        used, probe = RngStream(101), RngStream(101)
        draws = draw_variation(*DISTINCT, ga_pair(), 3, used)
        blocks = contract_blocks(probe, 2, 3)
        assert np.array_equal(draws.u_pick, blocks["u_pick"])
        assert np.array_equal(draws.u_mutation, blocks["u_mutation"])
        assert used.random() == probe.random()

    def test_draw_accounting_skipped(self):
        # variables that are not picked still draw their perturbations: same position
        used, probe = RngStream(101), RngStream(101)
        draws = draw_variation(*DISTINCT, ga_pair(), 3, used)
        blocks = contract_blocks(probe, 2, 3)
        assert not (draws.u_pick < 1 / 3).all()
        assert np.array_equal(draws.u_pick, blocks["u_pick"])
        assert np.array_equal(draws.u_mutation, blocks["u_mutation"])
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

    def test_defaults(self):
        # the variation rates and indices are constants, not settings
        assert [f.name for f in dataclasses.fields(GaConfig)] == ["pop_size", "generations"]
        for rate in ("crossover_prob", "mutation_prob"):
            with pytest.raises(TypeError):
                GaConfig(pop_size=10, generations=5, **{rate: 0.9})
        assert (CROSSOVER_PROB, ETA_CROSSOVER, ETA_MUTATION) == (0.9, 15.0, 20.0)


@st.composite
def run_cases(draw):
    """A small run's problem, noise, GA configuration and seed."""
    problem = ZdtProblem(
        draw(st.sampled_from(ZDT_VARIANTS)), draw(st.sampled_from([2, 3, 4, 5, 6, 30]))
    )
    ga = GaConfig(pop_size=2 * draw(st.integers(1, 6)), generations=draw(st.integers(1, 8)))
    noise = NoiseSpec(draw(st.sampled_from([0.0, 0.1, 1.0])))
    return problem, noise, ga, draw(st.integers(0, 2**64 - 1))


def run_bytes(result) -> list[bytes]:
    """Bytes of everything a run returns: final sets, history matrices and trace."""
    history = result.history
    parts = [
        getattr(batch, name)
        for batch in (result.population, result.nondominated)
        for name in ("variables", "objectives", "raw_objectives")
    ]
    parts += [
        history.variables_matrix(), history.raw_matrix(), history.averaged_matrix(),
        history.batch_numbers(), result.front_sizes, result.front_hypervolumes,
    ]
    return [np.ascontiguousarray(part).tobytes() for part in parts]


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
        assert result.history.batch_numbers()[-1] == 20

    def test_trace_covers_every_generation(self):
        result = small_run(seed=2, gens=15)
        assert result.front_sizes.shape == result.front_hypervolumes.shape == (16,)
        assert result.front_sizes.dtype == np.int64
        assert result.front_hypervolumes.dtype == np.float64
        assert not result.front_sizes.flags.writeable
        assert not result.front_hypervolumes.flags.writeable

    def test_deterministic(self):
        a = small_run(seed=3)
        b = small_run(seed=3)
        assert np.array_equal(a.population.variables, b.population.variables)
        assert np.array_equal(a.population.objectives, b.population.objectives)
        assert np.array_equal(a.front_hypervolumes, b.front_hypervolumes)

    def test_seeds_differ(self):
        a = small_run(seed=4)
        b = small_run(seed=5)
        assert not np.array_equal(a.population.variables, b.population.variables)

    def test_population_size_constant(self):
        result = small_run(seed=6)
        assert len(result.population) == 10

    def test_nondominated_is_filter_of_population(self):
        result = small_run(seed=7)
        objs = result.nondominated.objectives
        pop_objs = result.population.objectives
        for o in objs:
            le = np.all(pop_objs <= o, axis=1)
            lt = np.any(pop_objs < o, axis=1)
            assert not np.any(le & lt)
        assert result.front_sizes[-1] == len(result.nondominated)

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
        assert result.front_hypervolumes[-1] >= 0.95 * 120.66666666666667

    def test_elitism_while_front_below_capacity(self):
        # with exact evaluations, survival keeps the whole first front as
        # long as it fits, so its hypervolume cannot drop at those steps
        checked = 0
        for seed in (11, 12, 13):
            result = small_run(seed=seed, sigma=0.0, pop=10, gens=100)
            hv = result.front_hypervolumes
            for g in np.flatnonzero(result.front_sizes[1:] < result.ga.pop_size) + 1:
                checked += 1
                assert hv[g] >= hv[g - 1] - 1e-9
        assert checked > 0

    def test_k1_averaging_reproduces_baseline_run(self):
        for seed in (14, 15):
            base = small_run(seed=seed, sigma=0.3)
            knn = small_run(
                seed=seed, sigma=0.3, evaluator=KnnAveraged(KnnConfig(k=1, max_dist=0.25))
            )
            assert np.array_equal(base.population.variables, knn.population.variables)
            assert np.array_equal(base.population.objectives, knn.population.objectives)

    @settings(max_examples=40)
    @given(run_cases(), st.sampled_from([0.05, 0.25, 1.0, 5.0]))
    def test_k1_averaging_replays_baseline_over_drawn_configurations(self, case, max_dist):
        problem, noise, ga, seed = case
        base = run_optimization(problem, noise, PlainNoisy(), ga, RngStream(seed))
        knn = run_optimization(
            problem, noise, KnnAveraged(KnnConfig(k=1, max_dist=max_dist)), ga, RngStream(seed)
        )
        assert run_bytes(knn) == run_bytes(base)

    def test_arms_and_gates_end_at_one_stream_position(self):
        # every arm of a repetition draws the same blocks in every generation,
        # whatever its ranks and ties, so its noise is the baseline's noise
        problem = ZdtProblem("zdt1", 2)
        arms = [
            PlainNoisy(),
            KnnAveraged(KnnConfig(k=10, max_dist=0.25)),
            KnnAveraged(KnnConfig(k=3, max_dist=1.0)),
        ]
        ga = GaConfig(pop_size=10, generations=30)
        for seed in (1, 2, 3):
            positions = set()
            for evaluator in arms:
                rng = RngStream(seed)
                run_optimization(problem, NoiseSpec(0.2), evaluator, ga, rng)
                positions.add(rng.random())
            assert len(positions) == 1

    def test_averaging_changes_search_path(self):
        base = small_run(seed=16, sigma=0.3)
        knn = small_run(
            seed=16, sigma=0.3, evaluator=KnnAveraged(KnnConfig(k=10, max_dist=0.25))
        )
        assert not np.array_equal(base.population.variables, knn.population.variables)

    def test_evaluator_label_recorded(self):
        result = small_run(seed=17)
        assert result.evaluator_label == "plain"
        knn = small_run(seed=17, evaluator=KnnAveraged(KnnConfig(k=3, max_dist=0.5)))
        assert knn.evaluator_label == "knn(k=3, max_dist=0.5)"

    def test_trace_hypervolume_matches_recomputation(self):
        result = small_run(seed=18)
        objs = result.nondominated.objectives
        assert result.front_hypervolumes[-1] == hypervolume_2d(objs)


class TestRunStack:
    @settings(max_examples=40, deadline=None)
    @given(
        run_cases(),
        st.sampled_from([None, 1, 3, 12]),
        st.sampled_from([0.05, 0.25, 1.0, 5.0]),
        st.lists(st.integers(0, 2**64 - 1), max_size=3),
    )
    def test_each_run_of_a_stack_is_the_run_alone(self, case, k, max_dist, more_seeds):
        problem, noise, ga, seed = case
        evaluator = PlainNoisy() if k is None else KnnAveraged(KnnConfig(k, max_dist))
        seeds = [seed] + more_seeds
        stack = run_stack(problem, noise, evaluator, ga, [RngStream(s) for s in seeds])
        assert [result.seed for result in stack] == seeds
        for s, result in zip(seeds, stack):
            alone = run_optimization(problem, noise, evaluator, ga, RngStream(s))
            assert run_bytes(result) == run_bytes(alone)

    def test_each_stream_advances_as_in_its_run_alone(self):
        problem, ga = ZdtProblem("zdt2", 3), GaConfig(pop_size=6, generations=4)
        evaluator = KnnAveraged(KnnConfig(k=4, max_dist=1.0))
        streams = [RngStream(seed) for seed in (5, 6, 5)]
        run_stack(problem, NoiseSpec(0.1), evaluator, ga, streams)
        alone = [RngStream(seed) for seed in (5, 6, 5)]
        for stream in alone:
            run_optimization(problem, NoiseSpec(0.1), evaluator, ga, stream)
        assert [s.random() for s in streams] == [s.random() for s in alone]


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
