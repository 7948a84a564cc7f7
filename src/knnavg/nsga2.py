"""Elitist non-dominated sorting genetic algorithm with pluggable evaluation.

The loop is the classic (mu + lambda) scheme: binary tournaments pick
parents by front rank then crowding, simulated binary crossover and
polynomial mutation produce exactly ``pop_size`` offspring per generation,
and parents plus offspring are truncated back by rank and crowding. What
the selection machinery never sees is how objectives were obtained: an
``Evaluator`` turns freshly sampled solutions into ranked ones, either
passing the noisy sample through or replacing it with a neighborhood
average over the run's evaluation history.

Populations and offspring are :class:`~knnavg.core.Batch` matrices, in the
loop and in the :class:`OptimizationResult` it returns. Draw order, the
same since ``STREAM_VERSION`` 2: the initial population takes
``random((pop_size, n))``, then its evaluation noise. Every generation then draws the
fixed-shape blocks of :func:`draw_variation`, whatever the ranks, ties and
gates turn out to be, then its children's evaluation noise, so all arms of
a repetition stay at one stream position. Selection, crossover, mutation
and evaluation then run once on whole matrices.
"""

from __future__ import annotations

import abc
from dataclasses import asdict, dataclass, field

import numpy as np

from .averaging import EvaluationHistory, KnnConfig, history_rows, knn_evaluate
from .core import (
    Batch,
    ContractViolationError,
    RngStream,
    as_count,
    as_real,
    dominance_matrix,
)
from .metrics import DEFAULT_REFERENCE, hypervolume_2d
from .problems import NoiseSpec, ZdtProblem, evaluate_noisy

__all__ = [
    "GaConfig",
    "Evaluator",
    "PlainNoisy",
    "KnnAveraged",
    "GenerationStats",
    "OptimizationResult",
    "VariationDraws",
    "fast_non_dominated_sort",
    "crowding_distance",
    "tournament_winners",
    "draw_variation",
    "sbx_crossover",
    "polynomial_mutation",
    "run_optimization",
]

# Distribution indices of SBX and polynomial mutation, the values commonly
# used with real-coded operators.
ETA_CROSSOVER = 15.0
ETA_MUTATION = 20.0


@dataclass(frozen=True)
class GaConfig:
    """Search parameters of one optimization run.

    ``pop_size`` must be even because parents are consumed in pairs by the
    crossover. ``crossover_prob`` applies per parent pair and
    ``mutation_prob`` per offspring; inside a mutating offspring each
    variable is perturbed with probability 1/n.
    """

    pop_size: int
    generations: int
    crossover_prob: float = 0.9
    mutation_prob: float = 1.0

    def __post_init__(self) -> None:
        pop_size = as_count(self.pop_size, "pop_size", 2)
        if pop_size % 2 != 0:
            raise ContractViolationError("pop_size must be an even number of at least 2")
        object.__setattr__(self, "pop_size", pop_size)
        object.__setattr__(self, "generations", as_count(self.generations, "generations", 1))
        for name in ("crossover_prob", "mutation_prob"):
            p = as_real(getattr(self, name), name)
            if not 0.0 <= p <= 1.0:
                raise ContractViolationError(f"{name} must lie in [0, 1]")
            object.__setattr__(self, name, p)


class Evaluator(abc.ABC):
    """Turns a batch of freshly sampled solutions into ranked solutions.

    Implementations must be deterministic functions of the batch and the
    history state: all randomness lives in the sampling step that precedes
    them. Every batch must be appended to the history exactly once.
    """

    label: str = "evaluator"

    @abc.abstractmethod
    def evaluate(self, batch: Batch, history: EvaluationHistory) -> Batch:
        """Assign search objectives to ``batch``, recording it in ``history``."""


class PlainNoisy(Evaluator):
    """Baseline evaluation: the raw noisy sample is ranked as-is."""

    label = "plain"

    def evaluate(self, batch: Batch, history: EvaluationHistory) -> Batch:
        history.append_batch(batch.variables, batch.raw_objectives)
        return batch


class KnnAveraged(Evaluator):
    """Evaluation through nearest-neighbor averaging of the history."""

    def __init__(self, config: KnnConfig) -> None:
        self.config = config
        self.label = config.label()

    def evaluate(self, batch: Batch, history: EvaluationHistory) -> Batch:
        return knn_evaluate(batch, history, self.config)


def fast_non_dominated_sort(objectives: np.ndarray) -> list[list[int]]:
    """Partition the rows of an (n, m) objective matrix into non-domination fronts.

    Front 0 is the set of rows dominated by nobody; front j contains rows
    dominated only by members of earlier fronts. Every row index appears in
    exactly one front; indices inside a front keep ascending order.
    """
    objs = np.asarray(objectives, dtype=np.float64)
    if not objs.size:
        return []
    dom = dominance_matrix(objs)
    n_dominators = dom.sum(axis=0).astype(np.int64)
    fronts: list[list[int]] = []
    current = np.flatnonzero(n_dominators == 0)
    while current.size:
        fronts.append(current.tolist())
        released = dom[current].sum(axis=0)
        n_dominators[current] = -1
        n_dominators = n_dominators - released
        current = np.flatnonzero(n_dominators == 0)
    return fronts


def crowding_distance(front: np.ndarray) -> np.ndarray:
    """Crowding distances of the rows of one front's (n, m) objective matrix.

    Boundary solutions of every objective get infinity; interior solutions
    accumulate the normalized span between their neighbors in each
    objective's sorted order. Fronts of one or two members are all-infinite.
    An objective with zero range contributes nothing.
    """
    objs = np.asarray(front, dtype=np.float64)
    n = objs.shape[0]
    if not n:
        raise ContractViolationError("crowding distance of an empty front is undefined")
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    for vals in objs.T:
        order = np.argsort(vals, kind="stable")
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        span = vals[order[-1]] - vals[order[0]]
        if span <= 0.0:
            continue
        dist[order[1:-1]] += (vals[order[2:]] - vals[order[:-2]]) / span
    return dist


@dataclass(frozen=True, eq=False)
class VariationDraws:
    """One generation's parents and variation draws; rows a gate skips are drawn too."""

    parents: np.ndarray  # (pop_size / 2, 2): the two tournament winners of pair p
    crosses: np.ndarray  # (pop_size / 2,): pair p crosses
    u_cross: np.ndarray  # (pop_size / 2, n): its crossover uniforms
    mutates: np.ndarray  # (pop_size,): child c mutates
    u_pick: np.ndarray  # (pop_size, n): which of its variables mutate
    u_mutation: np.ndarray  # (pop_size, n): how far they move


def tournament_winners(
    candidates: np.ndarray, coins: np.ndarray, ranks: np.ndarray, crowding: np.ndarray
) -> np.ndarray:
    """Winners of binary tournaments between ``candidates[..., 0]`` and ``[..., 1]``.

    The lower front rank wins, then the larger crowding distance; when both
    tie, the first candidate wins if its coin is below 0.5. ``coins`` has
    the shape of the result.
    """
    i, j = candidates[..., 0], candidates[..., 1]
    first = np.where(
        ranks[i] != ranks[j],
        ranks[i] < ranks[j],
        np.where(crowding[i] != crowding[j], crowding[i] > crowding[j], coins < 0.5),
    )
    return np.where(first, i, j)


def draw_variation(
    ranks: np.ndarray, crowding: np.ndarray, ga: GaConfig, n_vars: int, rng: RngStream
) -> VariationDraws:
    """Draw one generation's fixed-shape blocks, in the order written here; pick parents."""
    pairs = ga.pop_size // 2
    candidates = rng.integers(ga.pop_size, (pairs, 2, 2))
    coins = rng.random((pairs, 2))
    crosses = rng.random(pairs) < ga.crossover_prob
    u_cross = rng.random((pairs, n_vars))
    mutates = rng.random(ga.pop_size) < ga.mutation_prob
    u_pick = rng.random((ga.pop_size, n_vars))
    u_mutation = rng.random((ga.pop_size, n_vars))
    parents = tournament_winners(candidates, coins, ranks, crowding)
    return VariationDraws(parents, crosses, u_cross, mutates, u_pick, u_mutation)


def sbx_crossover(parents_a, parents_b, crosses, u) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover of row pairs (Deb & Agrawal, 1995).

    Row p of ``parents_a`` and ``parents_b`` (both (pairs, n)) is one parent
    pair. Pairs with ``crosses[p]`` False pass through as copies. In a
    crossing pair each variable spawns two symmetric children from the SBX
    spread distribution with index ``ETA_CROSSOVER``, driven by the uniform
    ``u[p, j]``, clipped into [0, 1]; variables whose parent genes coincide
    pass through exactly.
    """
    a = np.asarray(parents_a, dtype=np.float64)
    b = np.asarray(parents_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise ContractViolationError("parents must be equally shaped (pairs, n) matrices")
    u = np.asarray(u)
    exponent = 1.0 / (ETA_CROSSOVER + 1.0)
    beta = np.where(u <= 0.5, (2.0 * u) ** exponent, (0.5 / (1.0 - u)) ** exponent)
    child_a = np.clip(0.5 * ((1.0 + beta) * a + (1.0 - beta) * b), 0.0, 1.0)
    child_b = np.clip(0.5 * ((1.0 - beta) * a + (1.0 + beta) * b), 0.0, 1.0)
    keep = ~np.asarray(crosses, dtype=bool)[:, None] | (np.abs(a - b) <= 1e-14)
    return np.where(keep, a, child_a), np.where(keep, b, child_b)


def polynomial_mutation(vectors, mutates, u_pick, u) -> np.ndarray:
    """Bounded polynomial mutation of the rows of a (b, n) matrix (Deb & Goyal, 1996).

    Rows with ``mutates[i]`` False are returned as exact copies. In a
    mutating row, variable j is perturbed when ``u_pick[i, j] < 1/n``, by
    the bounded polynomial distribution with index ``ETA_MUTATION`` driven
    by ``u[i, j]``, which cannot leave [0, 1]; perturbed values are clipped.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2:
        raise ContractViolationError("vectors must be a (b, n) matrix")
    u = np.asarray(u)
    pick = np.asarray(mutates, dtype=bool)[:, None] & (np.asarray(u_pick) < (1.0 / x.shape[1]))
    # 1 - (1 - x) is not always x in floating point; the recorded bits need both forms
    frac_high = 1.0 - x
    power = ETA_MUTATION + 1.0
    exponent = 1.0 / power
    val_low = 2.0 * u + (1.0 - 2.0 * u) * (1.0 - x) ** power
    val_high = 2.0 * (1.0 - u) + (2.0 * u - 1.0) * (1.0 - frac_high) ** power
    delta = np.where(u < 0.5, val_low**exponent - 1.0, 1.0 - val_high**exponent)
    return np.where(pick, np.clip(x + delta, 0.0, 1.0), x)


@dataclass(frozen=True)
class GenerationStats:
    """Per-generation trace entry: first-front size and its hypervolume."""

    generation: int
    front_size: int
    front_hypervolume: float


@dataclass(eq=False)
class OptimizationResult:
    """Everything one finished run produced.

    ``population`` is the final population, ``nondominated`` its
    non-dominated subset (the run's answer) in population order, both as
    batches; ``history`` is every sample the run ever drew, and ``trace``
    one stats entry per generation including the initial one.
    """

    problem: ZdtProblem
    noise: NoiseSpec
    evaluator_label: str
    ga: GaConfig
    seed: int
    population: Batch
    nondominated: Batch
    history: EvaluationHistory
    trace: list[GenerationStats] = field(default_factory=list)

    def to_dict(self, include_history: bool = False) -> dict:
        """JSON-ready summary of the run."""
        front = self.nondominated
        data = {
            "problem": {"variant": self.problem.variant, "n_vars": self.problem.n_vars},
            "noise_sigma": self.noise.sigma,
            "evaluator": self.evaluator_label,
            "ga": asdict(self.ga),
            "seed": self.seed,
            "nondominated": [
                {"variables": x, "raw_objectives": raw, "objectives": f}
                for x, raw, f in zip(
                    front.variables.tolist(),
                    front.raw_objectives.tolist(),
                    front.objectives.tolist(),
                )
            ],
            "trace": [asdict(t) for t in self.trace],
            "history_length": len(self.history),
        }
        if include_history:
            header, rows = history_rows(self.history)
            data["history"] = {"columns": header, "rows": rows}
        return data


def _rank_population(objectives: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Front rank and crowding distance of every population member, in order."""
    chosen, ranks, crowding = _survival(objectives, len(objectives))
    order = np.argsort(chosen)
    return ranks[order], crowding[order]


def _survival(
    objectives: np.ndarray, target: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncate parents plus offspring to ``target`` by rank, then crowding.

    Returns the chosen row indices with their ranks and crowding distances.
    Whole fronts are taken while they fit; the first front that overflows is
    cut by descending crowding distance, ties broken by position, which
    keeps the truncation deterministic.

    The rank-0 survivors are exactly the survivors' non-dominated members:
    a rank-0 survivor is dominated by nobody in the larger set it was ranked
    in, and a survivor of rank r >= 1 was only kept after every earlier
    front was kept whole, so some survivor of rank r - 1 dominates it.
    """
    chosen, ranks, crowd = [], [], []
    count = 0
    for rank, front in enumerate(fast_non_dominated_sort(objectives)):
        front = np.array(front)
        distances = crowding_distance(objectives[front])
        if count + len(front) > target:
            keep = np.argsort(-distances, kind="stable")[: target - count]
            front, distances = front[keep], distances[keep]
        chosen.append(front)
        ranks.append(np.full(len(front), rank, dtype=np.int64))
        crowd.append(distances)
        count += len(front)
        if count == target:
            break
    return np.concatenate(chosen), np.concatenate(ranks), np.concatenate(crowd)


def _generation_stats(
    generation: int, objectives: np.ndarray, ranks: np.ndarray
) -> GenerationStats:
    front = objectives[ranks == 0]
    hv = hypervolume_2d(front, DEFAULT_REFERENCE)
    return GenerationStats(generation=generation, front_size=len(front), front_hypervolume=hv)


def run_optimization(
    problem: ZdtProblem,
    noise: NoiseSpec,
    evaluator: Evaluator,
    ga: GaConfig,
    rng: RngStream,
) -> OptimizationResult:
    """Run the full generational loop and return its result.

    The initial population is sampled uniformly from the unit box.
    Every generation draws exactly ``ga.pop_size`` new solutions, evaluates
    each exactly once through ``evaluator``, and truncates parents plus
    offspring back to ``pop_size``. Total evaluations are therefore
    ``pop_size * (generations + 1)``, which is also the final history
    length. Identical arguments and seed reproduce the result bitwise; the
    random stream is consumed in the module's draw-order contract.
    """
    history = EvaluationHistory(problem.n_vars, problem.n_objs)
    initial = rng.random((ga.pop_size, problem.n_vars))
    population = evaluator.evaluate(evaluate_noisy(problem, noise, initial, rng), history)
    ranks, crowding = _rank_population(population.objectives)
    trace = [_generation_stats(0, population.objectives, ranks)]
    for generation in range(1, ga.generations + 1):
        draws = draw_variation(ranks, crowding, ga, problem.n_vars, rng)
        child_a, child_b = sbx_crossover(
            population.variables[draws.parents[:, 0]],
            population.variables[draws.parents[:, 1]],
            draws.crosses,
            draws.u_cross,
        )
        # children in pair order: 2p from parent a, 2p + 1 from parent b
        children = np.stack((child_a, child_b), axis=1).reshape(ga.pop_size, problem.n_vars)
        children = polynomial_mutation(children, draws.mutates, draws.u_pick, draws.u_mutation)
        offspring = evaluator.evaluate(evaluate_noisy(problem, noise, children, rng), history)
        combined = population.concat(offspring)
        chosen, ranks, crowding = _survival(combined.objectives, ga.pop_size)
        population = combined.take(chosen)
        trace.append(_generation_stats(generation, population.objectives, ranks))
    return OptimizationResult(
        problem=problem,
        noise=noise,
        evaluator_label=evaluator.label,
        ga=ga,
        seed=rng.seed,
        population=population,
        nondominated=population.take(ranks == 0),
        history=history,
        trace=trace,
    )
