"""Elitist non-dominated sorting genetic algorithm with pluggable evaluation.

The loop is the classic (mu + lambda) scheme: binary tournaments pick
parents by front rank then crowding, simulated binary crossover and
polynomial mutation produce exactly ``pop_size`` offspring per generation,
and parents plus offspring are truncated back by rank and crowding. What
the selection machinery never sees is how objectives were obtained: an
``Evaluator`` turns freshly sampled solutions into ranked ones, either
passing the noisy sample through or replacing it with a neighborhood
average over the run's evaluation history.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .averaging import EvaluationHistory, KnnConfig, history_rows, knn_evaluate
from .core import (
    ContractViolationError,
    RngStream,
    Solution,
    as_count,
    dominance_matrix,
    objectives_matrix,
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
    "fast_non_dominated_sort",
    "crowding_distance",
    "sbx_crossover",
    "polynomial_mutation",
    "run_optimization",
]


@dataclass(frozen=True)
class GaConfig:
    """Search parameters of one optimization run.

    ``pop_size`` must be even because parents are consumed in pairs by the
    crossover. ``crossover_prob`` applies per parent pair and
    ``mutation_prob`` per offspring; inside a mutating offspring each
    variable is perturbed with probability 1/n. The distribution indices
    default to the values commonly used with real-coded operators.
    """

    pop_size: int
    generations: int
    crossover_prob: float = 0.9
    mutation_prob: float = 1.0
    eta_crossover: float = 15.0
    eta_mutation: float = 20.0

    def __post_init__(self) -> None:
        pop_size = as_count(self.pop_size, "pop_size", 2)
        if pop_size % 2 != 0:
            raise ContractViolationError("pop_size must be an even number of at least 2")
        object.__setattr__(self, "pop_size", pop_size)
        object.__setattr__(self, "generations", as_count(self.generations, "generations", 1))
        for name in ("crossover_prob", "mutation_prob"):
            p = float(getattr(self, name))
            if not 0.0 <= p <= 1.0:
                raise ContractViolationError(f"{name} must lie in [0, 1]")
            object.__setattr__(self, name, p)
        for name in ("eta_crossover", "eta_mutation"):
            eta = float(getattr(self, name))
            if not np.isfinite(eta) or eta <= 0.0:
                raise ContractViolationError(f"{name} must be positive")
            object.__setattr__(self, name, eta)


class Evaluator(abc.ABC):
    """Turns a batch of freshly sampled solutions into ranked solutions.

    Implementations must be deterministic functions of the batch and the
    history state: all randomness lives in the sampling step that precedes
    them. Every batch must be appended to the history exactly once.
    """

    label: str = "evaluator"

    @abc.abstractmethod
    def evaluate(self, batch: Sequence[Solution], history: EvaluationHistory) -> list[Solution]:
        """Assign search objectives to ``batch``, recording it in ``history``."""


class PlainNoisy(Evaluator):
    """Baseline evaluation: the raw noisy sample is ranked as-is."""

    label = "plain"

    def evaluate(self, batch: Sequence[Solution], history: EvaluationHistory) -> list[Solution]:
        batch = list(batch)
        history.append_batch(batch)
        return batch


class KnnAveraged(Evaluator):
    """Evaluation through nearest-neighbor averaging of the history."""

    def __init__(self, config: KnnConfig) -> None:
        self.config = config
        self.label = config.label()

    def evaluate(self, batch: Sequence[Solution], history: EvaluationHistory) -> list[Solution]:
        return knn_evaluate(batch, history, self.config)


def fast_non_dominated_sort(population: Sequence[Solution]) -> list[list[int]]:
    """Partition population indices into non-domination fronts.

    Front 0 is the set of solutions dominated by nobody; front j contains
    solutions dominated only by members of earlier fronts. Every index
    appears in exactly one front; indices inside a front keep ascending
    order.
    """
    sols = list(population)
    if not sols:
        return []
    dom = dominance_matrix(objectives_matrix(sols))
    n_dominators = dom.sum(axis=0).astype(np.int64)
    fronts: list[list[int]] = []
    current = np.flatnonzero(n_dominators == 0)
    while current.size:
        fronts.append([int(i) for i in current])
        released = dom[current].sum(axis=0)
        n_dominators[current] = -1
        n_dominators = n_dominators - released
        current = np.flatnonzero(n_dominators == 0)
    return fronts


def crowding_distance(front: Sequence[Solution]) -> np.ndarray:
    """Crowding distances of the members of one front.

    Boundary solutions of every objective get infinity; interior solutions
    accumulate the normalized span between their neighbors in each
    objective's sorted order. Fronts of one or two members are all-infinite.
    An objective with zero range contributes nothing.
    """
    sols = list(front)
    if not sols:
        raise ContractViolationError("crowding distance of an empty front is undefined")
    n = len(sols)
    if n <= 2:
        return np.full(n, np.inf)
    objs = objectives_matrix(sols)
    dist = np.zeros(n)
    for m in range(objs.shape[1]):
        vals = objs[:, m]
        order = np.argsort(vals, kind="stable")
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        span = vals[order[-1]] - vals[order[0]]
        if span <= 0.0:
            continue
        dist[order[1:-1]] += (vals[order[2:]] - vals[order[:-2]]) / span
    return dist


def _checked_bounds(bounds, n: int) -> tuple[np.ndarray, np.ndarray]:
    lower = np.asarray(bounds[0], dtype=np.float64)
    upper = np.asarray(bounds[1], dtype=np.float64)
    if lower.shape != (n,) or upper.shape != (n,):
        raise ContractViolationError("bounds must match the vector length")
    if not np.all(lower < upper):
        raise ContractViolationError("lower bounds must be strictly below upper bounds")
    return lower, upper


def sbx_crossover(
    parent_a,
    parent_b,
    prob: float,
    eta: float,
    bounds: tuple[np.ndarray, np.ndarray],
    rng: RngStream,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover on two real vectors (Deb & Agrawal, 1995).

    With probability ``1 - prob`` the parents pass through as copies.
    Otherwise each variable spawns two symmetric children from the SBX
    spread distribution with index ``eta``; variables whose parent genes
    coincide pass through exactly. Children are clipped into ``bounds``.
    """
    a = np.asarray(parent_a, dtype=np.float64)
    b = np.asarray(parent_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ContractViolationError("parents must be equally long 1-d vectors")
    lower, upper = _checked_bounds(bounds, a.shape[0])
    if rng.random() >= prob:
        return a.copy(), b.copy()
    u = rng.random(a.shape[0])
    exponent = 1.0 / (eta + 1.0)
    beta = np.where(u <= 0.5, (2.0 * u) ** exponent, (0.5 / (1.0 - u)) ** exponent)
    child_a = 0.5 * ((1.0 + beta) * a + (1.0 - beta) * b)
    child_b = 0.5 * ((1.0 - beta) * a + (1.0 + beta) * b)
    same = np.abs(a - b) <= 1e-14
    child_a[same] = a[same]
    child_b[same] = b[same]
    return (
        np.clip(child_a, lower, upper),
        np.clip(child_b, lower, upper),
    )


def polynomial_mutation(
    vector,
    prob: float,
    eta: float,
    bounds: tuple[np.ndarray, np.ndarray],
    rng: RngStream,
) -> np.ndarray:
    """Bounded polynomial mutation of a real vector (Deb & Goyal, 1996).

    The offspring mutates with probability ``prob``; a skipped offspring is
    returned as an exact copy. Inside a mutating offspring each variable is
    perturbed with probability 1/n by the bounded polynomial distribution
    with index ``eta``, which cannot leave ``bounds``. The per-variable
    draws are consumed regardless of which variables end up perturbed, so
    the stream position depends only on n.
    """
    x = np.asarray(vector, dtype=np.float64)
    if x.ndim != 1:
        raise ContractViolationError("vector must be 1-d")
    lower, upper = _checked_bounds(bounds, x.shape[0])
    if rng.random() >= prob:
        return x.copy()
    n = x.shape[0]
    pick = rng.random(n) < (1.0 / n)
    u = rng.random(n)
    span = upper - lower
    frac_low = (x - lower) / span
    frac_high = (upper - x) / span
    power = eta + 1.0
    exponent = 1.0 / power
    val_low = 2.0 * u + (1.0 - 2.0 * u) * (1.0 - frac_low) ** power
    val_high = 2.0 * (1.0 - u) + (2.0 * u - 1.0) * (1.0 - frac_high) ** power
    delta = np.where(u < 0.5, val_low**exponent - 1.0, 1.0 - val_high**exponent)
    mutated = np.where(pick, x + delta * span, x)
    return np.clip(mutated, lower, upper)


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
    non-dominated subset (the run's answer), ``history`` every sample the
    run ever drew, and ``trace`` one stats entry per generation including
    the initial one.
    """

    problem: ZdtProblem
    noise: NoiseSpec
    evaluator_label: str
    ga: GaConfig
    seed: int
    population: list[Solution]
    nondominated: list[Solution]
    history: EvaluationHistory
    trace: list[GenerationStats] = field(default_factory=list)

    def to_dict(self, include_history: bool = False) -> dict:
        """JSON-ready summary of the run."""
        def solution_entry(s: Solution) -> dict:
            return {
                "variables": [float(v) for v in s.variables],
                "raw_objectives": [float(v) for v in (s.raw_objectives if s.raw_objectives is not None else s.objectives)],
                "objectives": [float(v) for v in s.objectives],
            }

        data = {
            "problem": {"variant": self.problem.variant, "n_vars": self.problem.n_vars},
            "noise_sigma": self.noise.sigma,
            "evaluator": self.evaluator_label,
            "ga": {
                "pop_size": self.ga.pop_size,
                "generations": self.ga.generations,
                "crossover_prob": self.ga.crossover_prob,
                "mutation_prob": self.ga.mutation_prob,
                "eta_crossover": self.ga.eta_crossover,
                "eta_mutation": self.ga.eta_mutation,
            },
            "seed": self.seed,
            "nondominated": [solution_entry(s) for s in self.nondominated],
            "trace": [
                {
                    "generation": t.generation,
                    "front_size": t.front_size,
                    "front_hypervolume": t.front_hypervolume,
                }
                for t in self.trace
            ],
            "history_length": len(self.history),
        }
        if include_history:
            header, rows = history_rows(self.history)
            data["history"] = {"columns": header, "rows": rows}
        return data


def _rank_population(population: Sequence[Solution]) -> tuple[np.ndarray, np.ndarray]:
    """Front rank and crowding distance of every population member."""
    ranks = np.empty(len(population), dtype=np.int64)
    crowding = np.empty(len(population))
    for rank, front in enumerate(fast_non_dominated_sort(population)):
        ranks[front] = rank
        crowding[front] = crowding_distance([population[i] for i in front])
    return ranks, crowding


def _binary_tournament(ranks: np.ndarray, crowding: np.ndarray, rng: RngStream) -> int:
    """Pick the better of two uniformly drawn indices: rank, crowding, coin."""
    i, j = (int(v) for v in rng.integers(ranks.shape[0], size=2))
    if ranks[i] != ranks[j]:
        return i if ranks[i] < ranks[j] else j
    if crowding[i] != crowding[j]:
        return i if crowding[i] > crowding[j] else j
    return i if rng.coin() else j


def _survival(
    combined: list[Solution], target: int
) -> tuple[list[Solution], np.ndarray, np.ndarray]:
    """Truncate parents plus offspring to ``target`` by rank, then crowding.

    Whole fronts are taken while they fit; the first front that overflows is
    cut by descending crowding distance, ties broken by position, which
    keeps the truncation deterministic.
    """
    chosen: list[int] = []
    ranks: list[int] = []
    crowd: list[float] = []
    for rank, front in enumerate(fast_non_dominated_sort(combined)):
        distances = crowding_distance([combined[i] for i in front])
        if len(chosen) + len(front) <= target:
            chosen.extend(front)
            ranks.extend([rank] * len(front))
            crowd.extend(distances)
        else:
            need = target - len(chosen)
            order = np.argsort(-distances, kind="stable")[:need]
            chosen.extend(front[j] for j in order)
            ranks.extend([rank] * need)
            crowd.extend(distances[j] for j in order)
        if len(chosen) == target:
            break
    return (
        [combined[i] for i in chosen],
        np.array(ranks, dtype=np.int64),
        np.array(crowd),
    )


def _first_front(population: Sequence[Solution], ranks: np.ndarray) -> list[Solution]:
    """The rank-0 members, in population order.

    Ranks come from :func:`_rank_population` or :func:`_survival`, so these
    are exactly the population's non-dominated members: a rank-0 survivor
    is dominated by nobody in the larger set it was ranked in, and a
    survivor of rank r >= 1 was only kept after every earlier front was
    kept whole, so some survivor of rank r - 1 dominates it.
    """
    return [s for s, rank in zip(population, ranks) if rank == 0]


def _generation_stats(
    generation: int, population: Sequence[Solution], ranks: np.ndarray
) -> GenerationStats:
    front = _first_front(population, ranks)
    hv = hypervolume_2d(objectives_matrix(front), DEFAULT_REFERENCE)
    return GenerationStats(generation=generation, front_size=len(front), front_hypervolume=hv)


def run_optimization(
    problem: ZdtProblem,
    noise: NoiseSpec,
    evaluator: Evaluator,
    ga: GaConfig,
    rng: RngStream,
) -> OptimizationResult:
    """Run the full generational loop and return its result.

    The initial population is sampled uniformly from the problem's box.
    Every generation draws exactly ``ga.pop_size`` new solutions, evaluates
    each exactly once through ``evaluator``, and truncates parents plus
    offspring back to ``pop_size``. Total evaluations are therefore
    ``pop_size * (generations + 1)``, which is also the final history
    length. Identical arguments and seed reproduce the result bitwise.
    """
    lower, upper = problem.bounds
    history = EvaluationHistory(problem.n_vars, problem.n_objs)
    initial = lower + (upper - lower) * rng.random((ga.pop_size, problem.n_vars))
    sampled = [evaluate_noisy(problem, noise, x, rng) for x in initial]
    population = evaluator.evaluate(sampled, history)
    ranks, crowding = _rank_population(population)
    trace = [_generation_stats(0, population, ranks)]
    bounds = (lower, upper)
    for generation in range(1, ga.generations + 1):
        child_vars: list[np.ndarray] = []
        for _ in range(ga.pop_size // 2):
            a = _binary_tournament(ranks, crowding, rng)
            b = _binary_tournament(ranks, crowding, rng)
            child_a, child_b = sbx_crossover(
                population[a].variables,
                population[b].variables,
                ga.crossover_prob,
                ga.eta_crossover,
                bounds,
                rng,
            )
            child_vars.append(
                polynomial_mutation(child_a, ga.mutation_prob, ga.eta_mutation, bounds, rng)
            )
            child_vars.append(
                polynomial_mutation(child_b, ga.mutation_prob, ga.eta_mutation, bounds, rng)
            )
        sampled = [evaluate_noisy(problem, noise, x, rng) for x in child_vars]
        offspring = evaluator.evaluate(sampled, history)
        population, ranks, crowding = _survival(population + offspring, ga.pop_size)
        trace.append(_generation_stats(generation, population, ranks))
    return OptimizationResult(
        problem=problem,
        noise=noise,
        evaluator_label=evaluator.label,
        ga=ga,
        seed=rng.seed,
        population=population,
        nondominated=_first_front(population, ranks),
        history=history,
        trace=trace,
    )
