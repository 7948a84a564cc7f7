"""Elitist non-dominated sorting genetic algorithm with pluggable evaluation.

The loop is the classic (mu + lambda) scheme: binary tournaments pick
parents by front rank then crowding, simulated binary crossover and
polynomial mutation produce exactly ``pop_size`` offspring per generation,
and parents plus offspring are truncated back by rank and crowding. What
the selection machinery never sees is how objectives were obtained: an
evaluator, any object with a ``label`` and an ``evaluate(batch, history)``
method, turns freshly sampled solutions into ranked ones, either passing
the noisy sample through (:class:`PlainNoisy`) or replacing it with a
neighborhood average over the run's evaluation history
(:class:`KnnAveraged`). It must be a deterministic function of the batch
and the history, which it records every batch in exactly once: all
randomness lives in the sampling step before it.

:func:`run_stack` advances the runs of one cell and arm together on
(runs, pop_size, .) arrays, and :func:`run_optimization` is its one-run
case. Draw order per run, the same since ``STREAM_VERSION`` 2: the initial
population takes ``random((pop_size, n))``, then its evaluation noise.
Every generation then draws the fixed-shape blocks of
:func:`draw_variation`, whatever the ranks, ties and gates turn out to be,
then its children's evaluation noise, so all arms of a repetition stay at
one stream position. Each run draws only from its own stream, so a run
draws the same values alone or in a stack. Selection, crossover, mutation,
evaluation and ranking then run once on the whole stack.
"""

from __future__ import annotations

import bisect
from dataclasses import asdict, dataclass, field

import numpy as np

from .averaging import EvaluationHistory, KnnConfig, history_rows, knn_evaluate
from .core import (
    Batch,
    ContractViolationError,
    RngStream,
    as_count,
    as_real,
    as_streams,
)
from .metrics import DEFAULT_REFERENCE, hypervolume_2d
from .problems import NoiseSpec, ZdtProblem, evaluate_noisy

__all__ = [
    "GaConfig",
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
    "run_stack",
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


class PlainNoisy:
    """Baseline evaluation: the raw noisy sample is ranked as-is."""

    label = "plain"

    def evaluate(self, batch: Batch, history: EvaluationHistory) -> Batch:
        history.append_batch(batch.variables, batch.raw_objectives)
        return batch


class KnnAveraged:
    """Evaluation through nearest-neighbor averaging of the history."""

    def __init__(self, config: KnnConfig) -> None:
        self.config = config
        self.label = config.label()

    def evaluate(self, batch: Batch, history: EvaluationHistory) -> Batch:
        return knn_evaluate(batch, history, self.config)


def fast_non_dominated_sort(objectives: np.ndarray) -> np.ndarray:
    """Front rank of every row of an (n, 2) objective matrix, or of each matrix of a stack.

    Front 0 is the set of rows dominated by nobody; front j contains rows
    dominated only by members of earlier fronts. Ranks have the shape of
    ``objectives`` without its last axis. Every problem of the package has
    two objectives; any other count, and NaN objectives, are rejected.

    One sort on (f1, f2) and one sweep put each point p into the first
    front whose last member does not dominate it (Jensen, 2003). The ranks
    are exact:
    - every point that dominates p comes before p;
    - in a front f1 rises and f2 falls, but for identical points, so the
      last member holds the front's smallest f2, and the front dominates p
      exactly when that f2 is at most p's and the member is not p's point;
    - these f2 never decrease front by front, so ``bisect_right`` finds p's
      front, and a point identical to the one before it takes its front;
    - -0.0 and 0.0 compare equal, so they are one point to the sort, the
      sweep and Pareto dominance alike.
    """
    objs = np.asarray(objectives, dtype=np.float64)
    if objs.ndim < 2 or objs.shape[-1] != 2:
        raise ContractViolationError(f"expected (..., n, 2) objectives, got shape {objs.shape}")
    if np.isnan(objs).any():
        raise ContractViolationError("objectives must not be NaN")
    stack = objs.reshape(int(np.prod(objs.shape[:-2])), *objs.shape[-2:])
    runs, n = stack.shape[:2]
    order = np.lexsort((stack[..., 1], stack[..., 0]), axis=-1) + n * np.arange(runs)[:, None]
    f1, f2 = np.take(stack.reshape(-1, 2), order, axis=0).transpose(2, 0, 1)
    same = np.zeros(order.shape, dtype=bool)
    same[:, 1:] = (f1[:, 1:] == f1[:, :-1]) & (f2[:, 1:] == f2[:, :-1])
    fronts = []
    for keys, repeats in zip(f2.tolist(), same.tolist()):
        tails = []  # each front's last f2
        for b, repeat in zip(keys, repeats):
            if not repeat:
                k = bisect.bisect_right(tails, b)
                if k == len(tails):
                    tails.append(b)
                else:
                    tails[k] = b
            fronts.append(k)
    ranks = np.empty(runs * n, dtype=np.int64)
    ranks[order.ravel()] = fronts
    return ranks.reshape(objs.shape[:-1])


def crowding_distance(objectives: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Crowding distance of every row within its front, for all fronts at once.

    A front is the rows of one rank within one (n, m) matrix of
    ``objectives`` (n, m) or (..., n, m). Boundary solutions of every
    objective get infinity; interior solutions accumulate the normalized
    span between their neighbors in each objective's sorted order, equal
    values in row order. Fronts of one or two members are all-infinite. An
    objective with zero range on a front contributes nothing to it.
    """
    objs = np.asarray(objectives, dtype=np.float64)
    if objs.ndim < 2:
        raise ContractViolationError(f"expected (..., n, m) objectives, got shape {objs.shape}")
    size, m = objs.shape[-2:]
    if not size:
        raise ContractViolationError("crowding distance of an empty front is undefined")
    flat = objs.reshape(-1, m)
    # one key per (matrix, rank): the fronts of different matrices never mix
    front = np.arange(len(flat)) // size * size + np.asarray(ranks).reshape(-1)
    dist = np.zeros(len(flat))
    # each lexsort below orders by front first, so every objective's fronts sit as in `keys`
    keys, at = np.sort(front), np.arange(len(front))
    edge = keys[1:] != keys[:-1]
    first, last = np.concatenate(([True], edge)), np.concatenate((edge, [True]))
    interior = np.flatnonzero(~(first | last))
    # sorted positions of the first and the last member of each interior row's front
    lo = np.maximum.accumulate(np.where(first, at, 0))[interior]
    hi = np.minimum.accumulate(np.where(last, at, len(at))[::-1])[::-1][interior]
    for vals in flat.T:
        order = np.lexsort((vals, front))
        v = vals[order]
        span = v[hi] - v[lo]
        inner = interior[span > 0.0]
        dist[order[inner]] += (v[inner + 1] - v[inner - 1]) / span[span > 0.0]
        dist[order[first | last]] = np.inf
    return dist.reshape(objs.shape[:-1])


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
    ranks: np.ndarray, crowding: np.ndarray, ga: GaConfig, n_vars: int, rng
) -> VariationDraws:
    """Draw one generation's fixed-shape blocks, in the order written here; pick parents.

    ``rng`` is one stream, or one per run of a stack: ``ranks`` and
    ``crowding`` then hold the runs' populations one after another, each
    stream draws its run's blocks, and blocks and parents go run by run.
    """
    pairs, pop = ga.pop_size // 2, ga.pop_size
    blocks = [
        (s.integers(pop, (pairs, 2, 2)), s.random((pairs, 2)), s.random(pairs),
         s.random((pairs, n_vars)), s.random(pop), s.random((pop, n_vars)), s.random((pop, n_vars)))
        for s in as_streams(rng)
    ]
    candidates, coins, cross_u, u_cross, mutate_u, u_pick, u_mutation = (
        np.concatenate(block) for block in zip(*blocks)
    )
    # each run's tournaments pick from its own population
    candidates += np.arange(0, len(ranks), ga.pop_size).repeat(pairs)[:, None, None]
    parents = tournament_winners(candidates, coins, ranks, crowding)
    return VariationDraws(
        parents, cross_u < ga.crossover_prob, u_cross, mutate_u < ga.mutation_prob, u_pick,
        u_mutation,
    )


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
    pick = np.asarray(mutates, dtype=bool)[:, None] & (np.asarray(u_pick) < (1.0 / x.shape[1]))
    # only the picked genes, about one per row: each gene's arithmetic is its own
    u, genes = np.asarray(u)[pick], x[pick]
    # 1 - (1 - x) is not always x in floating point; the recorded bits need both forms
    frac_high = 1.0 - genes
    power = ETA_MUTATION + 1.0
    exponent = 1.0 / power
    val_low = 2.0 * u + (1.0 - 2.0 * u) * (1.0 - genes) ** power
    val_high = 2.0 * (1.0 - u) + (2.0 * u - 1.0) * (1.0 - frac_high) ** power
    delta = np.where(u < 0.5, val_low**exponent - 1.0, 1.0 - val_high**exponent)
    mutated = x.copy()
    mutated[pick] = np.clip(genes + delta, 0.0, 1.0)
    return mutated


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


def _survival(
    objectives: np.ndarray, target: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncate parents plus offspring to ``target`` by rank, then crowding.

    Each (n, m) matrix of the (runs, n, m) stack is truncated on its own.
    Returns the chosen rows as indices into the stack's runs * n rows, with
    their ranks and crowding distances, each (runs, target). Whole fronts
    are taken while they fit, in row order; the first front that overflows
    is cut by descending crowding distance, ties broken by position: one
    stable sort on rank, then minus crowding within that front.

    The rank-0 survivors are exactly the survivors' non-dominated members:
    a rank-0 survivor is dominated by nobody in the larger set it was ranked
    in, and a survivor of rank r >= 1 was only kept after every earlier
    front was kept whole, so some survivor of rank r - 1 dominates it.
    """
    ranks = fast_non_dominated_sort(objectives)
    crowding = crowding_distance(objectives, ranks)
    # the last survivor's front is cut by crowding only when it does not fit whole
    last = np.sort(ranks, axis=-1)[:, target - 1, None]
    overflows = (ranks <= last).sum(axis=-1, keepdims=True) > target
    key = np.where((ranks == last) & overflows, -crowding, 0.0)
    chosen = np.lexsort((key, ranks), axis=-1)[:, :target]
    chosen += np.arange(0, ranks.size, ranks.shape[1])[:, None]
    return chosen, ranks.ravel()[chosen], crowding.ravel()[chosen]


def run_optimization(
    problem: ZdtProblem,
    noise: NoiseSpec,
    evaluator: PlainNoisy | KnnAveraged,
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
    random stream is consumed in the module's draw-order contract. This is
    :func:`run_stack` with one run.
    """
    (result,) = run_stack(problem, noise, evaluator, ga, [rng])
    return result


def run_stack(
    problem: ZdtProblem, noise: NoiseSpec, evaluator: PlainNoisy | KnnAveraged, ga: GaConfig, rngs
) -> list[OptimizationResult]:
    """Advance one run per stream of ``rngs`` together; return their results in that order.

    The runs share problem, noise, evaluator and GA configuration: one cell
    and arm of a grid. Every step works on their (runs, pop_size, .) arrays
    at once, while each run draws only from its own stream and is averaged
    only over its own history, so run r is bitwise ``run_optimization(...,
    rngs[r])``.
    """
    streams = as_streams(rngs)
    runs, pop, n = len(streams), ga.pop_size, problem.n_vars
    history = EvaluationHistory(n, problem.n_objs, runs)

    def evaluated(variables: np.ndarray) -> list[np.ndarray]:
        batch = evaluator.evaluate(evaluate_noisy(problem, noise, variables, streams), history)
        matrices = (batch.variables, batch.objectives, batch.raw_objectives)
        return [m.reshape(runs, pop, -1) for m in matrices]

    members = evaluated(np.concatenate([stream.random((pop, n)) for stream in streams]))
    ranks = fast_non_dominated_sort(members[1])
    crowding = crowding_distance(members[1], ranks)
    populations, population_ranks = [members[1]], [ranks]
    for _ in range(ga.generations):
        draws = draw_variation(ranks.ravel(), crowding.ravel(), ga, n, streams)
        # np.take gathers rows several times faster than fancy indexing
        parents = np.take(members[0].reshape(runs * pop, n), draws.parents.T, axis=0)
        child_a, child_b = sbx_crossover(*parents, draws.crosses, draws.u_cross)
        # children in pair order: 2p from parent a, 2p + 1 from parent b
        children = np.stack((child_a, child_b), axis=1).reshape(runs * pop, n)
        children = polynomial_mutation(children, draws.mutates, draws.u_pick, draws.u_mutation)
        combined = [np.concatenate(pair, axis=1) for pair in zip(members, evaluated(children))]
        chosen, ranks, crowding = _survival(combined[1], pop)
        members = [np.take(m.reshape(2 * runs * pop, -1), chosen, axis=0) for m in combined]
        populations.append(members[1])
        population_ranks.append(ranks)
    # the trace, (runs, generations + 1): in the f1-then-f2 sweep a dominated point follows
    # one that dominates it, adds an exact +0.0 and never lowers the best f2, so each
    # population's area is bitwise its first front's
    sizes = (np.stack(population_ranks, axis=1) == 0).sum(axis=-1)
    volumes = hypervolume_2d(np.stack(populations, axis=1), DEFAULT_REFERENCE)
    return [
        OptimizationResult(
            problem, noise, evaluator.label, ga, stream.seed,
            population=Batch(*(m[r] for m in members)),
            nondominated=Batch(*(m[r][ranks[r] == 0] for m in members)),
            history=own_history,
            trace=[GenerationStats(g, int(size), float(hv))
                   for g, (size, hv) in enumerate(zip(sizes[r], volumes[r]))],
        )
        for r, (stream, own_history) in enumerate(zip(streams, history.split()))
    ]
