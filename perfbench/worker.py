"""Benchmark worker: one fresh process per measured step.

Run by ``run.py``, never by hand. Each mode prints one JSON object as its
last stdout line. ``ready`` is the ``time.monotonic()`` reading at which the
imports had finished and the problem and its true front were built;
``run.py`` subtracts its own spawn time from it to get the set-up time.

Modes:
  setup   imports and problem set-up only
  single  one optimization run through ``execute_run``, scored and checked
  check   the k=1 replay contract, plus the persisted grid when ``--grid-dir``
  trace   the workload body once untraced and once traced, spans to ``--work``
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

from workloads import K1_CHECK, Grid, SingleRun, derived_seed, rep_seed, spec_from_json


def _setup(spec: SingleRun | Grid):
    import knnavg
    import knnavg.cli  # noqa: F401 - the grid workload starts here

    problem = knnavg.ZdtProblem(spec.problem, spec.n_vars)
    knnavg.true_front(problem, knnavg.DEFAULT_FRONT_SAMPLE_SIZE)
    return time.monotonic()


def _run_config(spec: SingleRun, seed: int, rep: int = 0):
    from knnavg import RunConfig

    return RunConfig(
        problem=spec.problem, n_vars=spec.n_vars, sigma=spec.sigma,
        pop_size=spec.pop_size, generations=spec.generations, arm=spec.arm,
        k=spec.k, max_dist=spec.max_dist, rep=rep, seed=seed,
    )


def _metric_values(report) -> list[float]:
    return [report.hv_mean_adjusted, report.igd_mean_adjusted, report.delta_f]


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def cmd_setup(spec, args) -> dict:
    return {"ready": _setup(spec)}


def cmd_single(spec: SingleRun, args) -> dict:
    ready = _setup(spec)
    from knnavg import NoiseSpec, ZdtProblem, compute_report, execute_run

    config = _run_config(spec, rep_seed(args.seed, args.rep), args.rep)
    result = execute_run(config, keep_optimization=True)
    again = compute_report(result.final_set, ZdtProblem(spec.problem, spec.n_vars),
                           NoiseSpec(spec.sigma))
    values = _metric_values(result.metrics)
    problems = []
    if not _finite(values):
        problems.append(f"run {config.fingerprint}: non-finite metrics {values}")
    if _metric_values(again) != values:
        problems.append(f"run {config.fingerprint}: rescoring changed the metrics")
    if not result.final_set:
        problems.append(f"run {config.fingerprint}: empty final set")
    history_len = len(result.optimization.history)
    if history_len != spec.evals_per_run:
        problems.append(
            f"run {config.fingerprint}: history holds {history_len} samples, "
            f"expected {spec.evals_per_run}"
        )
    return {
        "ready": ready,
        "run_s": result.duration_s,
        "metrics": values,
        "problems": problems,
    }


def _k1_replay(seed: int) -> list[str]:
    """KnnConfig(k=1) must reproduce the plain arm bitwise on one seed."""
    from knnavg import KnnAveraged, KnnConfig, NoiseSpec, PlainNoisy, RngStream, ZdtProblem
    from knnavg.nsga2 import GaConfig, run_optimization

    spec = K1_CHECK
    problem, noise = ZdtProblem(spec.problem, spec.n_vars), NoiseSpec(spec.sigma)
    ga = GaConfig(pop_size=spec.pop_size, generations=spec.generations)
    check_seed = derived_seed(seed, "k1-replay")
    plain = run_optimization(problem, noise, PlainNoisy(), ga, RngStream(check_seed))
    knn1 = run_optimization(
        problem, noise, KnnAveraged(KnnConfig(k=1, max_dist=spec.max_dist)), ga,
        RngStream(check_seed),
    )
    plain_dict, knn1_dict = plain.to_dict(include_history=True), knn1.to_dict(include_history=True)
    plain_dict.pop("evaluator"), knn1_dict.pop("evaluator")
    if json.dumps(plain_dict) != json.dumps(knn1_dict):
        return [f"k=1 averaging did not replay the plain arm bitwise on seed {check_seed}"]
    return []


def _experiment_grid(spec: Grid, seed: int):
    from knnavg import ExperimentGrid

    return ExperimentGrid(
        problems=spec.problems, n_vars_list=(spec.n_vars,), sigmas=(spec.sigma,),
        pop_sizes=(spec.pop_size,), ks=spec.ks, max_dists=spec.max_dists,
        repetitions=spec.reps, generations=spec.generations,
        base_seed=derived_seed(seed, "grid"),
    )


def _grid_results(spec: Grid, grid_dir: str, seed: int) -> dict:
    """Check a persisted grid against the runs it should hold."""
    from knnavg import expand_grid, load_results

    expected = {c.fingerprint for c in expand_grid(_experiment_grid(spec, seed))}
    started = time.perf_counter()
    results = load_results(grid_dir)
    load_s = time.perf_counter() - started
    problems = []
    persisted = [r.config.fingerprint for r in results]
    if len(expected) != spec.run_count:
        problems.append(f"grid expands to {len(expected)} runs, expected {spec.run_count}")
    if len(persisted) != len(set(persisted)) or set(persisted) != expected:
        problems.append(
            f"persisted {len(persisted)} rows ({len(set(persisted))} distinct fingerprints), "
            f"{len(expected & set(persisted))} of the {len(expected)} expected"
        )
    metrics = [_metric_values(r.metrics) for r in results]
    bad = sum(not _finite(values) for values in metrics)
    if bad:
        problems.append(f"{bad} persisted runs have non-finite metrics")
    return {
        "load_results_s": load_s,
        "durations": [r.duration_s for r in results],
        "metrics": metrics,
        "problems": problems,
    }


def cmd_check(spec, args) -> dict:
    problems = _k1_replay(args.seed)
    out = _grid_results(spec, args.grid_dir, args.seed) if args.grid_dir else {}
    out["problems"] = problems + out.get("problems", [])
    return out


def _single_body(spec: SingleRun, seed: int):
    from knnavg import experiment

    result = experiment.execute_run(_run_config(spec, rep_seed(seed, 0)))
    return {"results": {result.config.fingerprint: _metric_values(result.metrics)},
            "busy_s": result.duration_s}


def _grid_body(spec: Grid, seed: int, out_dir: Path):
    """The grid workload in-process and serial: run, resume, load, report."""
    from knnavg import experiment

    grid = _experiment_grid(spec, seed)
    first = experiment.run_grid(grid, parallelism=1, out_dir=out_dir, include_histories=True)
    resumed = experiment.run_grid(grid, parallelism=1, out_dir=out_dir, include_histories=True)
    results = experiment.load_results(out_dir)
    experiment.report(results)
    problems = []
    if first.failures or len(first.results) != spec.run_count:
        problems.append(f"in-process grid executed {len(first.results)} runs, "
                        f"{len(first.failures)} failed")
    if resumed.results or resumed.skipped != spec.run_count:
        problems.append(f"in-process resume executed {len(resumed.results)} runs")
    return {
        "results": {r.config.fingerprint: _metric_values(r.metrics) for r in results},
        "busy_s": sum(r.duration_s for r in results),
        "problems": problems,
    }


def cmd_trace(spec, args) -> dict:
    from tracer import ROOT_SPAN, Tracer

    work = Path(args.work)

    def body(label: str):
        if isinstance(spec, Grid):
            return _grid_body(spec, args.seed, work / label)
        return _single_body(spec, args.seed)

    ready = _setup(spec)
    started = time.perf_counter()
    untraced = body("untraced")
    untraced_s = time.perf_counter() - started

    tracer = Tracer()
    tracer.install()
    try:
        started = time.perf_counter()
        with tracer.span(ROOT_SPAN):
            traced = body("traced")
        traced_s = time.perf_counter() - started
    finally:
        tracer.uninstall()
    tracer.dump(work / "spans.json")

    problems = untraced.get("problems", []) + traced.get("problems", [])
    if untraced["results"] != traced["results"]:
        problems.append("tracing changed the results")
    return {
        "ready": ready,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "busy_s": untraced["busy_s"],
        "igd_adj": statistics.median(v[1] for v in untraced["results"].values()),
        "runs": len(untraced["results"]) + len(traced["results"]),
        "problems": problems,
    }


COMMANDS = {"setup": cmd_setup, "single": cmd_single, "check": cmd_check, "trace": cmd_trace}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(COMMANDS))
    parser.add_argument("--spec", required=True, help="workload spec as JSON")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--grid-dir")
    parser.add_argument("--work")
    args = parser.parse_args()
    spec = spec_from_json(json.loads(args.spec))
    print(json.dumps(COMMANDS[args.mode](spec, args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
