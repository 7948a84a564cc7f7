"""Experiment grid: expansion, execution, persistence, and verdict reports.

A grid is the cross product of problems, dimensions, noise levels and
population sizes (the cells), each cell carrying one plain-noisy baseline
arm plus one arm per averaging setting, repeated with paired seeds. Seeds
are derived by hashing the cell identity and repetition index while leaving
the averaging parameters out, so arm j of repetition r sees exactly the
same stream as the baseline of repetition r; that pairing is what the
signed-rank comparison relies on.

A finished run carries its final non-dominated set as a
:class:`~knnavg.core.Batch`, scored directly on its matrices. Results
persist as an append-only CSV, one row per finished run holding the
indicators and the final set's size, not the set itself. That makes
interrupted grids resumable: already persisted fingerprints are skipped on
the next invocation, provided their rows were produced under the same seed,
reference point and front sample size, and under the random stream that
the directory's ``grid.json`` manifest records. A resume checks all of that
before it writes anything, so a refused resume leaves the directory as it
was.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import itertools
import json
import logging
import os
import time
from contextlib import ExitStack
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .averaging import KnnConfig, history_rows
from .core import STREAM_VERSION, Batch, ContractViolationError, RngStream, as_count, as_seed
from .metrics import (
    DEFAULT_FRONT_SAMPLE_SIZE,
    DEFAULT_REFERENCE,
    MetricReport,
    as_reference,
    compute_report,
)
from .nsga2 import GaConfig, KnnAveraged, OptimizationResult, PlainNoisy, run_optimization
from .problems import NoiseSpec, ZdtProblem
from .stats import METRICS, ComparisonVerdict, Verdict, compare_setting

__all__ = [
    "ARM_BASELINE",
    "ARM_KNN",
    "RESULTS_FILENAME",
    "FAILURES_FILENAME",
    "MANIFEST_FILENAME",
    "HISTORY_DIRNAME",
    "ExperimentGrid",
    "RunConfig",
    "RunResult",
    "GridOutcome",
    "ReportBundle",
    "expand_grid",
    "execute_run",
    "run_grid",
    "load_results",
    "write_history_csv",
    "report",
    "write_report_files",
]

logger = logging.getLogger(__name__)

ARM_BASELINE = "baseline"
ARM_KNN = "knn"

RESULTS_FILENAME = "results.csv"
FAILURES_FILENAME = "failures.csv"
MANIFEST_FILENAME = "grid.json"
HISTORY_DIRNAME = "histories"

_RESULT_COLUMNS = [
    "fingerprint",
    "problem",
    "n_vars",
    "sigma",
    "pop_size",
    "generations",
    "arm",
    "k",
    "max_dist",
    "rep",
    "seed",
    "hv_mean_adjusted",
    "igd_mean_adjusted",
    "delta_f",
    "ref_f1",
    "ref_f2",
    "front_sample_size",
    "final_set_size",
    "duration_s",
]

POOLED_SCOPE = "all"


@dataclass(frozen=True, eq=False)
class ExperimentGrid:
    """Factor levels of one experiment campaign.

    Every combination of problem, dimension, noise level and population
    size forms a cell; each cell runs one baseline arm and one arm per
    (k, max_dist) averaging setting, each repeated ``repetitions`` times.
    Each level is checked by the type that runs it and stored in that
    type's canonical form: problem names are lower-cased, so ``"ZDT1"`` and
    ``"zdt1"`` name one cell with one seed.
    """

    problems: tuple[str, ...]
    n_vars_list: tuple[int, ...]
    sigmas: tuple[float, ...]
    pop_sizes: tuple[int, ...]
    ks: tuple[int, ...]
    max_dists: tuple[float, ...]
    repetitions: int = 30
    generations: int = 100
    base_seed: int = 0

    def __post_init__(self) -> None:
        generations = as_count(self.generations, "generations", 1)
        # the other argument of each type is any value it accepts
        canonical = {
            "problems": lambda p: ZdtProblem(p, 2).variant,
            "n_vars_list": lambda n: ZdtProblem("zdt1", n).n_vars,
            "sigmas": lambda s: NoiseSpec(s).sigma,
            "pop_sizes": lambda p: GaConfig(pop_size=p, generations=generations).pop_size,
            "ks": lambda k: KnnConfig(k=k, max_dist=1.0).k,
            "max_dists": lambda m: KnnConfig(k=1, max_dist=m).max_dist,
        }
        for name, cast in canonical.items():
            values = tuple(cast(v) for v in getattr(self, name))
            if not values:
                raise ContractViolationError(f"{name} must be non-empty")
            object.__setattr__(self, name, values)
        object.__setattr__(self, "repetitions", as_count(self.repetitions, "repetitions", 1))
        object.__setattr__(self, "generations", generations)
        object.__setattr__(self, "base_seed", as_seed(self.base_seed, "base_seed"))

    @property
    def cell_count(self) -> int:
        return (
            len(self.problems) * len(self.n_vars_list) * len(self.sigmas) * len(self.pop_sizes)
        )

    @property
    def settings_per_cell(self) -> int:
        return len(self.ks) * len(self.max_dists)

    @property
    def total_run_count(self) -> int:
        """All runs including the baseline arm of every cell."""
        return self.cell_count * (self.settings_per_cell + 1) * self.repetitions


def _pairing_seed(
    base_seed: int, problem: str, n_vars: int, sigma: float, pop_size: int, generations: int, rep: int
) -> int:
    """Seed shared by all arms of one cell and repetition.

    Hash of the cell identity and repetition index, folded to 63 bits. The
    averaging parameters are deliberately left out so every arm of a
    repetition replays the same random stream as its baseline.
    """
    key = f"{base_seed}|{problem}|{n_vars}|{float(sigma)!r}|{pop_size}|{generations}|{rep}"
    digest = hashlib.sha256(key.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True, eq=False)
class RunConfig:
    """One executable run: a cell, an arm, a repetition and its seed."""

    problem: str
    n_vars: int
    sigma: float
    pop_size: int
    generations: int
    arm: str
    k: int | None
    max_dist: float | None
    rep: int
    seed: int

    def __post_init__(self) -> None:
        if self.arm not in (ARM_BASELINE, ARM_KNN):
            raise ContractViolationError(f"unknown arm {self.arm!r}")
        if self.arm == ARM_KNN and (self.k is None or self.max_dist is None):
            raise ContractViolationError("averaging arm needs k and max_dist")
        if self.arm == ARM_BASELINE and not (self.k is None and self.max_dist is None):
            raise ContractViolationError("baseline arm must not carry k or max_dist")

    @property
    def fingerprint(self) -> str:
        """Stable identity string; equal configs persist under equal names."""
        cell = (
            f"{self.problem}-n{self.n_vars}-s{float(self.sigma)!r}"
            f"-p{self.pop_size}-g{self.generations}"
        )
        if self.arm == ARM_BASELINE:
            return f"{cell}-baseline-r{self.rep}"
        return f"{cell}-knn-k{self.k}-md{float(self.max_dist)!r}-r{self.rep}"

    @property
    def cell(self) -> tuple:
        return (self.problem, self.n_vars, self.sigma, self.pop_size, self.generations)


def expand_grid(grid: ExperimentGrid) -> list[RunConfig]:
    """All runs of the grid in a deterministic order.

    Cells are enumerated lexicographically over (problem, n_vars, sigma,
    pop_size); within a cell the baseline arm comes first, then the
    averaging settings in (k, max_dist) order, repetitions innermost.
    """
    arms = [(ARM_BASELINE, None, None)] + [
        (ARM_KNN, k, max_dist) for k in grid.ks for max_dist in grid.max_dists
    ]
    cells = itertools.product(grid.problems, grid.n_vars_list, grid.sigmas, grid.pop_sizes)
    return [
        RunConfig(
            problem=problem, n_vars=n_vars, sigma=sigma, pop_size=pop_size,
            generations=grid.generations, arm=arm, k=k, max_dist=max_dist, rep=rep,
            seed=_pairing_seed(
                grid.base_seed, problem, n_vars, sigma, pop_size, grid.generations, rep
            ),
        )
        for problem, n_vars, sigma, pop_size in cells
        for arm, k, max_dist in arms
        for rep in range(grid.repetitions)
    ]


@dataclass(eq=False)
class RunResult:
    """One finished run: its config, final solution set, and indicators.

    Results loaded back from CSV carry ``final_set=None``: the results table
    persists the indicator values and ``final_set_size``, not the set.
    """

    config: RunConfig
    final_set: Batch | None
    final_set_size: int
    metrics: MetricReport
    duration_s: float
    optimization: OptimizationResult | None = None


def execute_run(
    config: RunConfig,
    reference: tuple[float, float] = DEFAULT_REFERENCE,
    front_sample_size: int = DEFAULT_FRONT_SAMPLE_SIZE,
    keep_optimization: bool = False,
) -> RunResult:
    """Execute one run from scratch and score it."""
    reference = as_reference(reference)
    front_sample_size = as_count(front_sample_size, "front sample size", 2)
    problem = ZdtProblem(config.problem, config.n_vars)
    noise = NoiseSpec(config.sigma)
    if config.arm == ARM_BASELINE:
        evaluator = PlainNoisy()
    else:
        evaluator = KnnAveraged(KnnConfig(k=config.k, max_dist=config.max_dist))
    ga = GaConfig(pop_size=config.pop_size, generations=config.generations)
    started = time.perf_counter()
    outcome = run_optimization(problem, noise, evaluator, ga, RngStream(config.seed))
    duration = time.perf_counter() - started
    metrics = compute_report(
        outcome.nondominated, problem, noise,
        reference=reference, front_sample_size=front_sample_size,
    )
    return RunResult(
        config=config,
        final_set=outcome.nondominated,
        final_set_size=len(outcome.nondominated),
        metrics=metrics,
        duration_s=duration,
        optimization=outcome if keep_optimization else None,
    )


def _result_row(result: RunResult) -> dict[str, str]:
    cfg = result.config
    m = result.metrics
    return {
        "fingerprint": cfg.fingerprint,
        "problem": cfg.problem,
        "n_vars": str(cfg.n_vars),
        "sigma": repr(float(cfg.sigma)),
        "pop_size": str(cfg.pop_size),
        "generations": str(cfg.generations),
        "arm": cfg.arm,
        "k": "" if cfg.k is None else str(cfg.k),
        "max_dist": "" if cfg.max_dist is None else repr(float(cfg.max_dist)),
        "rep": str(cfg.rep),
        "seed": str(cfg.seed),
        "hv_mean_adjusted": repr(m.hv_mean_adjusted),
        "igd_mean_adjusted": repr(m.igd_mean_adjusted),
        "delta_f": repr(m.delta_f),
        "ref_f1": repr(m.reference_point[0]),
        "ref_f2": repr(m.reference_point[1]),
        "front_sample_size": str(m.front_sample_size),
        "final_set_size": str(result.final_set_size),
        "duration_s": repr(result.duration_s),
    }


def _row_to_result(row: dict[str, str]) -> RunResult:
    config = RunConfig(
        problem=row["problem"], n_vars=int(row["n_vars"]), sigma=float(row["sigma"]),
        pop_size=int(row["pop_size"]), generations=int(row["generations"]), arm=row["arm"],
        k=int(row["k"]) if row["k"] else None,
        max_dist=float(row["max_dist"]) if row["max_dist"] else None,
        rep=int(row["rep"]), seed=int(row["seed"]),
    )
    metrics = MetricReport(
        hv_mean_adjusted=float(row["hv_mean_adjusted"]),
        igd_mean_adjusted=float(row["igd_mean_adjusted"]),
        delta_f=float(row["delta_f"]),
        reference_point=(float(row["ref_f1"]), float(row["ref_f2"])),
        front_sample_size=int(row["front_sample_size"]),
    )
    return RunResult(
        config=config,
        final_set=None,
        final_set_size=int(row["final_set_size"]),
        metrics=metrics,
        duration_s=float(row["duration_s"]),
    )


def _parse_results(path: Path, lines: Iterable[str]) -> list[RunResult]:
    """Parse the lines of a results table; a row that does not parse names its line."""
    results: list[RunResult] = []
    reader = csv.DictReader(lines)
    for row in reader:
        try:
            results.append(_row_to_result(row))
        except (KeyError, TypeError, ValueError) as exc:
            raise ContractViolationError(
                f"{path}: line {reader.line_num}: unparsable row ({exc})"
            ) from exc
    return results


def load_results(out_dir: str | Path) -> list[RunResult]:
    """Load all persisted results from a grid output directory.

    A row that does not parse is a contract violation naming its line.
    Resuming the grid drops a last row torn off by a crash mid-write.
    """
    path = Path(out_dir) / RESULTS_FILENAME
    if not path.exists():
        raise ContractViolationError(f"no results table at {path}")
    with path.open(newline="") as handle:
        return _parse_results(path, handle)


def write_history_csv(path: str | Path, optimization: OptimizationResult) -> None:
    """Dump a run's full evaluation history as CSV."""
    header, rows = history_rows(optimization.history)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


class _OutputDir:
    """The output directory of one ``run_grid`` invocation.

    Opening reads and checks everything before it writes anything, so a
    refused directory is left as it was. ``grid.json`` must name this
    package's stream, every complete row of the results table must parse,
    and each persisted run this grid would skip must carry the seed,
    reference point and front sample size this grid would run it with (the
    fingerprint names the cell, arm and repetition only). Only then does it
    write the manifest and cut a last row torn off by a crash mid-write, so
    that run counts as not persisted and runs again; a table with nothing
    left starts over with its header. ``persisted`` maps the fingerprints
    in the table to their results.
    """

    def __init__(
        self, path: Path, configs: Sequence[RunConfig], reference: tuple[float, float],
        front_sample_size: int, include_histories: bool,
    ) -> None:
        self.path = path
        self._include_histories = include_histories
        table = path / RESULTS_FILENAME
        data = table.read_bytes() if table.exists() else b""
        keep = data.rfind(b"\n") + 1
        lines = data[:keep].decode().splitlines()
        manifest = self._check_manifest(has_runs=len(lines) > 1)
        self.persisted = {r.config.fingerprint: r for r in _parse_results(table, lines)}
        for config in configs:
            stored = self.persisted.get(config.fingerprint)
            if stored is None:
                continue
            for column, old, new in (
                ("seed", stored.config.seed, config.seed),
                ("ref_f1/ref_f2", stored.metrics.reference_point, reference),
                ("front_sample_size", stored.metrics.front_sample_size, front_sample_size),
            ):
                if old != new:
                    raise ContractViolationError(
                        f"{table} holds run {config.fingerprint} with {column}={old}, but this "
                        f"grid would run it with {column}={new}; resume with the original "
                        "settings or write to another output directory"
                    )
        path.mkdir(parents=True, exist_ok=True)
        if manifest is not None:
            (path / MANIFEST_FILENAME).write_text(json.dumps(manifest, indent=2) + "\n")
        if keep < len(data):
            logger.warning("dropping a torn last row of %s", table)
            os.truncate(table, keep)
        if keep == 0:
            self._append(RESULTS_FILENAME, _RESULT_COLUMNS)

    def _check_manifest(self, has_runs: bool) -> dict | None:
        """Refuse a manifest that names another stream; returns the manifest still to write."""
        path = self.path / MANIFEST_FILENAME
        current = {"stream_version": STREAM_VERSION, "numpy": np.__version__}
        if not path.exists():
            if has_runs:
                raise ContractViolationError(
                    f"{self.path} holds runs but no {MANIFEST_FILENAME}: they were drawn under "
                    "stream version 1; write to another output directory"
                )
            return current
        try:
            stored = json.loads(path.read_text())
            if not isinstance(stored, dict):
                raise ValueError("not a JSON object")
        except (OSError, ValueError) as exc:
            raise ContractViolationError(f"{path}: unreadable manifest ({exc})") from exc
        differ = sorted(
            k for k in current.keys() | stored.keys() if stored.get(k) != current.get(k)
        )
        if differ:
            raise ContractViolationError(
                f"{path} differs from this package in {', '.join(differ)} ("
                + "; ".join(f"{k} {stored.get(k)!r} there, {current.get(k)!r} here" for k in differ)
                + "); write to another output directory"
            )
        return None

    def _append(self, name: str, row: Iterable[str], header: Sequence[str] = ()) -> None:
        """Append one row to a table of the directory, after ``header`` if the table is new."""
        with (self.path / name).open("a", newline="") as handle:
            writer = csv.writer(handle)
            if header and not handle.tell():
                writer.writerow(header)
            writer.writerow(row)

    def append(self, result: RunResult) -> None:
        self._append(RESULTS_FILENAME, _result_row(result).values())

    def append_failure(self, config: RunConfig, message: str) -> None:
        self._append(FAILURES_FILENAME, [config.fingerprint, message], ["fingerprint", "error"])

    def history_path(self, config: RunConfig) -> str | None:
        if not self._include_histories:
            return None
        return str(self.path / HISTORY_DIRNAME / f"{config.fingerprint}.csv")


def _grid_worker(
    config: RunConfig,
    reference: tuple[float, float],
    front_sample_size: int,
    history_path: str | None,
) -> RunResult:
    result = execute_run(
        config, reference=reference, front_sample_size=front_sample_size,
        keep_optimization=history_path is not None,
    )
    if history_path is not None and result.optimization is not None:
        write_history_csv(history_path, result.optimization)
        result.optimization = None  # keep the cross-process payload small
    return result


def _attempt(*task) -> RunResult | Exception:
    """Run one grid task in this process; what it raises is its outcome, as from a pool."""
    try:
        return _grid_worker(*task)
    except Exception as exc:  # noqa: BLE001 - grid isolation
        return exc


@dataclass(eq=False)
class GridOutcome:
    """Everything one ``run_grid`` invocation produced.

    ``results`` holds only the runs executed by this invocation; runs
    skipped on resume stay on disk and come back via ``load_results``.
    ``unfinished`` counts the runs left without a result because a worker
    process died and broke the pool; a resume runs them.
    """

    results: list[RunResult]
    failures: list[tuple[RunConfig, str]] = field(default_factory=list)
    skipped: int = 0
    unfinished: int = 0


def run_grid(
    grid: ExperimentGrid,
    parallelism: int = 1,
    out_dir: str | Path | None = None,
    reference: tuple[float, float] = DEFAULT_REFERENCE,
    front_sample_size: int = DEFAULT_FRONT_SAMPLE_SIZE,
    include_histories: bool = False,
) -> GridOutcome:
    """Execute every pending run of the grid.

    The total run count is logged before execution starts. With an output
    directory, its checks come before its writes: a manifest naming another
    stream, an unparsable row, or a persisted run whose seed, reference
    point or front sample size differs from this grid's is a contract
    violation, raised before anything runs or is written. Every finished
    run is appended to the results table at once (a single writer in the
    coordinating process), so crashes lose at most the in-flight runs; on
    re-invocation, runs whose fingerprints are already persisted are
    skipped. Runs execute in this process at ``parallelism`` 1, otherwise
    on at most one worker process per pending run. A failing run is
    recorded and does not stop the rest of the grid. A worker process that
    dies (killed by the OS, say) breaks the pool: the runs finished until
    then stay persisted, the others are counted as unfinished, not as
    failures, and one log line says how many there are.
    ``include_histories`` additionally writes one history CSV per run and
    requires an output directory.
    """
    parallelism = as_count(parallelism, "parallelism", 1)
    reference = as_reference(reference)
    front_sample_size = as_count(front_sample_size, "front sample size", 2)
    if include_histories and out_dir is None:
        raise ContractViolationError("history dumps need an output directory")
    configs = expand_grid(grid)
    logger.info(
        "expanded grid: %d runs (%d cells x %d averaging settings + baseline, %d repetitions)",
        len(configs), grid.cell_count, grid.settings_per_cell, grid.repetitions,
    )
    directory = None
    if out_dir is not None:
        directory = _OutputDir(
            Path(out_dir), configs, reference, front_sample_size, include_histories
        )
    pending = [c for c in configs if directory is None or c.fingerprint not in directory.persisted]
    skipped = len(configs) - len(pending)
    if skipped:
        logger.info("resume: %d runs already persisted, %d to go", skipped, len(pending))
    tasks = [
        (c, reference, front_sample_size, directory.history_path(c) if directory else None)
        for c in pending
    ]
    results: list[RunResult] = []
    failures: list[tuple[RunConfig, str]] = []
    unfinished = 0
    with ExitStack() as stack:
        if parallelism == 1 or not tasks:
            outcomes = ((task[0], _attempt(*task)) for task in tasks)
        else:
            workers = min(parallelism, len(tasks))
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            futures = {pool.submit(_grid_worker, *task): task[0] for task in tasks}
            # a future holds either its result or what the worker raised
            outcomes = ((futures[f], f.exception() or f.result()) for f in as_completed(futures))
        for config, outcome in outcomes:
            if isinstance(outcome, RunResult):
                results.append(outcome)
                if directory is not None:
                    directory.append(outcome)
            elif isinstance(outcome, BrokenProcessPool):
                unfinished += 1
            elif isinstance(outcome, Exception):
                message = f"{type(outcome).__name__}: {outcome}"
                failures.append((config, message))
                logger.error("run %s failed: %s", config.fingerprint, message)
                if directory is not None:
                    directory.append_failure(config, message)
            else:
                raise outcome  # a worker stopped by KeyboardInterrupt or SystemExit
    if unfinished:
        logger.error(
            "a worker process died and broke the pool: %d runs were not attempted or "
            "did not finish; finished runs are persisted and a resume runs the rest",
            unfinished,
        )
    order = {c.fingerprint: i for i, c in enumerate(configs)}
    results.sort(key=lambda r: order[r.config.fingerprint])
    return GridOutcome(
        results=results, failures=failures, skipped=skipped, unfinished=unfinished
    )


@dataclass(eq=False)
class ReportBundle:
    """Verdict tables of one experiment, per noise level and pooled.

    ``tables`` maps a scope label (one per sigma, plus the pooled scope) to
    an ordered mapping from (k, max_dist) to the per-metric verdicts.
    ``text`` is the rendered table, ``verdict_rows`` and ``plot_rows`` are
    CSV-ready dictionaries.
    """

    tables: dict[str, dict[tuple[int, float], dict[str, ComparisonVerdict]]]
    text: str
    verdict_rows: list[dict[str, str]]
    plot_rows: list[dict[str, str]]


_VERDICT_SYMBOLS = {Verdict.BETTER: "✓", Verdict.EQUIVALENT: "≡", Verdict.WORSE: "✗"}
_METRIC_HEADERS = {"hv": "HV", "igd": "IGD", "delta_f": "Δf"}


def report(results: Sequence[RunResult], alpha: float = 0.05) -> ReportBundle:
    """Compare every averaging setting against the baseline, per noise level.

    Runs are paired on (cell, repetition): each averaging run needs the
    baseline run of the same cell and repetition, and a missing partner is
    a contract violation naming the missing fingerprints. Verdicts are
    produced per sigma and pooled over all sigmas, for each of the three
    metrics.
    """
    if not results:
        raise ContractViolationError("no results to report on")
    by_fingerprint: dict[str, RunResult] = {}
    for result in results:
        by_fingerprint.setdefault(result.config.fingerprint, result)
    unique = list(by_fingerprint.values())
    references = {r.metrics.reference_point for r in unique}
    if len(references) > 1:
        raise ContractViolationError(
            f"results mix hypervolume reference points: {sorted(references)}"
        )
    baselines: dict[tuple, RunResult] = {}
    knn_runs: dict[tuple[int, float], list[RunResult]] = {}
    for result in unique:
        cfg = result.config
        if cfg.arm == ARM_BASELINE:
            baselines[cfg.cell + (cfg.rep,)] = result
        else:
            knn_runs.setdefault((cfg.k, cfg.max_dist), []).append(result)
    if not knn_runs:
        raise ContractViolationError("results contain no averaging-arm runs to compare")

    sigmas = sorted({r.config.sigma for r in unique})
    settings = sorted(knn_runs)
    tables: dict[str, dict[tuple[int, float], dict[str, ComparisonVerdict]]] = {}
    scopes = [f"sigma={float(s)!r}" for s in sigmas] + [POOLED_SCOPE]

    for scope, sigma in list(zip(scopes, sigmas)) + [(POOLED_SCOPE, None)]:
        scope_table: dict[tuple[int, float], dict[str, ComparisonVerdict]] = {}
        for setting in settings:
            runs = [
                r for r in knn_runs[setting]
                if sigma is None or r.config.sigma == sigma
            ]
            if not runs:
                continue
            runs.sort(key=lambda r: (r.config.cell, r.config.rep))
            missing = [
                dataclasses.replace(r.config, arm=ARM_BASELINE, k=None, max_dist=None).fingerprint
                for r in runs
                if r.config.cell + (r.config.rep,) not in baselines
            ]
            if missing:
                raise ContractViolationError(
                    "missing baseline partners: " + ", ".join(sorted(missing))
                )
            paired_baselines = [baselines[r.config.cell + (r.config.rep,)] for r in runs]
            scope_table[setting] = {
                metric: compare_setting(
                    [r.metrics for r in runs], [r.metrics for r in paired_baselines], metric,
                    alpha=alpha,
                )
                for metric in METRICS
            }
        if scope_table:
            tables[scope] = scope_table

    text = _render_text(tables, scopes, alpha)
    verdict_rows = _verdict_rows(tables)
    plot_rows = _plot_rows(unique)
    return ReportBundle(tables=tables, text=text, verdict_rows=verdict_rows, plot_rows=plot_rows)


def _render_text(tables, scopes, alpha: float) -> str:
    lines = [
        f"Verdicts versus baseline (two-sided signed-rank, alpha={alpha:g}; "
        "direction by A12)",
        "  ✓ averaging better   ≡ no significant difference   ✗ baseline better",
    ]
    if any(
        v.insufficient for table in tables.values() for vs in table.values() for v in vs.values()
    ):
        lines.append("  * fewer than 5 non-zero paired differences; test skipped")
    width = max(
        [len("setting")] + [len(_setting_label(s)) for table in tables.values() for s in table]
    )

    def row(label: str, cells: list[str]) -> str:
        return "  ".join([label.ljust(width)] + [cell.ljust(4) for cell in cells])

    for scope in scopes:
        if scope not in tables:
            continue
        title = "all noise levels pooled" if scope == POOLED_SCOPE else scope
        lines += ["", f"-- {title} --", row("setting", [_METRIC_HEADERS[m] for m in METRICS])]
        for setting, verdicts in tables[scope].items():
            symbols = [
                _VERDICT_SYMBOLS[verdicts[m].verdict] + ("*" if verdicts[m].insufficient else "")
                for m in METRICS
            ]
            lines.append(row(_setting_label(setting), symbols))
    return "\n".join(lines) + "\n"


def _setting_label(setting: tuple[int, float]) -> str:
    k, max_dist = setting
    return f"knn({k}, {max_dist:g})"


def _verdict_rows(tables) -> list[dict[str, str]]:
    rows = []
    for scope, table in tables.items():
        for (k, max_dist), verdicts in table.items():
            for metric, verdict in verdicts.items():
                rows.append(
                    {
                        "scope": scope,
                        "k": str(k),
                        "max_dist": repr(float(max_dist)),
                        "metric": metric,
                        "p_value": repr(verdict.p_value),
                        "a12": repr(verdict.a12),
                        "verdict": verdict.verdict.value,
                        "n_pairs": str(verdict.n_pairs),
                        "insufficient": "1" if verdict.insufficient else "0",
                    }
                )
    return rows


_PLOT_COLUMNS = [
    "fingerprint", "problem", "n_vars", "sigma", "pop_size", "arm", "k", "max_dist", "rep",
    "hv_mean_adjusted", "igd_mean_adjusted", "delta_f",
]


def _plot_rows(results: Sequence[RunResult]) -> list[dict[str, str]]:
    """Per-run metric values, keyed for downstream plotting."""
    rows = [_result_row(r) for r in sorted(results, key=lambda r: r.config.fingerprint)]
    return [{column: row[column] for column in _PLOT_COLUMNS} for row in rows]


def write_report_files(bundle: ReportBundle, out_dir: str | Path) -> None:
    """Write the rendered table and the CSV companions to ``out_dir``."""
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    (out_path / "verdicts.txt").write_text(bundle.text, encoding="utf-8")
    # the row dictionaries carry their columns in file order
    tables = {"verdicts.csv": bundle.verdict_rows, "metrics_long.csv": bundle.plot_rows}
    for name, rows in tables.items():
        with (out_path / name).open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
