"""Experiment grid: expansion, execution, persistence, and verdict reports.

A grid is the cross product of problems, dimensions, noise levels and
population sizes (the cells), each cell carrying one plain-noisy baseline
arm plus one arm per averaging setting, repeated with paired seeds. Seeds
are derived by hashing the cell identity and repetition index while leaving
the averaging parameters out, so arm j of repetition r sees exactly the
same stream as the baseline of repetition r; that pairing is what the
signed-rank comparison relies on.

Results persist as an append-only CSV, one row per finished run, which
makes interrupted grids resumable: already persisted fingerprints are
skipped on the next invocation.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .averaging import KnnConfig, history_rows
from .core import ContractViolationError, RngStream, Solution, as_count
from .metrics import (
    DEFAULT_FRONT_SAMPLE_SIZE,
    DEFAULT_REFERENCE,
    MetricReport,
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
        def as_tuple(name, cast):
            raw = getattr(self, name)
            values = tuple(cast(v) for v in raw)
            if not values:
                raise ContractViolationError(f"{name} must be non-empty")
            object.__setattr__(self, name, values)
            return values

        problems = as_tuple("problems", str)
        for p in problems:
            ZdtProblem(p, 2)  # validates the variant name
        as_tuple("n_vars_list", lambda n: as_count(n, "every n_vars", 2))
        for s in as_tuple("sigmas", float):
            if s < 0.0 or not np.isfinite(s):
                raise ContractViolationError("every sigma must be finite and non-negative")
        for p in as_tuple("pop_sizes", lambda p: as_count(p, "every pop_size", 2)):
            if p % 2 != 0:
                raise ContractViolationError("every pop_size must be even and at least 2")
        as_tuple("ks", lambda k: as_count(k, "every k", 1))
        for m in as_tuple("max_dists", float):
            if m <= 0.0 or not np.isfinite(m):
                raise ContractViolationError("every max_dist must be finite and positive")
        object.__setattr__(self, "repetitions", as_count(self.repetitions, "repetitions", 1))
        object.__setattr__(self, "generations", as_count(self.generations, "generations", 1))
        seed = int(self.base_seed)
        if not 0 <= seed < 2**64:
            raise ContractViolationError("base_seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "base_seed", seed)

    @property
    def cell_count(self) -> int:
        return (
            len(self.problems) * len(self.n_vars_list) * len(self.sigmas) * len(self.pop_sizes)
        )

    @property
    def settings_per_cell(self) -> int:
        return len(self.ks) * len(self.max_dists)

    @property
    def knn_run_count(self) -> int:
        """Averaging-arm runs only, the usual headline number."""
        return self.cell_count * self.settings_per_cell * self.repetitions

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
    configs: list[RunConfig] = []
    for problem in grid.problems:
        for n_vars in grid.n_vars_list:
            for sigma in grid.sigmas:
                for pop_size in grid.pop_sizes:
                    def seeded(arm: str, k: int | None, max_dist: float | None) -> None:
                        for rep in range(grid.repetitions):
                            configs.append(
                                RunConfig(
                                    problem=problem,
                                    n_vars=n_vars,
                                    sigma=sigma,
                                    pop_size=pop_size,
                                    generations=grid.generations,
                                    arm=arm,
                                    k=k,
                                    max_dist=max_dist,
                                    rep=rep,
                                    seed=_pairing_seed(
                                        grid.base_seed, problem, n_vars, sigma,
                                        pop_size, grid.generations, rep,
                                    ),
                                )
                            )

                    seeded(ARM_BASELINE, None, None)
                    for k in grid.ks:
                        for max_dist in grid.max_dists:
                            seeded(ARM_KNN, k, max_dist)
    return configs


@dataclass(eq=False)
class RunResult:
    """One finished run: its config, final solution set, and indicators.

    Results loaded back from CSV carry an empty ``final_set`` because only
    the indicator values are persisted in the results table.
    """

    config: RunConfig
    final_set: list[Solution]
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
        "final_set_size": str(len(result.final_set)),
        "duration_s": repr(result.duration_s),
    }


def _row_to_result(row: dict[str, str]) -> RunResult:
    arm = row["arm"]
    config = RunConfig(
        problem=row["problem"],
        n_vars=int(row["n_vars"]),
        sigma=float(row["sigma"]),
        pop_size=int(row["pop_size"]),
        generations=int(row["generations"]),
        arm=arm,
        k=int(row["k"]) if row["k"] else None,
        max_dist=float(row["max_dist"]) if row["max_dist"] else None,
        rep=int(row["rep"]),
        seed=int(row["seed"]),
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
        final_set=[],
        metrics=metrics,
        duration_s=float(row["duration_s"]),
    )


def load_results(out_dir: str | Path) -> list[RunResult]:
    """Load all persisted results from a grid output directory.

    A row that does not parse is a contract violation naming its line.
    Resuming the grid drops a last row torn off by a crash mid-write.
    """
    path = Path(out_dir) / RESULTS_FILENAME
    if not path.exists():
        raise ContractViolationError(f"no results table at {path}")
    results: list[RunResult] = []
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            try:
                results.append(_row_to_result(row))
            except (KeyError, TypeError, ValueError) as exc:
                raise ContractViolationError(
                    f"{path}: line {reader.line_num}: unparsable row ({exc})"
                ) from exc
    return results


def write_history_csv(path: str | Path, optimization: OptimizationResult) -> None:
    """Dump a run's full evaluation history as CSV."""
    header, rows = history_rows(optimization.history)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) for v in row])


class _ResultsWriter:
    """Single append-only writer for the shared results table.

    ``persisted`` holds the fingerprints already in the table. A crash
    mid-write can leave a partial last line. Opening cuts the table back to
    its last line end, so that run counts as not persisted and runs again;
    a table with nothing left starts over with its header.
    """

    def __init__(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        self.path = out_dir / RESULTS_FILENAME
        data = self.path.read_bytes() if self.path.exists() else b""
        keep = data.rfind(b"\n") + 1
        if keep < len(data):
            logger.warning("dropping a torn last row of %s", self.path)
            os.truncate(self.path, keep)
        self.persisted = {
            row["fingerprint"] for row in csv.DictReader(data[:keep].decode().splitlines())
        }
        self._handle = self.path.open("a", newline="")
        self._writer = csv.DictWriter(self._handle, fieldnames=_RESULT_COLUMNS)
        if keep == 0:
            self._writer.writeheader()
            self._handle.flush()

    def append(self, result: RunResult) -> None:
        self._writer.writerow(_result_row(result))
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()


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


@dataclass(eq=False)
class GridOutcome:
    """Everything one ``run_grid`` invocation produced.

    ``results`` holds only the runs executed by this invocation; runs
    skipped on resume stay on disk and come back via ``load_results``.
    """

    results: list[RunResult]
    failures: list[tuple[RunConfig, str]] = field(default_factory=list)
    skipped: int = 0
    total: int = 0


def run_grid(
    grid: ExperimentGrid,
    parallelism: int = 1,
    out_dir: str | Path | None = None,
    reference: tuple[float, float] = DEFAULT_REFERENCE,
    front_sample_size: int = DEFAULT_FRONT_SAMPLE_SIZE,
    include_histories: bool = False,
    on_result: Callable[[RunResult], None] | None = None,
) -> GridOutcome:
    """Execute every pending run of the grid.

    The total run count is logged before execution starts. With an output
    directory, every finished run is appended to the results table
    immediately (a single writer in the coordinating process), so crashes
    lose at most the in-flight runs; on re-invocation, runs whose
    fingerprints are already persisted are skipped. A failing run is
    recorded and does not stop the rest of the grid. ``include_histories``
    additionally writes one history CSV per run and requires an output
    directory.
    """
    if parallelism < 1:
        raise ContractViolationError("parallelism must be at least 1")
    if include_histories and out_dir is None:
        raise ContractViolationError("history dumps need an output directory")
    configs = expand_grid(grid)
    logger.info(
        "expanded grid: %d runs (%d cells x %d averaging settings + baseline, %d repetitions)",
        len(configs), grid.cell_count, grid.settings_per_cell, grid.repetitions,
    )
    writer: _ResultsWriter | None = None
    done: set[str] = set()
    out_path: Path | None = None
    if out_dir is not None:
        out_path = Path(out_dir)
        writer = _ResultsWriter(out_path)
        done = writer.persisted
    pending = [c for c in configs if c.fingerprint not in done]
    skipped = len(configs) - len(pending)
    if skipped:
        logger.info("resume: %d runs already persisted, %d to go", skipped, len(pending))

    def history_path(config: RunConfig) -> str | None:
        if not include_histories or out_path is None:
            return None
        return str(out_path / HISTORY_DIRNAME / f"{config.fingerprint}.csv")

    order = {c.fingerprint: i for i, c in enumerate(configs)}
    results: list[RunResult] = []
    failures: list[tuple[RunConfig, str]] = []

    def record(result: RunResult) -> None:
        results.append(result)
        if writer is not None:
            writer.append(result)
        if on_result is not None:
            on_result(result)

    def record_failure(config: RunConfig, message: str) -> None:
        failures.append((config, message))
        logger.error("run %s failed: %s", config.fingerprint, message)
        if out_path is not None:
            failure_path = out_path / FAILURES_FILENAME
            fresh = not failure_path.exists()
            with failure_path.open("a", newline="") as handle:
                fw = csv.writer(handle)
                if fresh:
                    fw.writerow(["fingerprint", "error"])
                fw.writerow([config.fingerprint, message])

    try:
        if parallelism == 1:
            for config in pending:
                try:
                    record(
                        _grid_worker(config, reference, front_sample_size, history_path(config))
                    )
                except Exception as exc:  # noqa: BLE001 - grid isolation
                    record_failure(config, f"{type(exc).__name__}: {exc}")
        else:
            with ProcessPoolExecutor(max_workers=parallelism) as pool:
                futures = {
                    pool.submit(
                        _grid_worker, config, reference, front_sample_size, history_path(config)
                    ): config
                    for config in pending
                }
                remaining = set(futures)
                while remaining:
                    finished, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                    for future in finished:
                        config = futures[future]
                        try:
                            record(future.result())
                        except Exception as exc:  # noqa: BLE001 - grid isolation
                            record_failure(config, f"{type(exc).__name__}: {exc}")
    finally:
        if writer is not None:
            writer.close()
    results.sort(key=lambda r: order[r.config.fingerprint])
    return GridOutcome(results=results, failures=failures, skipped=skipped, total=len(configs))


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


def _scope_label(sigma: float) -> str:
    return f"sigma={float(sigma)!r}"


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
    scopes = [_scope_label(s) for s in sigmas] + [POOLED_SCOPE]
    insufficient_seen = False

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
                RunConfig(
                    problem=r.config.problem, n_vars=r.config.n_vars, sigma=r.config.sigma,
                    pop_size=r.config.pop_size, generations=r.config.generations,
                    arm=ARM_BASELINE, k=None, max_dist=None,
                    rep=r.config.rep, seed=r.config.seed,
                ).fingerprint
                for r in runs
                if r.config.cell + (r.config.rep,) not in baselines
            ]
            if missing:
                raise ContractViolationError(
                    "missing baseline partners: " + ", ".join(sorted(missing))
                )
            paired_baselines = [baselines[r.config.cell + (r.config.rep,)] for r in runs]
            verdicts: dict[str, ComparisonVerdict] = {}
            for metric in METRICS:
                verdict = compare_setting(
                    [r.metrics for r in runs],
                    [r.metrics for r in paired_baselines],
                    metric,
                    alpha=alpha,
                    k=setting[0],
                    max_dist=setting[1],
                )
                verdicts[metric] = verdict
                insufficient_seen = insufficient_seen or verdict.insufficient
            scope_table[setting] = verdicts
        if scope_table:
            tables[scope] = scope_table

    text = _render_text(tables, scopes, alpha, insufficient_seen)
    verdict_rows = _verdict_rows(tables)
    plot_rows = _plot_rows(unique)
    return ReportBundle(tables=tables, text=text, verdict_rows=verdict_rows, plot_rows=plot_rows)


def _render_text(tables, scopes, alpha: float, flag_insufficient: bool) -> str:
    lines = [
        f"Verdicts versus baseline (two-sided signed-rank, alpha={alpha:g}; "
        "direction by A12)",
        "  ✓ averaging better   ≡ no significant difference   ✗ baseline better",
    ]
    if flag_insufficient:
        lines.append("  * fewer than 5 non-zero paired differences; test skipped")
    name_width = max(
        (len(_setting_label(s)) for table in tables.values() for s in table), default=12
    )
    name_width = max(name_width, len("setting"))
    for scope in scopes:
        if scope not in tables:
            continue
        title = "all noise levels pooled" if scope == POOLED_SCOPE else scope
        lines.append("")
        lines.append(f"-- {title} --")
        header = "setting".ljust(name_width)
        for metric in METRICS:
            header += "  " + _METRIC_HEADERS[metric].ljust(4)
        lines.append(header)
        for setting, verdicts in tables[scope].items():
            row = _setting_label(setting).ljust(name_width)
            for metric in METRICS:
                verdict = verdicts[metric]
                symbol = _VERDICT_SYMBOLS[verdict.verdict]
                if verdict.insufficient:
                    symbol += "*"
                row += "  " + symbol.ljust(4)
            lines.append(row)
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


def _plot_rows(results: Sequence[RunResult]) -> list[dict[str, str]]:
    """Per-run metric values, keyed for downstream plotting."""
    rows = []
    for result in sorted(results, key=lambda r: r.config.fingerprint):
        cfg = result.config
        rows.append(
            {
                "fingerprint": cfg.fingerprint,
                "problem": cfg.problem,
                "n_vars": str(cfg.n_vars),
                "sigma": repr(float(cfg.sigma)),
                "pop_size": str(cfg.pop_size),
                "arm": cfg.arm,
                "k": "" if cfg.k is None else str(cfg.k),
                "max_dist": "" if cfg.max_dist is None else repr(float(cfg.max_dist)),
                "rep": str(cfg.rep),
                "hv_mean_adjusted": repr(result.metrics.hv_mean_adjusted),
                "igd_mean_adjusted": repr(result.metrics.igd_mean_adjusted),
                "delta_f": repr(result.metrics.delta_f),
            }
        )
    return rows


def write_report_files(bundle: ReportBundle, out_dir: str | Path) -> None:
    """Write the rendered table and the CSV companions to ``out_dir``."""
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    (out_path / "verdicts.txt").write_text(bundle.text, encoding="utf-8")
    with (out_path / "verdicts.csv").open("w", newline="") as handle:
        writer = csv.DictWriter(
            handle,
            fieldnames=[
                "scope", "k", "max_dist", "metric", "p_value",
                "a12", "verdict", "n_pairs", "insufficient",
            ],
        )
        writer.writeheader()
        writer.writerows(bundle.verdict_rows)
    with (out_path / "metrics_long.csv").open("w", newline="") as handle:
        writer = csv.DictWriter(
            handle,
            fieldnames=[
                "fingerprint", "problem", "n_vars", "sigma", "pop_size", "arm",
                "k", "max_dist", "rep",
                "hv_mean_adjusted", "igd_mean_adjusted", "delta_f",
            ],
        )
        writer.writeheader()
        writer.writerows(bundle.plot_rows)
