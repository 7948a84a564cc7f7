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
the next invocation, provided their rows were produced under the same seed
and under the random stream that the directory's ``grid.json`` manifest
records. Every run is scored at the one reference point and front sample
size of :mod:`knnavg.metrics`, so no row records them, and a table whose
header differs from the one written here is refused by the columns that
differ. A resume checks all of that before it writes anything, so a refused
resume leaves the directory as it was.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import logging
import os
import time
from collections import Counter
from contextlib import ExitStack
from concurrent.futures import BrokenExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .averaging import KnnConfig, history_rows
from .core import STREAM_VERSION, Batch, ContractViolationError, RngStream, as_count, as_seed
from .metrics import MetricReport, compute_report
from .nsga2 import GaConfig, KnnAveraged, OptimizationResult, PlainNoisy, run_stack
from .problems import NoiseSpec, ZdtProblem
from .stats import ALPHA, METRICS, ComparisonVerdict, Verdict, compare_setting

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
    "execute_stack",
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

POOLED_SCOPE = "all"

# a results table's header, which the writer and the reader share
_RESULT_COLUMNS = (
    "fingerprint", "problem", "n_vars", "sigma", "pop_size", "generations", "arm", "k",
    "max_dist", "rep", "seed", "hv_mean_adjusted", "igd_mean_adjusted", "delta_f",
    "final_set_size", "duration_s",
)


@dataclass(frozen=True, eq=False)
class ExperimentGrid:
    """Factor levels of one experiment campaign.

    Every combination of problem, dimension, noise level and population
    size forms a cell; each cell runs one baseline arm and one arm per
    (k, max_dist) averaging setting, each repeated ``repetitions`` times.
    Each level is checked by the type that runs it and stored in that
    type's canonical form: problem names are lower-cased, so ``"ZDT1"`` and
    ``"zdt1"`` name one cell with one seed, and a level that repeats in that
    form is refused.
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
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ContractViolationError(f"{name} repeats {repeated[0]!r}")
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

    @property
    def stack(self) -> tuple:
        """What the runs of one stack share: the cell and the arm setting."""
        return self.cell + (self.arm, self.k, self.max_dist)


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


def execute_run(config: RunConfig, keep_optimization: bool = False) -> RunResult:
    """Execute one run from scratch and score it: a stack of one run."""
    (result,) = execute_stack([config], keep_optimization)
    return result


def execute_stack(configs: Sequence[RunConfig], keep_optimization: bool = False) -> list[RunResult]:
    """Execute runs of one cell and arm setting as one stack, and score each.

    Each result is bitwise that of executing its run alone; its
    ``duration_s`` is its share of the stack's loop time (time / runs).
    """
    if not configs or any(c.stack != configs[0].stack for c in configs):
        raise ContractViolationError("a stack needs runs that share one cell and arm setting")
    first = configs[0]
    problem = ZdtProblem(first.problem, first.n_vars)
    noise = NoiseSpec(first.sigma)
    knn = first.arm == ARM_KNN
    evaluator = KnnAveraged(KnnConfig(first.k, first.max_dist)) if knn else PlainNoisy()
    ga = GaConfig(pop_size=first.pop_size, generations=first.generations)
    streams = [RngStream(c.seed) for c in configs]  # the first loads numpy.random, untimed
    started = time.perf_counter()
    outcomes = run_stack(problem, noise, evaluator, ga, streams)
    duration = (time.perf_counter() - started) / len(configs)
    return [
        RunResult(
            config, outcome.nondominated, len(outcome.nondominated),
            compute_report(outcome.nondominated, problem, noise), duration,
            outcome if keep_optimization else None,
        )
        for config, outcome in zip(configs, outcomes)
    ]


def _result_row(result: RunResult) -> dict[str, str]:
    cfg = result.config
    m = result.metrics
    return dict(zip(_RESULT_COLUMNS, (
        cfg.fingerprint,
        cfg.problem,
        str(cfg.n_vars),
        repr(float(cfg.sigma)),
        str(cfg.pop_size),
        str(cfg.generations),
        cfg.arm,
        "" if cfg.k is None else str(cfg.k),
        "" if cfg.max_dist is None else repr(float(cfg.max_dist)),
        str(cfg.rep),
        str(cfg.seed),
        repr(m.hv_mean_adjusted),
        repr(m.igd_mean_adjusted),
        repr(m.delta_f),
        str(result.final_set_size),
        repr(result.duration_s),
    ), strict=True))


def _row_to_result(row: dict[str, str]) -> RunResult:
    if None in row:  # csv.DictReader files the fields beyond the header under None
        raise ValueError(f"{len(row[None])} fields beyond the header")
    config = RunConfig(
        problem=row["problem"], n_vars=int(row["n_vars"]), sigma=float(row["sigma"]),
        pop_size=int(row["pop_size"]), generations=int(row["generations"]), arm=row["arm"],
        k=int(row["k"]) if row["k"] else None,
        max_dist=float(row["max_dist"]) if row["max_dist"] else None,
        rep=int(row["rep"]), seed=int(row["seed"]),
    )
    if row["fingerprint"] != config.fingerprint:
        raise ValueError(f"fingerprint {row['fingerprint']} should read {config.fingerprint}")
    metrics = MetricReport(
        hv_mean_adjusted=float(row["hv_mean_adjusted"]),
        igd_mean_adjusted=float(row["igd_mean_adjusted"]),
        delta_f=float(row["delta_f"]),
    )
    return RunResult(
        config=config,
        final_set=None,
        final_set_size=int(row["final_set_size"]),
        metrics=metrics,
        duration_s=float(row["duration_s"]),
    )


def _read_table(path: Path) -> tuple[csv.DictReader, int]:
    """A table's complete rows, and the byte length of a torn tail after them.

    ``csv.writer`` ends a row with ``\\r\\n`` and quotes a field holding a
    quote or a line break, such as a failure message, so a ``\\n`` after an
    odd number of quotes lies inside a field: the complete rows end at the
    last ``\\n`` after an even number. A missing table has no rows; one that
    cannot be read (a directory, say) is refused by its path. A line that is
    not UTF-8 is refused by its number when the rows reach it.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        data = b""
    except OSError as exc:
        raise ContractViolationError(f"cannot read {path}: {exc.strerror}") from exc
    keep = data.rfind(b"\n") + 1
    while data.count(b'"', 0, keep) % 2:  # that line break is inside a quoted field
        keep = data.rfind(b"\n", 0, keep - 1) + 1
    return csv.DictReader(_decoded(path, data[:keep])), len(data) - keep


def _decoded(path: Path, data: bytes):
    """The lines of ``data`` as text; one that is not UTF-8 names its line."""
    for number, line in enumerate(io.BytesIO(data), 1):
        try:
            yield line.decode()
        except UnicodeDecodeError as exc:
            raise ContractViolationError(f"{path}: line {number}: unparsable row ({exc})") from exc


def _parse_results(path: Path, rows: csv.DictReader) -> list[RunResult]:
    """Parse a results table's rows; a row that does not parse, or repeats a run, names its line.

    A header other than :func:`_result_row`'s is refused by the columns that
    differ; one of the same columns is refused by its repeated column, or by
    the first column out of place.
    """
    header = rows.fieldnames
    if header is not None and header != list(_RESULT_COLUMNS):
        missing = [c for c in _RESULT_COLUMNS if c not in header]
        unexpected = [c for c in header if c not in _RESULT_COLUMNS]
        repeated = dict.fromkeys(c for i, c in enumerate(header) if c in header[:i])
        if missing or unexpected:
            why = (f"missing: {', '.join(missing) or 'none'}; "
                   f"unexpected: {', '.join(unexpected) or 'none'}")
        elif repeated:
            why = f"repeated: {', '.join(repeated)}"
        else:
            at = next(i for i, (a, b) in enumerate(zip(header, _RESULT_COLUMNS)) if a != b)
            why = f"column {at + 1} is {header[at]}, not {_RESULT_COLUMNS[at]}"
        raise ContractViolationError(f"{path}: line 1: not this version's results header ({why})")
    seen: dict[str, int] = {}  # fingerprint -> line of its row
    results: list[RunResult] = []
    for row in rows:
        where = f"{path}: line {rows.line_num}"
        try:
            results.append(_row_to_result(row))
        except (TypeError, ValueError) as exc:
            raise ContractViolationError(f"{where}: unparsable row ({exc})") from exc
        fingerprint = results[-1].config.fingerprint
        if fingerprint in seen:
            raise ContractViolationError(f"{where}: {fingerprint} repeats line {seen[fingerprint]}")
        seen[fingerprint] = rows.line_num
    return results


def load_results(out_dir: str | Path) -> list[RunResult]:
    """Load all persisted results from a grid output directory.

    The table ends at its last complete row. A header other than the one
    :func:`run_grid` writes, as in a table of another version, is a contract
    violation naming the columns that differ. A row that does not parse or
    repeats a run is one naming its line, and so is a last row torn off by a
    crash mid-write: resuming the grid cuts it and runs that run again.
    """
    path = Path(out_dir) / RESULTS_FILENAME
    if not path.exists():
        raise ContractViolationError(f"no results table at {path}")
    rows, torn = _read_table(path)
    results = _parse_results(path, rows)
    if torn:
        raise ContractViolationError(
            f"{path}: line {rows.line_num + 1}: torn last row; resume the grid to cut it"
        )
    return results


def _write_rows(path: Path, rows: Sequence[dict[str, str]], mode: str = "w") -> None:
    """Write ``rows`` keyed in column order, after a header of their keys if the table is empty."""
    with path.open(mode, newline="") as handle:
        writer = csv.writer(handle)
        if not handle.tell():
            writer.writerow(rows[0].keys())
        writer.writerows(row.values() for row in rows)


def write_history_csv(path: str | Path, optimization: OptimizationResult) -> None:
    """Dump a run's full evaluation history as CSV, in the bytes ``csv.writer`` writes.

    The fields are joined directly because that is faster: a 1,010-row
    desk history (pop 10, 100 generations) took a median 9.0-9.8 ms joined
    and 11.3-13.0 ms through ``csv.writer``, in the same bytes (60
    alternating calls, 2-vCPU Xeon VM), and the ``grid-desk`` benchmark
    writes 90 histories per pass. The join gives those bytes because no
    field needs quoting and ints and floats are their round-tripping
    ``repr``.
    """
    header, rows = history_rows(optimization.history)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def _open_grid_dir(
    path: Path, configs: Sequence[RunConfig], histories: bool
) -> dict[str, RunResult]:
    """Open the output directory of one ``run_grid`` invocation; returns its runs by fingerprint.

    Everything is read and checked before anything is written, so a refused
    directory is left as it was: the complete rows of the results table
    must parse, ``grid.json`` must name this package's stream, and each
    persisted run this grid would skip must carry the seed it would run
    with (a fingerprint names only the cell, arm and repetition). Then the
    directory is made, with its ``histories`` directory if ``histories``,
    the manifest is written and a torn tail cut off each table, so a torn
    run runs again, the next row starts on a line of its own, and a table
    cut inside its header starts over.
    """
    results, failures = path / RESULTS_FILENAME, path / FAILURES_FILENAME
    rows, torn = _read_table(results)
    persisted = {r.config.fingerprint: r for r in _parse_results(results, rows)}
    tails = {results: torn, failures: _read_table(failures)[1]}
    manifest = _check_manifest(path, has_runs=bool(persisted))
    for config in (c for c in configs if c.fingerprint in persisted):
        old = persisted[config.fingerprint].config.seed
        if old != config.seed:
            raise ContractViolationError(
                f"{results} holds run {config.fingerprint} with seed={old}, but this grid "
                f"would run it with seed={config.seed}; resume with the original settings "
                "or write to another output directory"
            )
    try:
        path.mkdir(parents=True, exist_ok=True)
        if histories:
            (path / HISTORY_DIRNAME).mkdir(exist_ok=True)
        if manifest is not None:
            (path / MANIFEST_FILENAME).write_text(json.dumps(manifest, indent=2) + "\n")
        for table, torn in tails.items():
            if torn:
                logger.warning("dropping a torn last row of %s", table)
                os.truncate(table, table.stat().st_size - torn)
    except OSError as exc:
        raise ContractViolationError(f"cannot write {exc.filename}: {exc.strerror}") from exc
    return persisted


def _check_manifest(directory: Path, has_runs: bool) -> dict | None:
    """Refuse a manifest that names another stream; returns the manifest still to write."""
    path = directory / MANIFEST_FILENAME
    current = {"stream_version": STREAM_VERSION, "numpy": np.__version__}
    if not path.exists():
        if has_runs:
            raise ContractViolationError(
                f"{directory} holds runs but no {MANIFEST_FILENAME}: the stream they were "
                "drawn under is unknown; write to another output directory"
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


def _grid_worker(configs: list[RunConfig], histories: Path | None) -> list[RunResult | Exception]:
    """Execute one stack of a grid; returns each run's result, or the exception that stopped it.

    A stack that raises is rerun here one run at a time, so a failure stays
    with its run. With a ``histories`` directory, each run's history CSV is
    written there as ``<fingerprint>.csv``.
    """
    try:
        results = execute_stack(configs, keep_optimization=histories is not None)
        for result in results:
            if histories is not None:
                write_history_csv(histories / f"{result.config.fingerprint}.csv",
                                  result.optimization)
            result.optimization = None  # keep the cross-process payload small
        return results
    except Exception as exc:  # noqa: BLE001 - grid isolation
        if len(configs) == 1:
            return [exc]
        logger.warning("a stack of %d runs failed (%r); running them one at a time",
                       len(configs), exc)
        return [outcome for config in configs for outcome in _grid_worker([config], histories)]


def _process_pool(workers: int):
    """A pool of ``workers`` processes.

    The pool machinery (``multiprocessing``, sockets, subprocesses) is
    imported here, so a process that never starts a pool never loads it.
    """
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


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
    include_histories: bool = False,
) -> GridOutcome:
    """Execute every pending run of the grid.

    Once every check has passed, one log line states the plan: the run
    count, the grid's shape and how many runs are already persisted. With an
    output directory, its checks come before its writes: a table that cannot be
    read or a directory that cannot be made, a manifest naming another
    stream, a results header other than the one written here (named by the
    columns that differ), an unparsable row, or a persisted run whose seed
    differs from this grid's is a contract violation, raised before anything
    runs or is written. Each table ends at its last complete row: a resume
    cuts a row torn off by a crash, so that run runs again, and
    :func:`load_results` refuses such a row until then.
    The pending runs of one cell and arm setting form a stack, which
    :func:`execute_stack` advances as one array program, each run bitwise as
    if alone. Stacks execute in this process at ``parallelism`` 1, otherwise
    on at most one worker process per pending stack. The coordinating
    process alone appends a finished stack's runs to the results table, so
    a crash loses at most the stacks in flight; on re-invocation, runs whose
    fingerprints are already persisted are skipped. Each table gets its
    header with its first row, so until a run finishes there is no
    ``results.csv``. A stack that raises is rerun one run at a time in the
    process that ran it, so a failing run is recorded on its own and does
    not stop the rest of the grid. ``failures.csv`` is a log of every failed
    attempt and is never pruned: a run that fails and then succeeds on a
    resume keeps its failure row. A worker process that dies (killed by the OS, say)
    breaks the pool: the runs finished until then stay persisted, the others
    are counted as unfinished, not as failures, and one log line says how
    many there are. ``include_histories`` additionally writes one history
    CSV per run and requires an output directory.
    """
    parallelism = as_count(parallelism, "parallelism", 1)
    if include_histories and out_dir is None:
        raise ContractViolationError("history dumps need an output directory")
    configs = expand_grid(grid)
    out_dir = None if out_dir is None else Path(out_dir)
    persisted = _open_grid_dir(out_dir, configs, include_histories) if out_dir else {}
    pending = [c for c in configs if c.fingerprint not in persisted]
    skipped = len(configs) - len(pending)
    logger.info(
        "%d runs: %d cells x (%d averaging settings + baseline) x %d repetitions, "
        "%d already persisted", len(configs), grid.cell_count, grid.settings_per_cell,
        grid.repetitions, skipped,
    )
    # expansion order keeps the runs of one cell and arm setting together
    stacks = [list(runs) for _, runs in itertools.groupby(pending, key=lambda c: c.stack)]
    histories = out_dir / HISTORY_DIRNAME if include_histories else None
    results: list[RunResult] = []
    failures: list[tuple[RunConfig, str]] = []
    unfinished = 0
    with ExitStack() as stack:
        if parallelism == 1 or not stacks:
            outcomes = ((runs, _grid_worker(runs, histories)) for runs in stacks)
        else:
            pool = stack.enter_context(_process_pool(min(parallelism, len(stacks))))
            futures = {pool.submit(_grid_worker, runs, histories): runs for runs in stacks}
            # a future that failed as a whole (a broken pool, an interrupt) fails each of its runs
            outcomes = (
                (futures[f], [f.exception()] * len(futures[f]) if f.exception() else f.result())
                for f in as_completed(futures)
            )
        for config, outcome in (run for runs, ends in outcomes for run in zip(runs, ends)):
            if isinstance(outcome, RunResult):
                results.append(outcome)
                if out_dir is not None:
                    _write_rows(out_dir / RESULTS_FILENAME, [_result_row(outcome)], "a")
            elif isinstance(outcome, BrokenExecutor):
                unfinished += 1
            elif isinstance(outcome, Exception):
                message = f"{type(outcome).__name__}: {outcome}"
                failures.append((config, message))
                logger.error("run %s failed: %s", config.fingerprint, message)
                if out_dir is not None:
                    row = {"fingerprint": config.fingerprint, "error": message}
                    _write_rows(out_dir / FAILURES_FILENAME, [row], "a")
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
    ``text`` is the rendered table, and ``verdict_rows`` holds its verdicts
    as CSV-ready dictionaries.
    """

    tables: dict[str, dict[tuple[int, float], dict[str, ComparisonVerdict]]]
    text: str
    verdict_rows: list[dict[str, str]]


_VERDICT_SYMBOLS = {Verdict.BETTER: "✓", Verdict.EQUIVALENT: "≡", Verdict.WORSE: "✗"}
_METRIC_HEADERS = {"hv": "HV", "igd": "IGD", "delta_f": "Δf"}


def report(results: Sequence[RunResult]) -> ReportBundle:
    """Compare every averaging setting against the baseline, per noise level.

    Each averaging run is paired once with the baseline run of its cell and
    repetition, which must share its seed; one contract violation names
    every baseline fingerprint that is missing or carries another seed. So
    are results that repeat a fingerprint, named too. Verdicts are produced
    per sigma and pooled over all sigmas, for each of the three metrics;
    fewer than five non-zero paired differences are flagged.
    """
    by_fingerprint = {r.config.fingerprint: r for r in results}
    repeated = sorted(f for f, n in Counter(r.config.fingerprint for r in results).items() if n > 1)
    if repeated:
        raise ContractViolationError(f"results repeat runs: {', '.join(repeated)}")
    knn_runs = sorted(
        (r for r in results if r.config.arm == ARM_KNN),
        key=lambda r: (r.config.k, r.config.max_dist, r.config.cell, r.config.rep),
    )
    if not knn_runs:
        raise ContractViolationError("results contain no averaging-arm runs to compare")
    pairs: list[tuple[RunResult, RunResult]] = []
    unpaired: dict[str, str] = {}  # baseline fingerprint -> why it does not pair
    for run in knn_runs:
        wanted = dataclasses.replace(run.config, arm=ARM_BASELINE, k=None, max_dist=None)
        partner = by_fingerprint.get(wanted.fingerprint)
        if partner is not None and partner.config.seed == wanted.seed:
            pairs.append((run, partner))
        else:
            why = f" (seeds differ: {partner.config.seed} vs {wanted.seed})" if partner else ""
            unpaired.setdefault(wanted.fingerprint, why)
    if unpaired:
        raise ContractViolationError(
            "missing baseline partners: "
            + ", ".join(fingerprint + why for fingerprint, why in sorted(unpaired.items()))
        )

    tables: dict[str, dict[tuple[int, float], dict[str, ComparisonVerdict]]] = {}
    sigmas = sorted({run.config.sigma for run, _ in pairs})
    for scope, sigma in [(f"sigma={float(s)!r}", s) for s in sigmas] + [(POOLED_SCOPE, None)]:
        scoped = [p for p in pairs if sigma is None or p[0].config.sigma == sigma]
        tables[scope] = {}
        for setting, group in itertools.groupby(
            scoped, key=lambda p: (p[0].config.k, p[0].config.max_dist)
        ):
            runs, partners = zip(*((run.metrics, partner.metrics) for run, partner in group))
            tables[scope][setting] = {
                metric: compare_setting(runs, partners, metric) for metric in METRICS
            }
    text = _render_text(tables)
    return ReportBundle(tables, text, _verdict_rows(tables))


def _render_text(tables) -> str:
    lines = [
        f"Verdicts versus baseline (two-sided signed-rank, alpha={ALPHA:g}; "
        "direction by W+)",
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

    for scope, table in tables.items():
        title = "all noise levels pooled" if scope == POOLED_SCOPE else scope
        lines += ["", f"-- {title} --", row("setting", [_METRIC_HEADERS[m] for m in METRICS])]
        for setting, verdicts in table.items():
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
    return [
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
        for scope, table in tables.items()
        for (k, max_dist), verdicts in table.items()
        for metric, verdict in verdicts.items()
    ]


def write_report_files(bundle: ReportBundle, out_dir: str | Path) -> None:
    """Write the rendered table to ``out_dir`` as ``verdicts.txt`` and its rows as ``verdicts.csv``.

    A file that cannot be written is a contract violation naming it; one
    that is a directory is refused before any file is written.
    """
    out_path = Path(out_dir)
    for path in map(out_path.joinpath, ("verdicts.txt", "verdicts.csv")):
        if path.is_dir():
            raise ContractViolationError(f"cannot write {path}: Is a directory")
    try:
        out_path.mkdir(parents=True, exist_ok=True)
        (out_path / "verdicts.txt").write_text(bundle.text, encoding="utf-8")
        _write_rows(out_path / "verdicts.csv", bundle.verdict_rows)
    except OSError as exc:
        raise ContractViolationError(f"cannot write {exc.filename}: {exc.strerror}") from exc
