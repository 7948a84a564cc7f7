"""Command-line front end.

Subcommands: ``run`` executes an experiment grid from a config file, with
optional flag overrides, and with ``--include-histories`` also writes each
run's evaluation history as CSV; ``single`` executes one run and prints its
JSON result; ``report`` builds verdict tables from persisted results;
``front`` samples a problem's true Pareto front.

Exit codes: 0 on success, 1 on a contract violation (including bad
arguments or an output file that cannot be written), 2 when a grid
finished but some runs failed, or stopped because a worker process died.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .core import ContractViolationError, as_count
from .experiment import (
    ExperimentGrid,
    RunConfig,
    execute_run,
    load_results,
    report,
    run_grid,
    write_report_files,
)
from .metrics import DEFAULT_FRONT_SAMPLE_SIZE, DEFAULT_REFERENCE, as_reference
from .problems import ZDT_VARIANTS, ZdtProblem, true_front

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the contract-violation code."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _split_list(text: str) -> list[str]:
    return [part.strip() for part in text.replace(",", " ").split() if part.strip()]


def _ints(text: str) -> list[int]:
    return [int(v) for v in _split_list(text)]


def _floats(text: str) -> list[float]:
    return [float(v) for v in _split_list(text)]


# run's settings, each once: (INI section, INI key and flag destination, flag, parser, help)
_SETTINGS = (
    ("grid", "problems", "--problems", _split_list, "e.g. zdt1,zdt2,zdt3"),
    ("grid", "n_vars", "--n-vars", _ints, None),
    ("grid", "sigmas", "--sigmas", _floats, None),
    ("grid", "pop_sizes", "--pop-sizes", _ints, None),
    ("grid", "ks", "--ks", _ints, None),
    ("grid", "max_dists", "--max-dists", _floats, None),
    ("run", "repetitions", "--reps", int, None),
    ("run", "generations", "--generations", int, None),
    ("run", "base_seed", "--base-seed", int, None),
    ("metrics", "reference_point", "--reference", _floats,
     "hypervolume reference point, e.g. '11,11'"),
    ("metrics", "front_sample_size", "--front-samples", int, None),
)
_METAVARS = {"--reference": "REFERENCE", "--front-samples": "FRONT_SAMPLES"}  # not the INI key


def _grid_from_config(path: str | None, args: argparse.Namespace) -> tuple[ExperimentGrid, dict]:
    """Build the grid from the INI file, letting command-line flags override."""
    sections: dict[str, dict[str, str]] = {}
    if path is not None:
        parser = configparser.ConfigParser()
        if not parser.read(path):
            raise ContractViolationError(f"config file not found: {path}")
        sections = {name: dict(parser[name]) for name in parser.sections()}

    home = {key: section for section, key, *_ in _SETTINGS}
    for name, section in sections.items():
        if name not in home.values():
            raise ContractViolationError(f"unknown config section [{name}]")
        for key in section:
            if home.get(key) != name:
                hint = f" (it belongs in [{home[key]}])" if key in home else ""
                raise ContractViolationError(f"unknown key '{key}' in [{name}]{hint}")

    # a flag's value, else the file's; a [run] setting given by neither keeps the grid's default
    values = {"reference_point": DEFAULT_REFERENCE, "front_sample_size": DEFAULT_FRONT_SAMPLE_SIZE}
    for section, key, _, parse, _ in _SETTINGS:
        text = sections.get(section, {}).get(key)
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
        elif text is not None:
            try:
                values[key] = parse(text)
            except ValueError as exc:
                raise ContractViolationError(
                    f"[{section}] {key}: cannot parse {text!r} ({exc})"
                ) from exc
    missing = [key for key in home if home[key] == "grid" and not values.get(key)]
    if missing:
        raise ContractViolationError(
            "grid is incomplete; missing " + ", ".join(missing)
            + " (provide them in the [grid] section or as flags)"
        )
    values["n_vars_list"] = values.pop("n_vars")
    reference, front_samples = values.pop("reference_point"), values.pop("front_sample_size")
    grid = ExperimentGrid(**values)
    reference = as_reference(reference)
    front_samples = as_count(front_samples, "front sample size", 2)
    return grid, {"reference": reference, "front_sample_size": front_samples}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="knnavg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment grid")
    run_p.add_argument("--config", help="INI file with [grid], [run], [metrics] sections")
    run_p.add_argument("--out", help="output directory (results.csv, resumable)")
    run_p.add_argument("--parallelism", type=int, default=1, help="worker processes")
    for _, key, flag, parse, help_text in _SETTINGS:
        run_p.add_argument(flag, dest=key, type=parse, help=help_text, metavar=_METAVARS.get(flag))
    run_p.add_argument(
        "--include-histories", action="store_true",
        help="write one evaluation-history CSV per run (needs --out)",
    )
    run_p.add_argument(
        "--report", action="store_true", help="print verdict tables after the grid finishes"
    )

    single_p = sub.add_parser("single", help="execute one run, print JSON")
    single_p.add_argument("--problem", required=True, type=str.lower, choices=ZDT_VARIANTS)
    single_p.add_argument("--n-vars", dest="n_vars", type=int, required=True)
    single_p.add_argument("--sigma", type=float, required=True)
    single_p.add_argument("--pop", dest="pop_size", type=int, required=True)
    single_p.add_argument("--gens", dest="generations", type=int, required=True)
    single_p.add_argument("--seed", type=int, required=True)
    single_p.add_argument("--k", type=int, help="averaging neighbor count (omit for baseline)")
    single_p.add_argument("--max-dist", dest="max_dist", type=float)
    single_p.add_argument("--reference", type=_floats, default=DEFAULT_REFERENCE)
    single_p.add_argument(
        "--front-samples", dest="front_samples", type=int, default=DEFAULT_FRONT_SAMPLE_SIZE
    )
    single_p.add_argument("--out", help="write the JSON here instead of stdout")

    report_p = sub.add_parser("report", help="verdict tables from persisted results")
    report_p.add_argument("--in", dest="in_dir", required=True, help="grid output directory")
    report_p.add_argument("--alpha", type=float, default=0.05)
    report_p.add_argument("--out", help="also write verdicts.txt/.csv and metrics_long.csv here")

    front_p = sub.add_parser("front", help="sample a problem's true Pareto front")
    front_p.add_argument("--problem", required=True, type=str.lower, choices=ZDT_VARIANTS)
    front_p.add_argument("--count", type=int, default=DEFAULT_FRONT_SAMPLE_SIZE)
    front_p.add_argument("--out", help="write CSV here instead of stdout")

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    grid, metric_opts = _grid_from_config(args.config, args)
    # bad options are refused before the plan prints
    parallelism = as_count(args.parallelism, "parallelism", 1)
    if args.include_histories and args.out is None:
        raise ContractViolationError("history dumps need an output directory")
    print(
        f"{grid.total_run_count} runs: {grid.cell_count} cells x "
        f"({grid.settings_per_cell} averaging settings + baseline) x "
        f"{grid.repetitions} repetitions"
    )
    try:
        outcome = run_grid(
            grid, parallelism=parallelism, out_dir=args.out,
            include_histories=args.include_histories, **metric_opts,
        )
    except ContractViolationError as exc:
        # the library's refusals of a directory end so; naming the flag is ours
        if str(exc).endswith("write to another output directory"):
            raise ContractViolationError(f"{exc} (--out)") from exc
        raise
    if outcome.skipped:
        print(f"skipped {outcome.skipped} already persisted runs")
    print(f"executed {len(outcome.results)} runs, {len(outcome.failures)} failures")
    if outcome.unfinished:
        return 2  # run_grid has logged the count; a report would lack those runs
    # skipped runs are on disk; with neither, there is no results table to report
    if args.report and (outcome.results or outcome.skipped):
        results = load_results(args.out) if args.out else outcome.results
        try:
            print("\n" + report(results).text, end="")
        except ContractViolationError as exc:
            if not outcome.failures:
                raise
            # failed runs can leave averaging runs without partners; exit 2 still reports them
            print(f"error: {exc}", file=sys.stderr)
    return 2 if outcome.failures else 0


def _emit(text: str, path: str | None) -> None:
    """Print ``text``, or write it to the file ``path``."""
    if path is None:
        print(text, end="")
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ContractViolationError(f"cannot write {path}: {exc.strerror}") from exc


def _cmd_single(args: argparse.Namespace) -> int:
    if args.out and not Path(args.out).parent.is_dir():
        # checked up front so a run is not wasted on output that cannot be kept
        raise ContractViolationError(f"cannot write {args.out}: no such directory")
    if (args.k is None) != (args.max_dist is None):
        raise ContractViolationError("--k and --max-dist must be given together")
    config = RunConfig(
        problem=args.problem, n_vars=args.n_vars, sigma=args.sigma, pop_size=args.pop_size,
        generations=args.generations, arm="baseline" if args.k is None else "knn",
        k=args.k, max_dist=args.max_dist, rep=0, seed=args.seed,
    )
    result = execute_run(
        config,
        reference=tuple(args.reference),
        front_sample_size=args.front_samples,
        keep_optimization=True,
    )
    payload = result.optimization.to_dict()
    payload["fingerprint"] = config.fingerprint
    payload["metrics"] = dataclasses.asdict(result.metrics)
    payload["duration_s"] = result.duration_s
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    results = load_results(args.in_dir)
    bundle = report(results, alpha=args.alpha)
    print(bundle.text, end="")
    if args.out:
        write_report_files(bundle, args.out)
    return 0


def _cmd_front(args: argparse.Namespace) -> int:
    # Front shape does not depend on n_vars; the minimal instance suffices.
    front = true_front(ZdtProblem(args.problem, 2), args.count)
    lines = ["f1,f2"] + [f"{f1!r},{f2!r}" for f1, f2 in front.tolist()]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "single": _cmd_single,
    "report": _cmd_report,
    "front": _cmd_front,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ContractViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
