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

from .core import ContractViolationError, RngStream
from .averaging import KnnConfig
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
from .problems import ZdtProblem, true_front

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


def _grid_from_config(path: str | None, args: argparse.Namespace) -> tuple[ExperimentGrid, dict]:
    """Build the grid from the INI file, letting command-line flags override."""
    sections: dict[str, dict[str, str]] = {}
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ContractViolationError(f"config file not found: {path}")
        sections = {name: dict(parser[name]) for name in parser.sections()}

    # grid axes: INI key (also the flag's attribute) -> parser, in grid order
    axes = {
        "problems": _split_list, "n_vars": _ints, "sigmas": _floats,
        "pop_sizes": _ints, "ks": _ints, "max_dists": _floats,
    }
    known = {
        "grid": set(axes),
        "run": {"repetitions", "generations", "base_seed"},
        "metrics": {"reference_point", "front_sample_size"},
    }
    for name, section in sections.items():
        if name not in known:
            raise ContractViolationError(f"unknown config section [{name}]")
        for key in section:
            if key not in known[name]:
                home = next((s for s, keys in known.items() if key in keys), None)
                message = f"unknown key '{key}' in [{name}]"
                if home is not None:
                    message += f" (it belongs in [{home}])"
                raise ContractViolationError(message)

    def pick(flag_value, section: str, key: str, parse, default=None):
        if flag_value is not None:
            return flag_value
        values = sections.get(section, {})
        if key not in values:
            return default
        try:
            return parse(values[key])
        except ValueError as exc:
            raise ContractViolationError(
                f"[{section}] {key}: cannot parse {values[key]!r} ({exc})"
            ) from exc

    levels = {key: pick(getattr(args, key), "grid", key, parse) for key, parse in axes.items()}
    missing = [key for key, values in levels.items() if not values]
    if missing:
        raise ContractViolationError(
            "grid is incomplete; missing " + ", ".join(missing)
            + " (provide them in the [grid] section or as flags)"
        )
    levels["n_vars_list"] = levels.pop("n_vars")
    grid = ExperimentGrid(
        **{key: tuple(values) for key, values in levels.items()},
        repetitions=pick(args.repetitions, "run", "repetitions", int, 30),
        generations=pick(args.generations, "run", "generations", int, 100),
        base_seed=pick(args.base_seed, "run", "base_seed", int, 0),
    )
    reference = as_reference(
        pick(args.reference, "metrics", "reference_point", _floats, DEFAULT_REFERENCE)
    )
    front_samples = pick(
        args.front_samples, "metrics", "front_sample_size", int, DEFAULT_FRONT_SAMPLE_SIZE
    )
    return grid, {"reference": reference, "front_sample_size": int(front_samples)}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="knnavg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment grid")
    run_p.add_argument("--config", help="INI file with [grid], [run], [metrics] sections")
    run_p.add_argument("--out", help="output directory (results.csv, resumable)")
    run_p.add_argument("--parallelism", type=int, default=1, help="worker processes")
    run_p.add_argument("--problems", type=_split_list, help="e.g. zdt1,zdt2,zdt3")
    run_p.add_argument("--n-vars", dest="n_vars", type=_ints)
    run_p.add_argument("--sigmas", type=_floats)
    run_p.add_argument("--pop-sizes", dest="pop_sizes", type=_ints)
    run_p.add_argument("--ks", type=_ints)
    run_p.add_argument("--max-dists", dest="max_dists", type=_floats)
    run_p.add_argument("--reps", dest="repetitions", type=int)
    run_p.add_argument("--generations", type=int)
    run_p.add_argument("--base-seed", dest="base_seed", type=int)
    run_p.add_argument(
        "--reference", type=_floats, help="hypervolume reference point, e.g. '11,11'"
    )
    run_p.add_argument("--front-samples", dest="front_samples", type=int)
    run_p.add_argument(
        "--include-histories", action="store_true",
        help="write one evaluation-history CSV per run (needs --out)",
    )
    run_p.add_argument(
        "--report", action="store_true", help="print verdict tables after the grid finishes"
    )

    single_p = sub.add_parser("single", help="execute one run, print JSON")
    single_p.add_argument("--problem", required=True, choices=("zdt1", "zdt2", "zdt3"))
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
    front_p.add_argument("--problem", required=True, choices=("zdt1", "zdt2", "zdt3"))
    front_p.add_argument("--count", type=int, default=DEFAULT_FRONT_SAMPLE_SIZE)
    front_p.add_argument("--out", help="write CSV here instead of stdout")

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    grid, metric_opts = _grid_from_config(args.config, args)
    print(
        f"{grid.total_run_count} runs: {grid.cell_count} cells x "
        f"({grid.settings_per_cell} averaging settings + baseline) x "
        f"{grid.repetitions} repetitions"
    )
    outcome = run_grid(
        grid,
        parallelism=args.parallelism,
        out_dir=args.out,
        reference=metric_opts["reference"],
        front_sample_size=metric_opts["front_sample_size"],
        include_histories=args.include_histories,
    )
    if outcome.skipped:
        print(f"skipped {outcome.skipped} already persisted runs")
    print(f"executed {len(outcome.results)} runs, {len(outcome.failures)} failures")
    if outcome.unfinished:
        return 2  # run_grid has logged the count; a report would lack those runs
    if args.report and (outcome.results or args.out):
        results = load_results(args.out) if args.out else outcome.results
        bundle = report(results)
        print()
        print(bundle.text, end="")
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
    arm = "baseline" if args.k is None else "knn"
    if arm == "knn":
        KnnConfig(k=args.k, max_dist=args.max_dist)  # validates early
    config = RunConfig(
        problem=args.problem, n_vars=args.n_vars, sigma=args.sigma, pop_size=args.pop_size,
        generations=args.generations, arm=arm, k=args.k, max_dist=args.max_dist, rep=0,
        seed=RngStream(args.seed).seed,
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
    sample = true_front(ZdtProblem(args.problem, 2), args.count)
    lines = ["f1,f2"] + [f"{float(p[0])!r},{float(p[1])!r}" for p in sample.points]
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
