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
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .core import ContractViolationError
from .experiment import (
    ARM_BASELINE,
    ARM_KNN,
    ExperimentGrid,
    RunConfig,
    execute_run,
    load_results,
    report,
    run_grid,
    write_report_files,
)
from .metrics import DEFAULT_FRONT_SAMPLE_SIZE
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
)


def _grid_from_config(path: str | None, args: argparse.Namespace) -> ExperimentGrid:
    """Build the grid from the INI file, letting command-line flags override."""
    sections: dict[str, dict[str, str]] = {}
    if path is not None:
        import configparser  # here, so a command without --config never loads it
        # no header names the empty section, so [DEFAULT] is an ordinary, unknown one
        parser = configparser.ConfigParser(interpolation=None, default_section="")
        try:
            parser.read_string(Path(path).read_text(encoding="utf-8"), source=path)
        except FileNotFoundError as exc:
            raise ContractViolationError(f"config file not found: {path}") from exc
        except (OSError, UnicodeDecodeError, configparser.Error) as exc:
            # configparser's words name the file and the line, over several lines
            why = exc.strerror if isinstance(exc, OSError) else " ".join(str(exc).split())
            raise ContractViolationError(f"cannot read config file {path}: {why}") from exc
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
    values = {}
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
    return ExperimentGrid(**values)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="knnavg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment grid")
    run_p.add_argument("--config", help="INI file with [grid] and [run] sections")
    run_p.add_argument("--out", help="output directory (results.csv, resumable)")
    run_p.add_argument("--parallelism", type=int, default=1, help="worker processes")
    for _, key, flag, parse, help_text in _SETTINGS:
        run_p.add_argument(flag, dest=key, type=parse, help=help_text)
    run_p.add_argument(
        "--include-histories", action="store_true",
        help="write one evaluation-history CSV per run (needs --out)",
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
    single_p.add_argument("--out", help="write the JSON here instead of stdout")

    report_p = sub.add_parser("report", help="verdict tables from persisted results")
    report_p.add_argument("--in", dest="in_dir", required=True, help="grid output directory")
    report_p.add_argument("--out", help="also write verdicts.txt and verdicts.csv here")

    front_p = sub.add_parser("front", help="sample a problem's true Pareto front")
    front_p.add_argument("--problem", required=True, type=str.lower, choices=ZDT_VARIANTS)
    front_p.add_argument("--count", type=int, default=DEFAULT_FRONT_SAMPLE_SIZE)
    front_p.add_argument("--out", help="write CSV here instead of stdout")

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    # run_grid checks the grid and its directory, then logs its plan
    outcome = run_grid(
        _grid_from_config(args.config, args), parallelism=args.parallelism,
        out_dir=args.out, include_histories=args.include_histories,
    )
    print(f"executed {len(outcome.results)} runs, {len(outcome.failures)} failures")
    return 2 if outcome.failures or outcome.unfinished else 0


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
    out = Path(args.out) if args.out else None
    if out and (out.is_dir() or not out.parent.is_dir()):
        # checked up front so a run is not wasted on output that cannot be kept
        why = "Is a directory" if out.is_dir() else "No such file or directory"
        raise ContractViolationError(f"cannot write {out}: {why}")
    if (args.k is None) != (args.max_dist is None):
        raise ContractViolationError("--k and --max-dist must be given together")
    config = RunConfig(
        problem=args.problem, n_vars=args.n_vars, sigma=args.sigma, pop_size=args.pop_size,
        generations=args.generations, arm=ARM_BASELINE if args.k is None else ARM_KNN,
        k=args.k, max_dist=args.max_dist, rep=0, seed=args.seed,
    )
    result = execute_run(config, keep_optimization=True)
    payload = result.optimization.to_dict()
    payload["fingerprint"] = config.fingerprint
    payload["metrics"] = dataclasses.asdict(result.metrics)
    payload["duration_s"] = result.duration_s
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    bundle = report(load_results(args.in_dir))
    if args.out:  # written first, so a file that cannot be written leaves stdout empty
        write_report_files(bundle, args.out)
    print(bundle.text, end="")
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
