"""Benchmark of knnavg: single runs of both arms and a persisted CLI grid.

Usage, from the repository root:

    python3 perfbench/run.py --workload knn-mid --seed 1 --seconds 10 --trace 0

Workloads (defined in ``workloads.py``):
  knn-mid    k-NN averaged run, zdt1 n=30, pop 100, 100 generations
  plain-mid  the same cell and seeds with the plain arm
  grid-desk  ``knnavg run`` over zdt1-3 at desk scale, its resume, ``knnavg report``

Every measured step runs in a fresh process with BLAS/OpenMP threads pinned
to 1. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run. The outputs are checked: any failed
check makes ``correct`` false and the exit code 1. ``--scale toy`` runs the
same code paths at a size that takes seconds (the smoke test uses it).

Detail lines (environment, sample counts, per-step values) go to stdout
before the result; the last stdout line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import summarize
from workloads import WORKLOADS, Grid, SingleRun, derived_seed, spec_to_json

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 5
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A step could not be measured at all."""


def environment() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "knnavg").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())

    def version(name: str) -> str | None:
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "loadavg_1m": os.getloadavg()[0],
        "machine": platform.machine(),
    }


class Bench:
    """Spawns the measured processes of one workload and keeps their working directory."""

    def __init__(self, workload: str, spec: SingleRun | Grid, seed: int, seconds: float) -> None:
        self.workload = workload
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        for var in THREAD_VARS:
            self.env[var] = BLAS_THREADS
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def time_left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def spawn(self, argv: list[str]) -> tuple[subprocess.CompletedProcess, float, float]:
        """Run one process (and its process group) to the end; returns it, its wall and start."""
        started = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=max(self.time_left(), 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"timed out: {' '.join(argv)}") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        wall = time.monotonic() - started
        return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr), wall, started

    def worker(self, mode: str, **options) -> tuple[dict, float, float]:
        argv = [sys.executable, str(HERE / "worker.py"), mode, "--spec", json.dumps(spec_to_json(self.spec))]
        argv += ["--seed", str(self.seed)]
        for key, value in options.items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        done, wall, started = self.spawn(argv)
        if done.returncode != 0:
            raise BenchError(f"worker {mode} exited {done.returncode}:\n{done.stderr[-4000:]}")
        lines = done.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"worker {mode} printed nothing")
        payload = json.loads(lines[-1])
        self.problems += payload.get("problems", [])
        return payload, wall, started

    def setup_probe(self) -> float:
        payload, _, started = self.worker("setup")
        return payload["ready"] - started

    def measure(self, step, min_steps: int, step_wall) -> tuple[list[float], list[dict]]:
        """Steps until the window is full, each after a set-up probe; then the remaining probes.

        Spreading the probes over the window keeps one slow stretch of the
        machine from setting the set-up median, and keeps the first probe of
        a fresh checkout, which also compiles the bytecode cache, from
        setting it alone.
        """
        setups: list[float] = []
        steps: list[dict] = []
        measuring = time.monotonic()
        while len(steps) < min_steps or (
            time.monotonic() - measuring + step_wall(steps[-1]) <= self.seconds
            and 2 * step_wall(steps[-1]) < self.time_left()
        ):
            setups.append(self.setup_probe())
            steps.append(step(len(steps)))
        while len(setups) < SETUP_PROBES:
            setups.append(self.setup_probe())
        return setups, steps

    def cli(self, args: list[str]) -> tuple[subprocess.CompletedProcess, float]:
        done, wall, _ = self.spawn([sys.executable, "-m", "knnavg.cli", *args])
        return done, wall

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def quality(values: list[list[float]]) -> dict[str, float]:
    """Medians of the [hv, igd, delta_f] triples the worker reports."""
    return {
        name: statistics.median(v[i] for v in values)
        for i, name in enumerate(("hv_adj", "igd_adj", "delta_f"))
    }


# --- single-run workloads -------------------------------------------------

def single_end_to_end(b: Bench) -> tuple[dict, dict]:
    spec = b.spec

    def step(rep: int) -> dict:
        payload, wall, started = b.worker("single", rep=rep)
        b.attempted += 1
        b.failed += bool(payload["problems"])
        return {"wall": wall, "setup": payload["ready"] - started, **payload}

    setups, steps = b.measure(step, spec.min_runs, lambda s: s["wall"])
    b.worker("check")
    wall = statistics.median(s["wall"] for s in steps)
    scores = quality([s["metrics"] for s in steps[: spec.min_runs]])
    metrics = {
        "setup_s": statistics.median(setups + [s["setup"] for s in steps]),
        "wall_s": wall,
        "run_s.p50": statistics.median(s["run_s"] for s in steps),
        "evals_per_s": spec.evals_per_run / wall,
        "runs_per_s": 1.0 / wall,
        "peak_rss_mb": peak_rss_mb(),
        "hv_adj": scores["hv_adj"],
        "delta_f": scores["delta_f"],
    }
    detail = {
        "runs": len(steps),
        "setup_samples": len(setups) + len(steps),
        "walls": [s["wall"] for s in steps],
        "run_s": [s["run_s"] for s in steps],
        **scores,
    }
    return metrics, detail


# --- grid workload ----------------------------------------------------------

def grid_pass(b: Bench, index: int) -> dict:
    """One pass of the grid workload through the CLI, checked."""
    spec: Grid = b.spec
    out_dir = b.work / f"grid{index}"
    args = spec.cli_run_args(derived_seed(b.seed, "grid"), str(out_dir))
    results_csv = out_dir / "results.csv"

    run, t_run = b.cli(args)
    b.attempted += spec.run_count
    b.check(run.returncode == 0, f"knnavg run exited {run.returncode}:\n{run.stderr[-2000:]}")
    persisted = results_csv.read_bytes() if results_csv.exists() else b""
    written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())

    resume, t_resume = b.cli(args)
    b.check(resume.returncode == 0, f"resuming knnavg run exited {resume.returncode}")
    b.check(
        results_csv.exists() and results_csv.read_bytes() == persisted,
        "the resume executed runs: results.csv changed",
    )

    rep, t_report = b.cli(["report", "--in", str(out_dir)])
    b.check(
        rep.returncode == 0 and "Verdicts" in rep.stdout,
        f"knnavg report exited {rep.returncode} without a verdict table",
    )

    failures_csv = out_dir / "failures.csv"
    failed_runs = len(failures_csv.read_text().splitlines()) - 1 if failures_csv.exists() else 0
    checked, _, _ = b.worker("check", grid_dir=out_dir)
    b.failed += max(failed_runs, spec.run_count - len(checked["durations"]))
    shutil.rmtree(out_dir)
    return {
        "t_run": t_run, "t_resume": t_resume, "t_report": t_report,
        "rows": len(checked["durations"]), "bytes": written, "failed_runs": failed_runs,
        **checked,
    }


def pass_wall(p: dict) -> float:
    return p["t_run"] + p["t_resume"] + p["t_report"]


def grid_end_to_end(b: Bench) -> tuple[dict, dict]:
    spec: Grid = b.spec
    setups, passes = b.measure(lambda i: grid_pass(b, i), spec.min_passes, pass_wall)
    t_run = statistics.median(p["t_run"] for p in passes)
    scores = quality(passes[0]["metrics"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(pass_wall(p) for p in passes),
        "run_s.p50": statistics.median(d for p in passes for d in p["durations"]),
        "evals_per_s": spec.run_count * spec.evals_per_run / t_run,
        "runs_per_s": spec.run_count / t_run,
        "peak_rss_mb": peak_rss_mb(),
        "hv_adj": scores["hv_adj"],
        "delta_f": scores["delta_f"],
    }
    detail = {
        "passes": len(passes),
        "setup_samples": len(setups),
        "run_samples": sum(len(p["durations"]) for p in passes),
        "t_run": [p["t_run"] for p in passes],
        "t_resume": [p["t_resume"] for p in passes],
        "t_report": [p["t_report"] for p in passes],
        **scores,
    }
    return metrics, detail


# --- traced run ---------------------------------------------------------------

def per_layer(b: Bench) -> tuple[dict, dict]:
    spec = b.spec
    b.work.mkdir(parents=True, exist_ok=True)
    traced, _, _ = b.worker("trace", work=b.work)
    b.attempted += traced["runs"]
    if isinstance(spec, Grid):
        # Pool and persistence numbers come from an untraced CLI pass.
        io = grid_pass(b, 0)
        busy, workers, step_wall = sum(io["durations"]), spec.parallelism, io["t_run"]
    else:
        io = {"rows": 0, "bytes": 0, "t_resume": 0.0, "t_report": 0.0, "load_results_s": 0.0,
              "failed_runs": 0}
        busy, workers, step_wall = traced["busy_s"], 1, traced["untraced_s"]

    dump = json.loads((b.work / "spans.json").read_text())
    summary = summarize(dump["spans"])
    b.problems += [f"span tree: {e}" for e in summary["errors"]]
    layers, counts = summary["layers"], dump["counts"]

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    evaluated = counts.get("evaluated", 0)
    metrics = {
        "averaging.calls": calls("averaging"),
        "averaging.self_s": self_s("averaging"),
        "averaging.wall_share": self_s("averaging") / traced["traced_s"],
        "averaging.history_len": counts.get("averaging_history_len", 0),
        "averaging.pairs": counts.get("averaging_pairs", 0),
        "averaging.bytes_computed": 8 * counts.get("averaging_pair_dims", 0),
        "averaging.self_only_frac": counts.get("self_only", 0) / evaluated if evaluated else 0.0,
        "problems.calls": calls("problems"),
        "problems.self_s": self_s("problems"),
        "nsga2.variation.calls": calls("nsga2.variation"),
        "nsga2.variation.self_s": self_s("nsga2.variation"),
        "nsga2.ranking.calls": calls("nsga2.ranking"),
        "nsga2.ranking.self_s": self_s("nsga2.ranking"),
        "nsga2.trace.self_s": self_s("nsga2.trace"),
        "nsga2.loop.self_s": self_s("nsga2.loop"),
        "core.solutions_built": counts.get("solutions_built", 0),
        "metrics.calls": calls("metrics"),
        "metrics.self_s": self_s("metrics"),
        "metrics.igd_adj": traced["igd_adj"],
        "stats.calls": calls("stats"),
        "stats.self_s": self_s("stats"),
        "experiment.worker_busy_s": busy,
        "experiment.parallel_efficiency": busy / (step_wall * workers),
        "experiment.rows_written": io["rows"],
        "experiment.bytes_written": io["bytes"],
        "experiment.resume_s": io["t_resume"],
        "experiment.report_s": io["t_report"],
        "experiment.load_results_s": io["load_results_s"],
        "experiment.failed_runs": io["failed_runs"],
        "trace.wall_s": traced["traced_s"],
        "trace.overhead_s": traced["traced_s"] - traced["untraced_s"],
    }
    detail = {
        "spans": len(dump["spans"]),
        "untraced_s": traced["untraced_s"],
        "layer_self_s": {name: layer["self_s"] for name, layer in sorted(layers.items())},
    }
    return metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description="knnavg benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("mid", "toy"), default="mid")
    parser.add_argument("--spans-out", help="also copy the traced run's spans to this file")
    args = parser.parse_args()

    if not (ROOT / "src" / "knnavg" / "__init__.py").is_file():
        print(f"error: no knnavg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment()), flush=True)
    spec = WORKLOADS[args.workload][args.scale]
    bench = Bench(args.workload, spec, args.seed, args.seconds)
    try:
        if args.trace:
            metrics, detail = per_layer(bench)
            if args.spans_out:
                shutil.copyfile(bench.work / "spans.json", args.spans_out)
            group = "per_layer"
        else:
            e2e = grid_end_to_end if isinstance(spec, Grid) else single_end_to_end
            metrics, detail = e2e(bench)
            group = "end_to_end"
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made

    # BENCHMARK.json declares the metrics and their units; emit exactly those.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[group]
    mismatch = {m["name"] for m in declared} ^ set(metrics)
    if mismatch:
        print(f"error: declared and computed metrics differ: {sorted(mismatch)}", file=sys.stderr)
        return 1
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not bench.problems
    print("detail " + json.dumps(detail), flush=True)
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed if correct else max(bench.failed, 1),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
