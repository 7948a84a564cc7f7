"""Run the benchmark over several seeds and summarize each metric's spread.

Usage, from the repository root:

    python3 perfbench/collect.py --workloads knn-mid,plain-mid,grid-desk \
        --seeds 1-10 --seconds 10 --trace 0 --out perfbench/baseline.json

For every workload and metric it reports the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median. Runs go one after
another, never in parallel, so they do not load each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += list(range(int(low), int(high) + 1)) if high else [int(low)]
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr[-3000:]}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    summary: dict = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        per_metric: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        envs = []
        for seed in seeds:
            result, env = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
            envs.append(env)
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        metrics = {name: {"unit": units[name], **summarize(v)} for name, v in per_metric.items()}
        summary["workloads"][workload] = {
            "metrics": metrics,
            "environment": envs[0],
            "loadavg_1m": [e.get("loadavg_1m") for e in envs],
        }
        for name, m in metrics.items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"  {workload:10s} {name:32s} median {m['median']:.6g} {m['unit']:6s} spread {spread}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
