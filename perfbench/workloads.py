"""Workload definitions shared by ``run.py`` and its worker.

A workload is either a series of single optimization runs (one fresh
process per run) or a persisted grid driven through the ``knnavg`` command
line. Every seed the program sees is derived here from the benchmark's
``--seed``; the two single-run workloads derive the same per-repetition
seeds, so their runs are seed-paired arm against arm.

This module imports nothing from ``knnavg``: specs travel to the worker as
JSON and are turned into library objects there.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class SingleRun:
    """One ZDT cell run repeatedly with one evaluator arm."""

    problem: str
    n_vars: int
    sigma: float
    pop_size: int
    generations: int
    k: int | None  # None selects the plain (un-averaged) arm
    max_dist: float | None
    min_runs: int  # runs always made, and the runs the quality medians cover

    kind = "single"

    @property
    def arm(self) -> str:
        return "baseline" if self.k is None else "knn"

    @property
    def evals_per_run(self) -> int:
        return self.pop_size * (self.generations + 1)


@dataclass(frozen=True)
class Grid:
    """A seed-paired experiment grid: baseline plus one arm per (k, max_dist)."""

    problems: tuple[str, ...]
    n_vars: int
    sigma: float
    pop_size: int
    ks: tuple[int, ...]
    max_dists: tuple[float, ...]
    reps: int
    generations: int
    parallelism: int
    min_passes: int  # passes (run, resume, report) always made

    kind = "grid"

    @property
    def problem(self) -> str:
        return self.problems[0]

    @property
    def run_count(self) -> int:
        arms = 1 + len(self.ks) * len(self.max_dists)
        return len(self.problems) * arms * self.reps

    @property
    def evals_per_run(self) -> int:
        return self.pop_size * (self.generations + 1)

    def cli_run_args(self, base_seed: int, out_dir: str) -> list[str]:
        """Arguments of the ``knnavg run`` invocation that executes this grid."""
        return [
            "run",
            "--problems", ",".join(self.problems),
            "--n-vars", str(self.n_vars),
            "--sigmas", repr(self.sigma),
            "--pop-sizes", str(self.pop_size),
            "--ks", ",".join(str(k) for k in self.ks),
            "--max-dists", ",".join(repr(m) for m in self.max_dists),
            "--reps", str(self.reps),
            "--generations", str(self.generations),
            "--base-seed", str(base_seed),
            "--parallelism", str(self.parallelism),
            "--include-histories",
            "--out", out_dir,
        ]


def spec_to_json(spec: SingleRun | Grid) -> dict:
    return {"kind": spec.kind, **asdict(spec)}


def spec_from_json(data: dict) -> SingleRun | Grid:
    fields = {k: v for k, v in data.items() if k != "kind"}
    if data["kind"] == "single":
        return SingleRun(**fields)
    fields["problems"] = tuple(fields["problems"])
    fields["ks"] = tuple(fields["ks"])
    fields["max_dists"] = tuple(fields["max_dists"])
    return Grid(**fields)


def derived_seed(seed: int, label: str) -> int:
    """A 63-bit program seed derived from the benchmark seed and a label."""
    digest = hashlib.sha256(f"knnavg-perfbench|{seed}|{label}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def rep_seed(seed: int, rep: int) -> int:
    return derived_seed(seed, f"rep{rep}")


_MID = dict(problem="zdt1", n_vars=30, sigma=0.1, pop_size=100, generations=100)
_TOY = dict(problem="zdt1", n_vars=4, sigma=0.1, pop_size=10, generations=8)

# name -> scale -> spec. "mid" is the measured scale; "toy" exercises every
# code path of the benchmark in seconds and is what the smoke test runs.
WORKLOADS: dict[str, dict[str, SingleRun | Grid]] = {
    "knn-mid": {
        "mid": SingleRun(**_MID, k=10, max_dist=0.25, min_runs=2),
        "toy": SingleRun(**_TOY, k=10, max_dist=0.25, min_runs=2),
    },
    "plain-mid": {
        "mid": SingleRun(**_MID, k=None, max_dist=None, min_runs=8),
        "toy": SingleRun(**_TOY, k=None, max_dist=None, min_runs=2),
    },
    "grid-desk": {
        "mid": Grid(
            problems=("zdt1", "zdt2", "zdt3"), n_vars=2, sigma=0.1, pop_size=10,
            ks=(5, 10), max_dists=(0.25,), reps=10, generations=100, parallelism=2,
            min_passes=2,
        ),
        "toy": Grid(
            problems=("zdt1", "zdt2", "zdt3"), n_vars=2, sigma=0.1, pop_size=10,
            ks=(5, 10), max_dists=(0.25,), reps=2, generations=5, parallelism=2,
            min_passes=1,
        ),
    },
}

# The k=1 replay check: a desk-scale cell on which KnnConfig(k=1) must
# reproduce the plain arm bitwise.
K1_CHECK = SingleRun(
    problem="zdt1", n_vars=2, sigma=0.1, pop_size=10, generations=100,
    k=1, max_dist=0.25, min_runs=1,
)
