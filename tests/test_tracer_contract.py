"""The benchmark harness still fits the package it drives.

``perfbench/tracer.py`` replaces functions of ``knnavg.nsga2`` by name and
counts evaluations through the evaluators' ``evaluate``, and
``perfbench/worker.py`` calls ``execute_run``, ``compute_report`` and
``knnavg.DEFAULT_FRONT_SAMPLE_SIZE``. A rename or a signature change there
breaks the benchmark only when it runs; these tests run a toy optimization
under the tracer for both arms, and the worker's library calls in-process,
first.
"""

import argparse
import sys
from pathlib import Path

import numpy as np
import pytest

from knnavg.averaging import KnnConfig
from knnavg.core import RngStream
from knnavg.nsga2 import GaConfig, KnnAveraged, PlainNoisy, run_optimization
from knnavg.problems import NoiseSpec, ZdtProblem

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import worker  # noqa: E402
from tracer import ROOT_SPAN, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

POP, GENS = 10, 5


def toy_run(evaluator):
    return run_optimization(
        ZdtProblem("zdt1", 4), NoiseSpec(0.1), evaluator,
        GaConfig(pop_size=POP, generations=GENS), RngStream(7),
    )


def run_bytes(result) -> bytes:
    history = result.history
    parts = [
        history.variables_matrix(), history.raw_matrix(), history.averaged_matrix(),
        result.population.objectives,
        result.front_hypervolumes,
    ]
    return b"".join(np.ascontiguousarray(p).tobytes() for p in parts)


@pytest.mark.parametrize(
    "make_evaluator, layers",
    [
        (PlainNoisy, {"problems", "nsga2.variation", "nsga2.ranking", "nsga2.trace"}),
        (
            lambda: KnnAveraged(KnnConfig(k=3, max_dist=0.5)),
            {"averaging", "problems", "nsga2.variation", "nsga2.ranking", "nsga2.trace"},
        ),
    ],
    ids=["plain", "knn"],
)
def test_traced_run_is_clean_and_unchanged(make_evaluator, layers):
    untraced = toy_run(make_evaluator())
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span(ROOT_SPAN):
            traced = toy_run(make_evaluator())
    finally:
        tracer.uninstall()
    summary = summarize(tracer.spans)
    assert summary["errors"] == []
    assert layers <= set(summary["layers"])
    assert tracer.counts["evaluated"] == POP * (GENS + 1)
    assert run_bytes(traced) == run_bytes(untraced)


@pytest.mark.parametrize("workload", ["knn-mid", "plain-mid"])
def test_worker_single_run_reports_no_problems(workload):
    spec = WORKLOADS[workload]["toy"]
    out = worker.cmd_single(spec, argparse.Namespace(seed=3, rep=0))
    assert out["problems"] == []
    assert len(out["metrics"]) == 3


def test_worker_k1_replay_reports_no_problems():
    assert worker._k1_replay(3) == []
