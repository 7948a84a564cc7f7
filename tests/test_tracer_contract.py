"""The benchmark tracer still fits the package it wraps.

``perfbench/tracer.py`` replaces functions of ``knnavg.nsga2`` by name and
counts evaluations through the evaluators' ``evaluate``. A rename or a signature
change there breaks the traced benchmark only when it runs; this test runs
a toy optimization under the tracer for both arms first.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from knnavg.averaging import KnnConfig
from knnavg.core import RngStream
from knnavg.nsga2 import GaConfig, KnnAveraged, PlainNoisy, run_optimization
from knnavg.problems import NoiseSpec, ZdtProblem

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import ROOT_SPAN, Tracer, summarize  # noqa: E402

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
