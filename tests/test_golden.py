"""Golden trajectories: whole seeded runs pinned by sha256 digest.

Each case runs one (problem, arm, seed) cell end to end and hashes the
final population, the full evaluation history (variables, raw and averaged
objectives, batch numbers) and the per-generation trace. Any change to
random draw order, variation, evaluation, averaging or survival moves a
digest.

The digests belong to ``STREAM_VERSION``. A change that is meant to keep
results bitwise must leave them alone. A change that deliberately alters
the stream bumps ``knnavg.core.STREAM_VERSION`` and re-records them:

    PYTHONPATH=src python3 tests/test_golden.py

prints the fresh digests in the layout of ``GOLDEN`` below.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

from knnavg.averaging import KnnConfig
from knnavg.core import STREAM_VERSION, RngStream
from knnavg.nsga2 import GaConfig, KnnAveraged, PlainNoisy, run_optimization
from knnavg.problems import NoiseSpec, ZdtProblem

# name -> (problem, n_vars, pop_size, generations, k or None for plain, max_dist, seed)
CASES = {
    "zdt1-plain": ("zdt1", 2, 10, 100, None, None, 11),
    "zdt1-knn": ("zdt1", 2, 10, 100, 5, 0.25, 11),
    "zdt1-knn-k1": ("zdt1", 2, 10, 100, 1, 0.25, 11),
    "zdt2-plain": ("zdt2", 2, 10, 100, None, None, 12),
    "zdt2-knn": ("zdt2", 2, 10, 100, 10, 0.25, 12),
    "zdt3-plain": ("zdt3", 2, 10, 100, None, None, 13),
    "zdt3-knn": ("zdt3", 2, 10, 100, 5, 0.25, 13),
    "zdt1-d30-knn": ("zdt1", 30, 20, 15, 10, 1.0, 14),
}

GOLDEN_STREAM_VERSION = 1
GOLDEN = {
    "zdt1-d30-knn": "d4040edf633e1c814f14d43c33475aa7124c770a1a14da87f650486855315db5",
    "zdt1-knn": "0f60c7859002be529ec0e79f98942e9a537647e168326493a4e4a44c065e23be",
    "zdt1-knn-k1": "d671bf378a8d7ac7027a8113f32260849d6e8a6fd0d82b2a3b6ddfb3ff8d828b",
    "zdt1-plain": "d671bf378a8d7ac7027a8113f32260849d6e8a6fd0d82b2a3b6ddfb3ff8d828b",
    "zdt2-knn": "cf8397649eb285b6a01427ef91ac8053b80b54d2a56985a912a2d3ffe09b4ab0",
    "zdt2-plain": "87b56a3b6cfe2d3662d1f919359014bbf4c0d5613893998e2dc0159c256cb09f",
    "zdt3-knn": "facc7a8fdcb98cffeae5a0823157884e81f4f00b48d638b9bd81fab4478cd12a",
    "zdt3-plain": "ed39ff1a2464505672fc23fee79ca8afaed3afe28b8aafec2270643d53a770f9",
}


def _f8(values) -> bytes:
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def run_digest(name: str) -> str:
    problem, n_vars, pop_size, generations, k, max_dist, seed = CASES[name]
    evaluator = PlainNoisy() if k is None else KnnAveraged(KnnConfig(k=k, max_dist=max_dist))
    result = run_optimization(
        ZdtProblem(problem, n_vars), NoiseSpec(0.1), evaluator,
        GaConfig(pop_size=pop_size, generations=generations), RngStream(seed),
    )
    h = hashlib.sha256()
    for s in result.population:
        h.update(_f8(s.variables) + _f8(s.objectives) + _f8(s.raw_objectives))
    history = result.history
    h.update(_f8(history.variables_matrix()))
    h.update(_f8(history.raw_matrix()))
    h.update(_f8(history.averaged_matrix()))
    h.update(np.ascontiguousarray(history.batch_numbers(), dtype="<i8").tobytes())
    for t in result.trace:
        h.update(struct.pack("<qqd", t.generation, t.front_size, t.front_hypervolume))
    return h.hexdigest()


def test_stream_version_matches_recorded_digests():
    assert STREAM_VERSION == GOLDEN_STREAM_VERSION


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert run_digest(name) == GOLDEN[name]


def test_k1_digest_equals_plain():
    # k=1 replays the baseline bitwise, so their whole-run digests coincide.
    assert GOLDEN["zdt1-knn-k1"] == GOLDEN["zdt1-plain"]


if __name__ == "__main__":
    print(f"GOLDEN_STREAM_VERSION = {STREAM_VERSION}")
    print("GOLDEN = {")
    for case in sorted(CASES):
        print(f'    "{case}": "{run_digest(case)}",')
    print("}")
