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
from typing import NamedTuple

import numpy as np
import pytest

from knnavg.averaging import KnnConfig
from knnavg.core import STREAM_VERSION, RngStream
from knnavg.nsga2 import GaConfig, KnnAveraged, PlainNoisy, run_optimization
from knnavg.problems import NoiseSpec, ZdtProblem


class Case(NamedTuple):
    problem: str
    n_vars: int
    pop_size: int
    generations: int
    k: int | None  # None runs the plain arm
    max_dist: float | None
    seed: int
    crossover_prob: float = 0.9
    mutation_prob: float = 1.0


CASES = {
    "zdt1-plain": Case("zdt1", 2, 10, 100, None, None, 11),
    "zdt1-knn": Case("zdt1", 2, 10, 100, 5, 0.25, 11),
    "zdt1-knn-k1": Case("zdt1", 2, 10, 100, 1, 0.25, 11),
    "zdt2-plain": Case("zdt2", 2, 10, 100, None, None, 12),
    "zdt2-knn": Case("zdt2", 2, 10, 100, 10, 0.25, 12),
    "zdt3-plain": Case("zdt3", 2, 10, 100, None, None, 13),
    "zdt3-knn": Case("zdt3", 2, 10, 100, 5, 0.25, 13),
    "zdt1-d30-knn": Case("zdt1", 30, 20, 15, 10, 1.0, 14),
    # branches the cells above never take: offspring that skip mutation,
    # pairs that never or always cross, the 29-term g sum of zdt2/zdt3, and
    # a two-member population where tournaments tie and toss a coin
    "zdt1-pm0.5-plain": Case("zdt1", 2, 10, 100, None, None, 15, mutation_prob=0.5),
    "zdt1-pm0.5-knn": Case("zdt1", 2, 10, 100, 5, 0.25, 15, mutation_prob=0.5),
    "zdt1-pc0-plain": Case("zdt1", 2, 10, 60, None, None, 16, crossover_prob=0.0),
    "zdt1-pc1-knn": Case("zdt1", 2, 10, 60, 5, 0.25, 16, crossover_prob=1.0),
    "zdt2-d30-plain": Case("zdt2", 30, 20, 15, None, None, 17),
    "zdt3-d30-knn": Case("zdt3", 30, 20, 15, 10, 1.0, 18, mutation_prob=0.5),
    "zdt1-pop2-plain": Case("zdt1", 2, 2, 60, None, None, 19),
    "zdt2-pop2-knn": Case("zdt2", 2, 2, 60, 3, 0.5, 19),
}

GOLDEN_STREAM_VERSION = 1
GOLDEN = {
    "zdt1-d30-knn": "d4040edf633e1c814f14d43c33475aa7124c770a1a14da87f650486855315db5",
    "zdt1-knn": "0f60c7859002be529ec0e79f98942e9a537647e168326493a4e4a44c065e23be",
    "zdt1-knn-k1": "d671bf378a8d7ac7027a8113f32260849d6e8a6fd0d82b2a3b6ddfb3ff8d828b",
    "zdt1-pc0-plain": "5e61f8b82dd39191c41eb7f39e6044f9d5041a282f4c9f6c370bd39ed23e1d4f",
    "zdt1-pc1-knn": "13adde97a4cf53a89b3dcd82dd4a9f7fe8111c2ceeeceff37edef60e6c8f2f45",
    "zdt1-plain": "d671bf378a8d7ac7027a8113f32260849d6e8a6fd0d82b2a3b6ddfb3ff8d828b",
    "zdt1-pm0.5-knn": "d3dc20b04022edf1b90ced92e04e6204c7b7017f35fec62878376b9f0adb8a51",
    "zdt1-pm0.5-plain": "4b24151a9b2534cbcc543cf5113018fcd56fc5b41eb8e5e8b99fa37cd706320c",
    "zdt1-pop2-plain": "56d565b25eeb7c1666f63f512423a310f4457d0fe437895e5894041b0a652903",
    "zdt2-d30-plain": "1b59c52dbb685c6ca708610131e51642bbb085e0d9c824e0fbb60c3c6ad6408a",
    "zdt2-knn": "cf8397649eb285b6a01427ef91ac8053b80b54d2a56985a912a2d3ffe09b4ab0",
    "zdt2-plain": "87b56a3b6cfe2d3662d1f919359014bbf4c0d5613893998e2dc0159c256cb09f",
    "zdt2-pop2-knn": "411807f98047036bfd1024e2a3d3fe56ab979f6aca43a453eda372d08c9c7bf0",
    "zdt3-d30-knn": "3cbc9190efb755b77c01b9b75223259bd23d3989f3ad478ac34ce3c3a00c3f0f",
    "zdt3-knn": "facc7a8fdcb98cffeae5a0823157884e81f4f00b48d638b9bd81fab4478cd12a",
    "zdt3-plain": "ed39ff1a2464505672fc23fee79ca8afaed3afe28b8aafec2270643d53a770f9",
}


def _f8(values) -> bytes:
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def run_digest(name: str) -> str:
    case = CASES[name]
    evaluator = (
        PlainNoisy() if case.k is None
        else KnnAveraged(KnnConfig(k=case.k, max_dist=case.max_dist))
    )
    ga = GaConfig(
        pop_size=case.pop_size, generations=case.generations,
        crossover_prob=case.crossover_prob, mutation_prob=case.mutation_prob,
    )
    result = run_optimization(
        ZdtProblem(case.problem, case.n_vars), NoiseSpec(0.1), evaluator, ga,
        RngStream(case.seed),
    )
    h = hashlib.sha256()
    population = result.population
    # the recorded digests hash each row's variables, objectives and raw objectives in turn
    h.update(_f8(np.hstack((population.variables, population.objectives,
                            population.raw_objectives))))
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
