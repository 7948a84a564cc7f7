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
    # a two-member population whose tournaments often tie on rank and
    # crowding, so the coin that every tournament draws decides them
    "zdt1-pm0.5-plain": Case("zdt1", 2, 10, 100, None, None, 15, mutation_prob=0.5),
    "zdt1-pm0.5-knn": Case("zdt1", 2, 10, 100, 5, 0.25, 15, mutation_prob=0.5),
    "zdt1-pc0-plain": Case("zdt1", 2, 10, 60, None, None, 16, crossover_prob=0.0),
    "zdt1-pc1-knn": Case("zdt1", 2, 10, 60, 5, 0.25, 16, crossover_prob=1.0),
    "zdt2-d30-plain": Case("zdt2", 30, 20, 15, None, None, 17),
    "zdt3-d30-knn": Case("zdt3", 30, 20, 15, 10, 1.0, 18, mutation_prob=0.5),
    "zdt1-pop2-plain": Case("zdt1", 2, 2, 60, None, None, 19),
    "zdt2-pop2-knn": Case("zdt2", 2, 2, 60, 3, 0.5, 19),
}

GOLDEN_STREAM_VERSION = 2
GOLDEN = {
    "zdt1-d30-knn": "6a33575b567af03caf5976a089ddc4d8658c1429e18fe6f53fe2a028b2a66530",
    "zdt1-knn": "1dba22bc34345728aafed4c3358d9a0003fe8355d43535889bb79e4f24efcde3",
    "zdt1-knn-k1": "9aafa9d4834c6324103e9deabfedf1ba85212c571db1c48c3da78bd557046f3e",
    "zdt1-pc0-plain": "f8acc3eb52cc409dd101fedc21a38e41ffd918ef97dcd833547d306d135f58e7",
    "zdt1-pc1-knn": "924f7af3c7e4dcf16115feca3d1e3944d9085b9e0299268ea097e1fcdc759784",
    "zdt1-plain": "9aafa9d4834c6324103e9deabfedf1ba85212c571db1c48c3da78bd557046f3e",
    "zdt1-pm0.5-knn": "5ed329d0ed2b623acf6f4b2cce746617e44f15f27554daf9d3e373ecb6800d24",
    "zdt1-pm0.5-plain": "c2d9f0552a58a522453798c23f7058f979caa7aeb1ad838faf8b218073b66721",
    "zdt1-pop2-plain": "f92f943483fe35d24e8c48711ffa7147a60481e0eae61a18cb8844c98e998ccc",
    "zdt2-d30-plain": "dbb68817783380fcf5591f44d06cbea9d3700dd835baf7d04e99f08e8f6f052e",
    "zdt2-knn": "4cefbc0200f7d5e56374f6d4c11c84353922e16875b304528423b48b3fb2fa9f",
    "zdt2-plain": "10d47f6bb1136b75812306c2c3c556ba31fc799f72d6a064ca0ac58ae70f331d",
    "zdt2-pop2-knn": "f3b61f053d5bc9ff3128a1a879b06710377e48313daf4a21bcafcb47194b5dce",
    "zdt3-d30-knn": "e131710478decbf11b97292534b070915eddb0b0df9a884025b11a0871a4d420",
    "zdt3-knn": "1b1605c5749d1908127b3a0d5babfe28dd382351a46a3576af83fa0a9ddaeb20",
    "zdt3-plain": "de1da525578e29a4ca1ada52b4ce34f5af4e40f9bd5795bf9741904ca43c678c",
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
