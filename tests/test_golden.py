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
import os
import struct
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import knnavg
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

GOLDEN_STREAM_VERSION = 3
GOLDEN = {
    "zdt1-d30-knn": "ec3e37397ff1947cc648fde091156fb05369d11d0b5b7a3e27cfa0b08fd2a059",
    "zdt1-knn": "349d0befde92b87c71d8920b5292470328431cb33af88b90b7fde1d9caae75e0",
    "zdt1-knn-k1": "9aafa9d4834c6324103e9deabfedf1ba85212c571db1c48c3da78bd557046f3e",
    "zdt1-pc0-plain": "f8acc3eb52cc409dd101fedc21a38e41ffd918ef97dcd833547d306d135f58e7",
    "zdt1-pc1-knn": "46fb46c9fe99180d52a73fb7a50e06b3a8ac3edc99861688582afe384461c73d",
    "zdt1-plain": "9aafa9d4834c6324103e9deabfedf1ba85212c571db1c48c3da78bd557046f3e",
    "zdt1-pm0.5-knn": "217f4c3b8465ab7c1f6702e08f70f5053192e6d355bbf48685d392442d302905",
    "zdt1-pm0.5-plain": "c2d9f0552a58a522453798c23f7058f979caa7aeb1ad838faf8b218073b66721",
    "zdt1-pop2-plain": "f92f943483fe35d24e8c48711ffa7147a60481e0eae61a18cb8844c98e998ccc",
    "zdt2-d30-plain": "dbb68817783380fcf5591f44d06cbea9d3700dd835baf7d04e99f08e8f6f052e",
    "zdt2-knn": "b1f091050067ee7d57542d6062c60c75634358031246cbbcdb721e4ca4849dfd",
    "zdt2-plain": "10d47f6bb1136b75812306c2c3c556ba31fc799f72d6a064ca0ac58ae70f331d",
    "zdt2-pop2-knn": "b9e46a1aa18c397c4cd92570351482ab7744f40252b6dbcb1f8fc1c32869f056",
    "zdt3-d30-knn": "524cb15729374c634787ce2f20131c244db01d0e99bbd80fd740644ef18ce003",
    "zdt3-knn": "ae0f812acc11dcc9dfc153a67f8df4f275b2e3fb6a6ffee95b0b0ff98a596b28",
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


@pytest.mark.parametrize("kernel", ["Prescott", "Haswell"])
def test_knn_digests_independent_of_blas_kernel(kernel):
    # OpenBLAS picks its CPU kernel once, when it loads, and
    # OPENBLAS_CORETYPE overrides that pick, so the k-NN cells are recomputed
    # in a fresh process. A numpy built on another BLAS ignores the variable.
    names = sorted(name for name, case in CASES.items() if case.k is not None)
    paths = [str(Path(__file__).parent), str(Path(knnavg.__file__).parents[1])]
    env = dict(
        os.environ, OPENBLAS_CORETYPE=kernel,
        PYTHONPATH=os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")]),
    )
    script = "import sys, test_golden; print(*map(test_golden.run_digest, sys.argv[1:]))"
    out = subprocess.run(
        [sys.executable, "-c", script, *names], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert dict(zip(names, out.split())) == {name: GOLDEN[name] for name in names}


if __name__ == "__main__":
    print(f"GOLDEN_STREAM_VERSION = {STREAM_VERSION}")
    print("GOLDEN = {")
    for case in sorted(CASES):
        print(f'    "{case}": "{run_digest(case)}",')
    print("}")
