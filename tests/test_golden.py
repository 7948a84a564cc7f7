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
from knnavg.nsga2 import GaConfig, KnnAveraged, PlainNoisy, run_stack
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
    sigma: float = 0.1


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
    # drawn once from the space of tests/test_nsga2.py's run_cases: both
    # arms, every gate value, sigma 0 and 1, n 3-6 and 30, pop 2-12 and 1-8
    # generations; named variant-dims-pop-gens-sigma-gates-arm
    "zdt1-d6-p12-g7-s0-pc0-pm0-plain": Case("zdt1", 6, 12, 7, None, None, 628210231642650134, 0.0, 0.0, 0.0),
    "zdt2-d6-p10-g1-s0-pc0.5-pm0-knn9-md1": Case("zdt2", 6, 10, 1, 9, 1.0, 14203141569153724267, 0.5, 0.0, 0.0),
    "zdt3-d30-p2-g4-s1-pc0.9-pm0-plain": Case("zdt3", 30, 2, 4, None, None, 17878937465438767032, 0.9, 0.0, 1.0),
    "zdt1-d6-p12-g2-s1-pc1-pm0-knn1-md0.05": Case("zdt1", 6, 12, 2, 1, 0.05, 2872665633532086775, 1.0, 0.0, 1.0),
    "zdt2-d4-p2-g4-s0-pc0-pm0.5-plain": Case("zdt2", 4, 2, 4, None, None, 14077319979274362137, 0.0, 0.5, 0.0),
    "zdt3-d6-p4-g2-s0-pc0.5-pm0.5-knn7-md0.05": Case("zdt3", 6, 4, 2, 7, 0.05, 15093455027005261522, 0.5, 0.5, 0.0),
    "zdt1-d30-p2-g5-s1-pc0.9-pm0.5-plain": Case("zdt1", 30, 2, 5, None, None, 2635905570429641638, 0.9, 0.5, 1.0),
    "zdt2-d5-p6-g2-s1-pc1-pm0.5-knn1-md5": Case("zdt2", 5, 6, 2, 1, 5.0, 8982141857309057741, 1.0, 0.5, 1.0),
    "zdt3-d4-p4-g5-s0-pc0-pm0.9-plain": Case("zdt3", 4, 4, 5, None, None, 13033761767585532700, 0.0, 0.9, 0.0),
    "zdt1-d4-p2-g6-s0-pc0.5-pm0.9-knn12-md1": Case("zdt1", 4, 2, 6, 12, 1.0, 10159604361766352534, 0.5, 0.9, 0.0),
    "zdt2-d6-p8-g4-s1-pc0.9-pm0.9-plain": Case("zdt2", 6, 8, 4, None, None, 15937304099941382765, 0.9, 0.9, 1.0),
    "zdt3-d3-p8-g1-s1-pc1-pm0.9-knn1-md0.05": Case("zdt3", 3, 8, 1, 1, 0.05, 2011172043994354013, 1.0, 0.9, 1.0),
    "zdt1-d5-p12-g1-s0-pc0-pm1-plain": Case("zdt1", 5, 12, 1, None, None, 11768495216240371230, 0.0, 1.0, 0.0),
    "zdt2-d3-p2-g8-s0-pc0.5-pm1-knn6-md1": Case("zdt2", 3, 2, 8, 6, 1.0, 12988153356468024572, 0.5, 1.0, 0.0),
    "zdt3-d6-p12-g6-s1-pc0.9-pm1-plain": Case("zdt3", 6, 12, 6, None, None, 14591182124187737415, 0.9, 1.0, 1.0),
    "zdt1-d30-p6-g5-s1-pc1-pm1-knn12-md5": Case("zdt1", 30, 6, 5, 12, 5.0, 10356244818130637661, 1.0, 1.0, 1.0),
    "zdt2-d5-p8-g5-s0-pc0-pm0-plain": Case("zdt2", 5, 8, 5, None, None, 1104412928703481321, 0.0, 0.0, 0.0),
    "zdt3-d5-p8-g6-s0-pc0.5-pm0-knn6-md5": Case("zdt3", 5, 8, 6, 6, 5.0, 16210306484998841118, 0.5, 0.0, 0.0),
    "zdt1-d4-p10-g6-s1-pc0.9-pm0-plain": Case("zdt1", 4, 10, 6, None, None, 17754771154356683064, 0.9, 0.0, 1.0),
    "zdt2-d6-p10-g4-s1-pc1-pm0-knn12-md0.05": Case("zdt2", 6, 10, 4, 12, 0.05, 13176502768111157279, 1.0, 0.0, 1.0),
    "zdt3-d3-p4-g1-s0-pc0-pm0.5-plain": Case("zdt3", 3, 4, 1, None, None, 6844482584580545253, 0.0, 0.5, 0.0),
    "zdt1-d30-p2-g5-s0-pc0.5-pm0.5-knn5-md0.25": Case("zdt1", 30, 2, 5, 5, 0.25, 15504302852091754788, 0.5, 0.5, 0.0),
    "zdt2-d4-p10-g3-s1-pc0.9-pm0.5-plain": Case("zdt2", 4, 10, 3, None, None, 4836980429066367209, 0.9, 0.5, 1.0),
    "zdt3-d30-p12-g3-s1-pc1-pm0.5-knn8-md0.05": Case("zdt3", 30, 12, 3, 8, 0.05, 14601200187650091067, 1.0, 0.5, 1.0),
}

GOLDEN_STREAM_VERSION = 3
GOLDEN = {
    "zdt1-d30-knn": "ec3e37397ff1947cc648fde091156fb05369d11d0b5b7a3e27cfa0b08fd2a059",
    "zdt1-d30-p2-g5-s0-pc0.5-pm0.5-knn5-md0.25": "0f5b1973134f3f46baeb2478aad7b78cb643bcdfb8e00c8f7e65c33cb7017ba7",
    "zdt1-d30-p2-g5-s1-pc0.9-pm0.5-plain": "972cd9ee139be01cf909d6fff4175a0e6e161e92d696c0a691b3a78487eb1aa8",
    "zdt1-d30-p6-g5-s1-pc1-pm1-knn12-md5": "f90bd4ebeb9bd9ff96fdbeb3e67ee3e628f65ea908c43c010ff2b20791436d45",
    "zdt1-d4-p10-g6-s1-pc0.9-pm0-plain": "d6e8c598585f6da0a7f26eef6e7aba1ba7d8daafe0e645c8758e6102fcee5688",
    "zdt1-d4-p2-g6-s0-pc0.5-pm0.9-knn12-md1": "ef30cef67a5b773317994c4db2c6dfbcfd4ba34b65aa6238d64eb14e4848bca3",
    "zdt1-d5-p12-g1-s0-pc0-pm1-plain": "6f77b1e3781974df7834d64f1b402a1ae35c9ca6796a39763fd7139ac11189eb",
    "zdt1-d6-p12-g2-s1-pc1-pm0-knn1-md0.05": "813df2946f616b8353c814f83afae372923cdf0578c539a2ef88d6d5e5c4ef27",
    "zdt1-d6-p12-g7-s0-pc0-pm0-plain": "b2055d63eba21f5e9fa6bde6d99e7cdcba46ac132d47d1490b085cdc29fb601b",
    "zdt1-knn": "349d0befde92b87c71d8920b5292470328431cb33af88b90b7fde1d9caae75e0",
    "zdt1-knn-k1": "9aafa9d4834c6324103e9deabfedf1ba85212c571db1c48c3da78bd557046f3e",
    "zdt1-pc0-plain": "f8acc3eb52cc409dd101fedc21a38e41ffd918ef97dcd833547d306d135f58e7",
    "zdt1-pc1-knn": "46fb46c9fe99180d52a73fb7a50e06b3a8ac3edc99861688582afe384461c73d",
    "zdt1-plain": "9aafa9d4834c6324103e9deabfedf1ba85212c571db1c48c3da78bd557046f3e",
    "zdt1-pm0.5-knn": "217f4c3b8465ab7c1f6702e08f70f5053192e6d355bbf48685d392442d302905",
    "zdt1-pm0.5-plain": "c2d9f0552a58a522453798c23f7058f979caa7aeb1ad838faf8b218073b66721",
    "zdt1-pop2-plain": "f92f943483fe35d24e8c48711ffa7147a60481e0eae61a18cb8844c98e998ccc",
    "zdt2-d3-p2-g8-s0-pc0.5-pm1-knn6-md1": "b3f0155d4fdb9c3a89d66b4e8a7fb34d3868d46b8e565e9a00adcc0a3e93c77f",
    "zdt2-d30-plain": "dbb68817783380fcf5591f44d06cbea9d3700dd835baf7d04e99f08e8f6f052e",
    "zdt2-d4-p10-g3-s1-pc0.9-pm0.5-plain": "4ef6bbe8f424a52ab125dc2c477e84b287deb28656db6ecc944ebef880d8ced9",
    "zdt2-d4-p2-g4-s0-pc0-pm0.5-plain": "768db3de5de23c9cff3c07151e46bf3f53fc47d404ad390230c24c39a6772284",
    "zdt2-d5-p6-g2-s1-pc1-pm0.5-knn1-md5": "59ffeeb1464b0d79084c20d88d3eeb69dad6c805976bb6d1bfc51e6853e78e6e",
    "zdt2-d5-p8-g5-s0-pc0-pm0-plain": "3230d4abd4ca7105b261e95cd1748dd28f198826dd6d30bd20079711d03e265a",
    "zdt2-d6-p10-g1-s0-pc0.5-pm0-knn9-md1": "c0e3034e56ddffe59d5a5c91cfb5a8fd852a4730840f957214618e725e983886",
    "zdt2-d6-p10-g4-s1-pc1-pm0-knn12-md0.05": "2e056928f2d938170cba0cf080c6906b2f32502101237edabf550a75747614b3",
    "zdt2-d6-p8-g4-s1-pc0.9-pm0.9-plain": "680fd2af9189dd906c7675973853c4cc0a0b63b11418e630347473325ed11fc5",
    "zdt2-knn": "b1f091050067ee7d57542d6062c60c75634358031246cbbcdb721e4ca4849dfd",
    "zdt2-plain": "10d47f6bb1136b75812306c2c3c556ba31fc799f72d6a064ca0ac58ae70f331d",
    "zdt2-pop2-knn": "b9e46a1aa18c397c4cd92570351482ab7744f40252b6dbcb1f8fc1c32869f056",
    "zdt3-d3-p4-g1-s0-pc0-pm0.5-plain": "d80a03416842b7426a0c44aafdf7e230c926c811f81b2020c17430fad5d2d82f",
    "zdt3-d3-p8-g1-s1-pc1-pm0.9-knn1-md0.05": "14e3d7d0b45739422f558142fb07f2e28f45f87c05564b3f61ac22fe696be7e9",
    "zdt3-d30-knn": "524cb15729374c634787ce2f20131c244db01d0e99bbd80fd740644ef18ce003",
    "zdt3-d30-p12-g3-s1-pc1-pm0.5-knn8-md0.05": "77e05f4f4d96bcb7cdc3eac8ff5f1b0a5ab83ac1b204a9addcd0e831001581a2",
    "zdt3-d30-p2-g4-s1-pc0.9-pm0-plain": "7f41777f8d2d5d249c505f5183e6d1891c11a8bbb85b2a9ea6b2764bb14fbd1c",
    "zdt3-d4-p4-g5-s0-pc0-pm0.9-plain": "7819734b390eeb7c10efd885c61286517e7bf18e7f6677c09235f637a8625e06",
    "zdt3-d5-p8-g6-s0-pc0.5-pm0-knn6-md5": "cf11ecad1f26347f54bfbffd4fd5ec213f546258bc7d10e6bb977a86ce9eae2b",
    "zdt3-d6-p12-g6-s1-pc0.9-pm1-plain": "a582b6c956e90a3400971aa32c0cf982e7597b339ab5c61e2b96288665cff110",
    "zdt3-d6-p4-g2-s0-pc0.5-pm0.5-knn7-md0.05": "9753e2f0aa426237107a879d25ca020296d80890d1a8ff4d18195944af79a656",
    "zdt3-knn": "ae0f812acc11dcc9dfc153a67f8df4f275b2e3fb6a6ffee95b0b0ff98a596b28",
    "zdt3-plain": "de1da525578e29a4ca1ada52b4ce34f5af4e40f9bd5795bf9741904ca43c678c",
}


def _f8(values) -> bytes:
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def run_digest(name: str, stack_seeds: tuple[int, ...] = ()) -> str:
    """Digest of a cell's run; with ``stack_seeds`` the run is advanced
    between runs of those seeds in one stack."""
    case = CASES[name]
    evaluator = (
        PlainNoisy() if case.k is None
        else KnnAveraged(KnnConfig(k=case.k, max_dist=case.max_dist))
    )
    ga = GaConfig(
        pop_size=case.pop_size, generations=case.generations,
        crossover_prob=case.crossover_prob, mutation_prob=case.mutation_prob,
    )
    seeds = stack_seeds[:1] + (case.seed,) + stack_seeds[1:]
    results = run_stack(
        ZdtProblem(case.problem, case.n_vars), NoiseSpec(case.sigma), evaluator, ga,
        [RngStream(seed) for seed in seeds],
    )
    result = results[min(1, len(stack_seeds))]
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
    for g, (size, hv) in enumerate(zip(result.front_sizes, result.front_hypervolumes)):
        h.update(struct.pack("<qqd", g, size, hv))
    return h.hexdigest()


def test_stream_version_matches_recorded_digests():
    assert STREAM_VERSION == GOLDEN_STREAM_VERSION


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert run_digest(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest_inside_a_stack(name):
    # two other runs of the cell around it share every array of the loop
    assert run_digest(name, stack_seeds=(CASES[name].seed + 1, 2**64 - 1)) == GOLDEN[name]


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
