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
    # The pc/pm tags in the names below are the crossover and mutation
    # rates each case was first pinned with. The rates are constants now,
    # so every case runs at CROSSOVER_PROB and mutates every child; the
    # names stay, and with them each case's test id.
    # Beyond the cells above: two more zdt1 seeds, the 29-term g sum of
    # zdt2/zdt3, and a two-member population whose tournaments often tie on
    # rank and crowding, so the coin that every tournament draws decides them
    "zdt1-pm0.5-plain": Case("zdt1", 2, 10, 100, None, None, 15),
    "zdt1-pm0.5-knn": Case("zdt1", 2, 10, 100, 5, 0.25, 15),
    "zdt1-pc0-plain": Case("zdt1", 2, 10, 60, None, None, 16),
    "zdt1-pc1-knn": Case("zdt1", 2, 10, 60, 5, 0.25, 16),
    "zdt2-d30-plain": Case("zdt2", 30, 20, 15, None, None, 17),
    "zdt3-d30-knn": Case("zdt3", 30, 20, 15, 10, 1.0, 18),
    "zdt1-pop2-plain": Case("zdt1", 2, 2, 60, None, None, 19),
    "zdt2-pop2-knn": Case("zdt2", 2, 2, 60, 3, 0.5, 19),
    # drawn once from the space of tests/test_nsga2.py's run_cases: both
    # arms, sigma 0 and 1, n 3-6 and 30, pop 2-12 and 1-8 generations;
    # named variant-dims-pop-gens-sigma-rates-arm
    "zdt1-d6-p12-g7-s0-pc0-pm0-plain": Case("zdt1", 6, 12, 7, None, None, 628210231642650134, 0.0),
    "zdt2-d6-p10-g1-s0-pc0.5-pm0-knn9-md1": Case("zdt2", 6, 10, 1, 9, 1.0, 14203141569153724267, 0.0),
    "zdt3-d30-p2-g4-s1-pc0.9-pm0-plain": Case("zdt3", 30, 2, 4, None, None, 17878937465438767032, 1.0),
    "zdt1-d6-p12-g2-s1-pc1-pm0-knn1-md0.05": Case("zdt1", 6, 12, 2, 1, 0.05, 2872665633532086775, 1.0),
    "zdt2-d4-p2-g4-s0-pc0-pm0.5-plain": Case("zdt2", 4, 2, 4, None, None, 14077319979274362137, 0.0),
    "zdt3-d6-p4-g2-s0-pc0.5-pm0.5-knn7-md0.05": Case("zdt3", 6, 4, 2, 7, 0.05, 15093455027005261522, 0.0),
    "zdt1-d30-p2-g5-s1-pc0.9-pm0.5-plain": Case("zdt1", 30, 2, 5, None, None, 2635905570429641638, 1.0),
    "zdt2-d5-p6-g2-s1-pc1-pm0.5-knn1-md5": Case("zdt2", 5, 6, 2, 1, 5.0, 8982141857309057741, 1.0),
    "zdt3-d4-p4-g5-s0-pc0-pm0.9-plain": Case("zdt3", 4, 4, 5, None, None, 13033761767585532700, 0.0),
    "zdt1-d4-p2-g6-s0-pc0.5-pm0.9-knn12-md1": Case("zdt1", 4, 2, 6, 12, 1.0, 10159604361766352534, 0.0),
    "zdt2-d6-p8-g4-s1-pc0.9-pm0.9-plain": Case("zdt2", 6, 8, 4, None, None, 15937304099941382765, 1.0),
    "zdt3-d3-p8-g1-s1-pc1-pm0.9-knn1-md0.05": Case("zdt3", 3, 8, 1, 1, 0.05, 2011172043994354013, 1.0),
    "zdt1-d5-p12-g1-s0-pc0-pm1-plain": Case("zdt1", 5, 12, 1, None, None, 11768495216240371230, 0.0),
    "zdt2-d3-p2-g8-s0-pc0.5-pm1-knn6-md1": Case("zdt2", 3, 2, 8, 6, 1.0, 12988153356468024572, 0.0),
    "zdt3-d6-p12-g6-s1-pc0.9-pm1-plain": Case("zdt3", 6, 12, 6, None, None, 14591182124187737415, 1.0),
    "zdt1-d30-p6-g5-s1-pc1-pm1-knn12-md5": Case("zdt1", 30, 6, 5, 12, 5.0, 10356244818130637661, 1.0),
    "zdt2-d5-p8-g5-s0-pc0-pm0-plain": Case("zdt2", 5, 8, 5, None, None, 1104412928703481321, 0.0),
    "zdt3-d5-p8-g6-s0-pc0.5-pm0-knn6-md5": Case("zdt3", 5, 8, 6, 6, 5.0, 16210306484998841118, 0.0),
    "zdt1-d4-p10-g6-s1-pc0.9-pm0-plain": Case("zdt1", 4, 10, 6, None, None, 17754771154356683064, 1.0),
    "zdt2-d6-p10-g4-s1-pc1-pm0-knn12-md0.05": Case("zdt2", 6, 10, 4, 12, 0.05, 13176502768111157279, 1.0),
    "zdt3-d3-p4-g1-s0-pc0-pm0.5-plain": Case("zdt3", 3, 4, 1, None, None, 6844482584580545253, 0.0),
    "zdt1-d30-p2-g5-s0-pc0.5-pm0.5-knn5-md0.25": Case("zdt1", 30, 2, 5, 5, 0.25, 15504302852091754788, 0.0),
    "zdt2-d4-p10-g3-s1-pc0.9-pm0.5-plain": Case("zdt2", 4, 10, 3, None, None, 4836980429066367209, 1.0),
    "zdt3-d30-p12-g3-s1-pc1-pm0.5-knn8-md0.05": Case("zdt3", 30, 12, 3, 8, 0.05, 14601200187650091067, 1.0),
}

GOLDEN_STREAM_VERSION = 3
GOLDEN = {
    "zdt1-d30-knn": "ec3e37397ff1947cc648fde091156fb05369d11d0b5b7a3e27cfa0b08fd2a059",
    "zdt1-d30-p2-g5-s0-pc0.5-pm0.5-knn5-md0.25": "59c1115b5ecc0f6f98131c4349a9a6bcdbac2fa42008cd6e945af2067f70ad4a",
    "zdt1-d30-p2-g5-s1-pc0.9-pm0.5-plain": "d86bc95d957417bf88dfe320012eea472a5f996bf2bb1b48d36ce5f929886794",
    "zdt1-d30-p6-g5-s1-pc1-pm1-knn12-md5": "ce985176142472a079262c2421b2633f4281e68c962d6d6c8952fdddb65be8d2",
    "zdt1-d4-p10-g6-s1-pc0.9-pm0-plain": "736a5a460be8519af69c1edfb99710d99db6f04ea2385ef118ca2b96369bc4fa",
    "zdt1-d4-p2-g6-s0-pc0.5-pm0.9-knn12-md1": "438868ebd3989c6b53c1ff4a80c4db135457821bd3cb41baeb8eb3011354a128",
    "zdt1-d5-p12-g1-s0-pc0-pm1-plain": "6bc188ba91e86d889cc5d3e39216fa688f0c2035b487270b786cd010bb5f7a02",
    "zdt1-d6-p12-g2-s1-pc1-pm0-knn1-md0.05": "7bdbaf6a9a217006c368b9ec27cc18cc3636a09f4ae12f952f806339364281c1",
    "zdt1-d6-p12-g7-s0-pc0-pm0-plain": "0e26d63d305c4174aafb76ba78fb109035c84949db738d8a58c138e10bce1ad5",
    "zdt1-knn": "349d0befde92b87c71d8920b5292470328431cb33af88b90b7fde1d9caae75e0",
    "zdt1-knn-k1": "9aafa9d4834c6324103e9deabfedf1ba85212c571db1c48c3da78bd557046f3e",
    "zdt1-pc0-plain": "646d70a00d83e1ccd92b4327e2931d54061194dcfdef647d02e2d60c493652dc",
    "zdt1-pc1-knn": "13454478bbe44adfd14708b932429afdf897525d6ed75d998e5ebdc07bfcb31c",
    "zdt1-plain": "9aafa9d4834c6324103e9deabfedf1ba85212c571db1c48c3da78bd557046f3e",
    "zdt1-pm0.5-knn": "441edabba642229ff06dab82639e673d226e3ef2e9983f8efa83d35684658f5e",
    "zdt1-pm0.5-plain": "d9bf57fbc873b8f58cc99ffee3b95015d8c0856a59eaf1b6e42fc4ffbdffb44f",
    "zdt1-pop2-plain": "f92f943483fe35d24e8c48711ffa7147a60481e0eae61a18cb8844c98e998ccc",
    "zdt2-d3-p2-g8-s0-pc0.5-pm1-knn6-md1": "46d6791a22e5087e833fda4547d714bbd4b3a05ffbba9b437207256213aaf3fd",
    "zdt2-d30-plain": "dbb68817783380fcf5591f44d06cbea9d3700dd835baf7d04e99f08e8f6f052e",
    "zdt2-d4-p10-g3-s1-pc0.9-pm0.5-plain": "b0bf60303d0e88fa99202e20dfe53864bb108b61034df48374dc0173c10321f7",
    "zdt2-d4-p2-g4-s0-pc0-pm0.5-plain": "8b5272b0ccbc4375b57c3ac0724d6147ad27be129a18e727f210b807c3fae823",
    "zdt2-d5-p6-g2-s1-pc1-pm0.5-knn1-md5": "69ab96205464f3fd4c0cb1e4920501e2d16b7e6f4245b3ba5efdecc38a478822",
    "zdt2-d5-p8-g5-s0-pc0-pm0-plain": "7bffdd9b5b5e36fc6b6e796770d44434dac6dc44160a9c33788e9730e9d2af06",
    "zdt2-d6-p10-g1-s0-pc0.5-pm0-knn9-md1": "0707188db228cfc1e231908a11dc6262235a890eaec30780cc670eddec094774",
    "zdt2-d6-p10-g4-s1-pc1-pm0-knn12-md0.05": "fc1bde88a7ae2461ea8a142822b185fcda34a90a218a62bb4fb959499d043032",
    "zdt2-d6-p8-g4-s1-pc0.9-pm0.9-plain": "680fd2af9189dd906c7675973853c4cc0a0b63b11418e630347473325ed11fc5",
    "zdt2-knn": "b1f091050067ee7d57542d6062c60c75634358031246cbbcdb721e4ca4849dfd",
    "zdt2-plain": "10d47f6bb1136b75812306c2c3c556ba31fc799f72d6a064ca0ac58ae70f331d",
    "zdt2-pop2-knn": "b9e46a1aa18c397c4cd92570351482ab7744f40252b6dbcb1f8fc1c32869f056",
    "zdt3-d3-p4-g1-s0-pc0-pm0.5-plain": "70bb5e9ea3487e0754b1f4c75ff618cd98faffd83933a3d5030a161891372b65",
    "zdt3-d3-p8-g1-s1-pc1-pm0.9-knn1-md0.05": "14e3d7d0b45739422f558142fb07f2e28f45f87c05564b3f61ac22fe696be7e9",
    "zdt3-d30-knn": "0353de5d57f00c295516c85326164f57d43c53e5cd8a238fd2dfbff6389ec8d1",
    "zdt3-d30-p12-g3-s1-pc1-pm0.5-knn8-md0.05": "a9374a56377f39a08e32f6c214bb6e2179f6c66ca732f7670e078c8695f518f9",
    "zdt3-d30-p2-g4-s1-pc0.9-pm0-plain": "c157816db87e58a4a415b8574dfb8fa829bd2bbed4a26014596882820f53bb38",
    "zdt3-d4-p4-g5-s0-pc0-pm0.9-plain": "2fb21138a5c8d311df4a24ea097296d094e4fee95187c5e44ee0b0ceb29d9e7c",
    "zdt3-d5-p8-g6-s0-pc0.5-pm0-knn6-md5": "529e98de01c6f7760e29a2704d13cf83a29cc86d30ec45d27165bab031131a1c",
    "zdt3-d6-p12-g6-s1-pc0.9-pm1-plain": "a582b6c956e90a3400971aa32c0cf982e7597b339ab5c61e2b96288665cff110",
    "zdt3-d6-p4-g2-s0-pc0.5-pm0.5-knn7-md0.05": "06329bf7d9770348b728d5fba7072a91fa7902509cba1242754f0ed4b4816721",
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
    ga = GaConfig(pop_size=case.pop_size, generations=case.generations)
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
