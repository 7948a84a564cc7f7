"""Smoke test of the benchmark at toy scale.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload of BENCHMARK.json untraced and traced at ``--scale toy``
and checks that each declared metric is emitted with its unit, that the
outputs pass their checks, and that the traced run's span tree is well
formed. Also checks that the command fails cleanly without the sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*BENCHMARK["command"], *args], cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_result(line: str, declared: list[dict]) -> dict:
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert set(emitted) == {"value", "unit"}
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float)) and math.isfinite(emitted["value"])
    return result


def check_span_tree(spans: list[list]) -> None:
    """Children lie inside their parents; self times are >= 0 and sum to the root."""
    roots = [s for s in spans if s[3] == -1]
    assert len(roots) == 1
    children: dict[int, list[list]] = {}
    for name, start, end, parent in spans:
        assert start <= end, name
        if parent != -1:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end, name
            children.setdefault(parent, []).append([start, end])
    total_self = 0.0
    for i, (name, start, end, _) in enumerate(spans):
        own = end - start
        for c_start, c_end in children.get(i, []):
            own -= c_end - c_start
        assert own >= -1e-9, name
        total_self += own
    _, r_start, r_end, _ = roots[0]
    assert total_self == pytest.approx(r_end - r_start, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    done = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--scale", "toy")
    assert done.returncode == 0, done.stderr
    result = check_result(done.stdout.strip().splitlines()[-1], BENCHMARK["end_to_end"])
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_span_tree(workload, tmp_path):
    spans_file = tmp_path / "spans.json"
    done = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "1", "--scale", "toy", "--spans-out", str(spans_file))
    assert done.returncode == 0, done.stderr
    check_result(done.stdout.strip().splitlines()[-1], BENCHMARK["per_layer"])
    check_span_tree(json.loads(spans_file.read_text())["spans"])


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
