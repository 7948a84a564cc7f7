"""Every demo runs to completion.

Each demo is copied into a temporary directory and run there in a fresh
interpreter, so what it writes next to its own file stays out of the
source tree.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import knnavg

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    src = str(Path(knnavg.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
