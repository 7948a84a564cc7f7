"""What importing the package loads.

Every CLI call, grid worker and benchmark probe starts by importing the
package, so its import graph is start-up cost. numpy is the one runtime
dependency; scipy, which the tests use as an oracle, must not load at all.
Nor must the process pool, which only a grid run in parallel starts, or
``configparser``, which only a grid read from ``--config`` uses.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import knnavg

SRC = str(Path(knnavg.__file__).resolve().parents[1])


def loaded_modules() -> list[str]:
    """Every module that ``import knnavg, knnavg.cli`` leaves loaded, in a fresh process."""
    probe = "import json, sys, knnavg, knnavg.cli; print(json.dumps(sorted(sys.modules)))"
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout)


def test_package_import_loads_no_scipy():
    assert [m for m in loaded_modules() if m.split(".")[0] == "scipy"] == []


def test_package_import_loads_no_process_pool():
    loaded = loaded_modules()
    assert [m for m in loaded if m.split(".")[0] == "multiprocessing"] == []
    assert "concurrent.futures.process" not in loaded


def test_package_import_loads_no_configparser():
    assert "configparser" not in loaded_modules()
