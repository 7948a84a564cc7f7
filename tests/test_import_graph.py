"""What importing the package loads.

Every CLI call, grid worker and benchmark probe starts by importing the
package, so its import graph is start-up cost. numpy is the one runtime
dependency; scipy, which the tests use as an oracle, must not load at all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import knnavg

SRC = str(Path(knnavg.__file__).resolve().parents[1])


def test_package_import_loads_no_scipy():
    probe = (
        "import json, sys, knnavg, knnavg.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert json.loads(done.stdout) == []
