"""What importing the package loads.

Every CLI call, grid worker and benchmark probe starts by importing the
package, so its import graph is start-up cost. scipy serves only ``ndtri``
at run time; ``scipy.stats`` and ``scipy.spatial`` would each add hundreds
of milliseconds of imports for nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import knnavg

SRC = str(Path(knnavg.__file__).resolve().parents[1])


def test_package_import_leaves_scipy_stats_and_spatial_unloaded():
    probe = (
        "import json, sys, knnavg, knnavg.cli; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'spatial']))))"
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
