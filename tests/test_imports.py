"""What the package loads at import time.

``src/`` needs numpy and ``scipy.linalg.lapack`` only. ``scipy.optimize`` (with
``scipy.special``) costs about 20 MB of resident memory and 0.3 s of start-up
on every ``riskpath`` process, so it stays a test-only dependency (the L-BFGS-B
reference in tests/reference.py).
"""

import os
import subprocess
import sys
from pathlib import Path

import riskpath

SRC = Path(riskpath.__file__).resolve().parents[1]


def test_cli_import_leaves_scipy_optimize_and_special_out():
    code = ("import sys, riskpath, riskpath.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.special') if m in sys.modules))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    assert done.stdout == "[]\n"
