"""The benchmark's tracer (``perfbench/tracing.py``) rebinds package names
from outside: ``Session.nf_expand``, ``Session._nf_basis``,
``singular.ur_normal_form`` and more.  Installing it here makes a rename of
any of them fail the test suite, not only a traced benchmark run."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# the kept builders reach each other through the rebound names, so a traced
# run still counts every nf_expand call
CHILD = """
import tracing
tracer = tracing.Tracer()
tracer.install()
from w2345 import walgebra
walgebra.Session(5).nf_dimensions(4)
assert tracer.metrics()["walgebra.nf_expand.calls"] > 0
"""


def test_the_benchmark_tracer_installs():
    # in a child interpreter: install rebinds package globals for good
    path = os.pathsep.join(str(ROOT / sub) for sub in ("perfbench", "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
