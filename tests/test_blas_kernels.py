"""The arena's and the generators' bit-for-bit contracts under another
OpenBLAS CPU kernel.

OpenBLAS picks its kernel for the CPU when it loads, and the environment
variable `OPENBLAS_CORETYPE` names another one. The per-row kernels and the
list-of-matrices references in `tests/oracles.py` call the same BLAS
routines, so `tests/test_arena.py` must pass byte for byte whichever kernel
runs them. So must the generator property: the hyperplane labels rely on
numpy sending each stacked `(1, d) @ (d, 1)` product to the `ddot` that the
reference's `w @ x` calls. Only the child process gets the variable.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="Haswell is an x86-64 kernel")
def test_arena_holds_its_bits_under_the_haswell_kernel():
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_VERBOSE="2")
    argv = [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
            "tests/test_arena.py",
            "tests/test_streams.py::test_generator_matches_per_instance_reference"]
    child = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    shown = child.stdout + child.stderr
    if "Core:" not in shown:
        pytest.skip("numpy's BLAS is not an OpenBLAS that reports its kernel")
    assert "Core: Haswell" in shown
    assert child.returncode == 0, shown[-4000:]
