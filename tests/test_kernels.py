"""scipy's kernels loaded without their packages: the same objects and the
same artifacts in either import order, and no fallback to a package."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.optimize
import scipy.spatial

from demo2dex import kernels
from demo2dex.pipeline import run_transfer

from conftest import strided_config

ENV = {**os.environ, "PYTHONPATH": str(Path(kernels.__file__).resolve().parent.parent)}

KERNELS_FIRST = """
import json, sys

import numpy as np

from demo2dex.pipeline import run_transfer

config, out_dir = json.loads(sys.argv[1])
run_dir = run_transfer(config, out_dir, no_rl=True).run_dir
loaded = set(sys.modules)
kernels = {"scipy.optimize._lbfgsb", "scipy.linalg._flapack", "scipy.linalg.cython_lapack", "scipy.spatial._qhull"}
assert kernels <= loaded, f"a kernel is missing: {sorted(kernels - loaded)}"
assert not {"scipy.optimize", "scipy.linalg", "scipy.spatial"} & loaded, "a run loaded a scipy package"
first = {name: sys.modules[name] for name in kernels}
qhull = first["scipy.spatial._qhull"]

import scipy.linalg
import scipy.optimize
import scipy.spatial
from scipy.optimize import _lbfgsb

assert all(sys.modules[name] is module for name, module in first.items()), "a package reloaded a kernel"
assert _lbfgsb is first["scipy.optimize._lbfgsb"]
x = scipy.linalg.solve_banded((1, 1), np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0]]), np.ones(3))
assert np.allclose(x, [3.0 / 14.0, 1.0 / 7.0, 3.0 / 14.0]), x
assert scipy.spatial.ConvexHull is qhull.ConvexHull and scipy.spatial.QhullError is qhull.QhullError
res = scipy.optimize.minimize(lambda x: float((x - 1.0).dot(x - 1.0)), np.zeros(3), method="L-BFGS-B")
assert res.success and np.allclose(res.x, 1.0), res
assert abs(scipy.spatial.ConvexHull(np.eye(4, 3)).volume - 1.0 / 6.0) < 1e-12
print(run_dir)
"""


def test_run_gives_the_same_artifacts_in_either_import_order(tmp_path):
    # the child loads the kernels before any scipy package and imports the
    # packages after its run; this process imported them first
    config = strided_config(tmp_path, 24)
    child = subprocess.run(
        [sys.executable, "-c", KERNELS_FIRST, json.dumps([config, str(tmp_path / "child")])],
        env=ENV, check=True, capture_output=True, text=True,
    )
    child_dir = Path(child.stdout.strip())
    run_dir = run_transfer(config, tmp_path / "parent", no_rl=True).run_dir
    for name in ("plan.json", "trajectory.json"):
        assert (child_dir / name).read_bytes() == (run_dir / name).read_bytes(), name


NO_FALLBACK = """
import sys

from demo2dex.kernels import scipy_kernel

try:
    scipy_kernel("optimize", "_no_such_kernel")
except ImportError as exc:
    assert "scipy.optimize._no_such_kernel" in str(exc), exc
else:
    raise AssertionError("a kernel scipy does not have loaded")
assert "scipy.optimize" not in sys.modules, "a missing kernel imported its package"
"""


def test_a_missing_kernel_raises_and_loads_no_package():
    missing = f"scipy {scipy.__version__} has no module scipy.optimize._no_such_kernel"
    with pytest.raises(ImportError, match=re.escape(missing)):
        kernels.scipy_kernel("optimize", "_no_such_kernel")
    subprocess.run([sys.executable, "-c", NO_FALLBACK], env=ENV, check=True)
