"""scipy's compiled kernels, loaded without the packages around them.

Retargeting calls one routine of scipy's L-BFGS-B extension
(`scipy.optimize._lbfgsb.setulb`), the spline one LAPACK routine
(`scipy.linalg._flapack.dgtsv`) and hull building one class of its qhull
extension (`scipy.spatial._qhull.ConvexHull`), which imports scipy's Cython
LAPACK table (`scipy.linalg.cython_lapack`), so a hull build loads that table
first. Importing `scipy.optimize`, `scipy.linalg` and `scipy.spatial` to reach
them runs the packages' `__init__`, which loads hundreds of modules the
program never calls. `scipy_kernel` loads the extension file alone.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys


def scipy_kernel(sub: str, name: str):
    """The extension module `scipy.<sub>.<name>`, loaded from its file
    without running `scipy.<sub>`'s `__init__`.

    The module is registered in `sys.modules` under its full name before it
    runs, so a later import of the package reuses it, and one already there,
    loaded either way, is returned as it is. A package imported after the
    load does not get the module as an attribute (`scipy.optimize._lbfgsb`);
    `from scipy.optimize import _lbfgsb` finds it in `sys.modules`. A module
    scipy does not have raises ImportError; nothing falls back to importing
    the package.
    """
    import scipy  # the top level is lazy: scipy's platform set-up, no subpackage

    full = f"scipy.{sub}.{name}"
    module = sys.modules.get(full)
    if module is not None:
        return module
    spec = importlib.machinery.PathFinder.find_spec(full, [os.path.join(scipy.__path__[0], sub)])
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no module {full}", name=full)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[full]  # as the import system does: no half-run module stays
        raise
    return module
