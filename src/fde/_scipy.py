"""Routines of scipy's compiled extensions, loaded without scipy's subpackage inits.

``scipy_extension(subpackage, module, routine)`` imports the bare scipy
package (whose _distributor_init sets up a bundled LAPACK), finds the
extension module scipy.<subpackage>.<module> by its file in each
``scipy.__path__`` entry's subpackage directory, executes it and returns
its routine.  The subpackage's ``__init__`` never runs and nothing is put
in ``sys.modules``: a later import of the subpackage builds its own,
complete package around the same extension.  ``fde._kernels`` takes
``dgtsv`` from scipy.linalg._flapack this way (scipy.linalg's init loads
numpy.f2py, numpy.testing, numpy.ma and numpy.random), and ``fde.profile``
takes ``lsoda`` from scipy.integrate._odepack (scipy.integrate's init loads
scipy.optimize, scipy.sparse, scipy.special and scipy.linalg).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os

import scipy

__all__ = ["scipy_extension"]


def scipy_extension(subpackage: str, module: str, routine: str):
    """The routine of scipy's extension module scipy.<subpackage>.<module>,
    loaded by its file; ImportError naming the paths searched when the
    module is not found, or scipy's version and the routine when the module
    lacks it."""
    name = f"scipy.{subpackage}.{module}"
    paths = [os.path.join(p, subpackage) for p in scipy.__path__]
    spec = importlib.machinery.PathFinder.find_spec(name, paths)
    if spec is None:
        raise ImportError(f"{name} not found in {paths}")
    ext = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ext)
    try:
        return getattr(ext, routine)
    except AttributeError:
        raise ImportError(f"{name} of scipy {scipy.__version__} has no {routine!r}") from None
