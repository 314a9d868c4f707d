"""Standard normal distribution functions used by every probability transform.

Only the CDF / quantile pair is exposed; both accept scalars or numpy arrays
and return matching shapes.  They are SciPy's compiled ``ndtr`` and
``ndtri`` ufuncs, loaded on first use by :func:`_phi_ufuncs`, so a process
that never evaluates either function (``validate``, ``ttc``, ``diagnose``)
does not load SciPy.
"""
from __future__ import annotations

import importlib.util
import os
import sys
import threading

import numpy as np

from .errors import InputError

_ufuncs = None  # (ndtr, ndtri), once loaded


def _phi_ufuncs():
    """SciPy's ``(ndtr, ndtri)``, resolved once per process.

    When ``scipy.special`` is not loaded yet and no other thread runs, they
    come from the extension module ``scipy.special._ufuncs``, loaded under a
    bare ``scipy.special`` package stub: the package's ``__init__`` also
    imports its array-API layer (and with it ``numpy.f2py`` and
    ``numpy.testing``), which took more than half the wall time of a
    stressed command.  The stub stands in ``sys.modules`` only during that
    load, with no other thread to see it: an ``import scipy.special``
    elsewhere could otherwise be handed the stub.  The extension modules
    loaded stay in ``sys.modules``, where the package's own import finds
    them (a Cython module cannot be loaded twice), so a later ``import
    scipy.special`` hands back the very same ufuncs.  Otherwise, or when
    the extension module cannot be loaded alone or lacks either ufunc, they
    come from the package."""
    global _ufuncs
    if _ufuncs is not None:
        return _ufuncs
    module = None
    if "scipy.special" not in sys.modules and threading.active_count() == 1:
        import scipy
        spec = importlib.util.spec_from_loader("scipy.special", None,
                                               is_package=True)
        spec.submodule_search_locations = [
            os.path.join(os.path.dirname(scipy.__file__), "special")]
        stub = importlib.util.module_from_spec(spec)
        sys.modules["scipy.special"] = stub
        try:
            module = importlib.import_module("scipy.special._ufuncs")
        except ImportError:
            pass
        finally:
            if sys.modules.get("scipy.special") is stub:
                del sys.modules["scipy.special"]
    if not (hasattr(module, "ndtr") and hasattr(module, "ndtri")):
        import scipy.special as module
    _ufuncs = module.ndtr, module.ndtri
    return _ufuncs


def std_normal_cdf(x):
    """Phi(x), the standard normal CDF.

    Accepts floats (including +-inf) or arrays; NaN is rejected.
    """
    ndtr = _phi_ufuncs()[0]
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        raise InputError("invalid-argument", "std_normal_cdf: NaN input")
    out = ndtr(arr)
    return float(out) if arr.ndim == 0 else out


def std_normal_inv_cdf(p):
    """Phi^-1(p), with the conventions Phi^-1(0) = -inf and Phi^-1(1) = +inf.

    Computed by SciPy's ``ndtri``, within about 4.4e-16 relative error of
    the exact quantile for p from 1e-300 to 1 - 1e-15.
    """
    ndtri = _phi_ufuncs()[1]
    arr = np.asarray(p, dtype=float)
    if np.isnan(arr).any() or (arr < 0.0).any() or (arr > 1.0).any():
        raise InputError("invalid-argument",
                         "std_normal_inv_cdf: p must lie in [0, 1]")
    x = ndtri(arr)
    return float(x) if arr.ndim == 0 else x
