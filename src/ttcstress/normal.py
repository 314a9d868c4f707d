"""Standard normal distribution functions used by every probability transform.

Only the CDF / quantile pair is exposed; both accept scalars or numpy arrays
and return matching shapes.  SciPy is imported on first use, so a process
that never evaluates either function (``validate``, ``ttc``, ``diagnose``)
does not load it.
"""
from __future__ import annotations

import numpy as np

from .errors import InputError


def std_normal_cdf(x):
    """Phi(x), the standard normal CDF.

    Accepts floats (including +-inf) or arrays; NaN is rejected.
    """
    from scipy.special import ndtr
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
    from scipy.special import ndtri
    arr = np.asarray(p, dtype=float)
    if np.isnan(arr).any() or (arr < 0.0).any() or (arr > 1.0).any():
        raise InputError("invalid-argument",
                         "std_normal_inv_cdf: p must lie in [0, 1]")
    x = ndtri(arr)
    return float(x) if arr.ndim == 0 else x
