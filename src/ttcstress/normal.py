"""Standard normal distribution functions used by every probability transform.

Only the CDF / quantile pair is exposed; both accept scalars or numpy arrays
and return matching shapes.  SciPy is imported on first use, so a process
that never evaluates either function (``validate``, ``ttc``, ``diagnose``)
does not load it.
"""
from __future__ import annotations

import numpy as np

from .errors import InputError

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


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

    A rational approximation supplies the starting point; one Halley step on
    the CDF polishes the interior values to full double precision, so the
    round trip Phi(Phi^-1(p)) recovers p to machine accuracy.
    """
    from scipy.special import ndtr, ndtri
    scalar = np.ndim(p) == 0
    arr = np.atleast_1d(np.asarray(p, dtype=float))
    if np.isnan(arr).any() or (arr < 0.0).any() or (arr > 1.0).any():
        raise InputError("invalid-argument",
                         "std_normal_inv_cdf: p must lie in [0, 1]")
    x = ndtri(arr)
    interior = np.isfinite(x)
    if interior.any():
        x0 = x[interior]
        dens = np.exp(-0.5 * x0 * x0) / _SQRT_2PI
        ok = dens > 0.0
        g = ndtr(x0) - arr[interior]
        r = np.where(ok, g / np.where(ok, dens, 1.0), 0.0)
        x[interior] = x0 - r / (1.0 + 0.5 * x0 * r)
    return float(x[0]) if scalar else x
