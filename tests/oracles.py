"""Independent oracles kept out of the package."""
from __future__ import annotations

import numpy as np


def wielandt_exponent(m: int) -> int:
    return m * m - 2 * m + 2


def pattern_power(pattern: np.ndarray, exponent: int) -> np.ndarray:
    """Boolean matrix power by squaring (reachability in exactly k steps)."""
    acc = None
    base = pattern.astype(np.int64)
    e = exponent
    while e:
        if e & 1:
            acc = base.copy() if acc is None else ((acc @ base) > 0).astype(np.int64)
        base = ((base @ base) > 0).astype(np.int64)
        e >>= 1
    return acc > 0


def wielandt_primitive(block) -> bool:
    """Wielandt's bound: an m x m nonnegative matrix is primitive if and only
    if its (m^2 - 2m + 2)-th power is entrywise positive."""
    arr = np.asarray(block, dtype=float)
    return bool(pattern_power(arr > 0.0, wielandt_exponent(arr.shape[0])).all())
