"""Seeded inputs for the in-process workloads: realistic rating systems, books
and macro scenarios.

The systems look like published master-scale matrices rather than the dense
uniform ones in the unit tests: banded, with a slowly mixing performing block
(lambda_2 near 0.98), so the TTC solver does the work it does on real data.
Everything here is plain numpy; nothing is taken from the package under test.
"""
from __future__ import annotations

import numpy as np

N_GRADES = 21                 # 20 notches plus default
DIAG_RANGE = (0.80, 0.92)     # staying probability before the default share
PD_FIRST = 1e-4               # one-period PD of the best grade
PD_LAST = 0.2                 # one-period PD of the worst performing grade
DECAY_RANGE = (0.30, 0.36)    # geometric decay of migration mass per notch
DOWNGRADE_BIAS = 1.6          # downgrade mass relative to upgrade mass
LAMBDA2_BAND = (0.95, 0.995)  # realistic subdominant modulus of M_p
AR_PHI = 0.7                  # persistence of macro deviations per period
AR_SCALE = 0.5                # deviation size in historical standard deviations


def rating_matrix(rng: np.random.Generator, n: int = N_GRADES) -> np.ndarray:
    """Banded n x n transition matrix with an absorbing default grade.

    Rows are rounded to four decimals like published tables; the diagonal
    takes the rounding residual, so every row sums to one in decimal and to
    within 1e-15 in floating point, and no row needs repair when parsed.
    """
    m = n - 1
    jitter = rng.uniform(0.8, 1.25, size=2)
    pd = np.geomspace(PD_FIRST * jitter[0], PD_LAST * jitter[1], m)
    decay = rng.uniform(*DECAY_RANGE)
    probs = np.zeros((n, n))
    for i in range(m):
        stay = rng.uniform(*DIAG_RANGE) * (1.0 - pd[i])
        dist = np.abs(np.arange(m) - i)
        weights = np.where(dist > 0, decay ** (dist - 1.0), 0.0)
        weights[i + 1:] *= DOWNGRADE_BIAS
        weights /= weights.sum()
        probs[i, :m] = (1.0 - stay - pd[i]) * weights
        probs[i, i] = stay
        probs[i, -1] = pd[i]
    probs = np.round(probs, 4)
    probs[-1] = 0.0
    probs[-1, -1] = 1.0
    idx = np.arange(m)
    probs[idx, idx] = 0.0
    probs[idx, idx] = np.round(1.0 - probs[:m].sum(axis=1), 4)
    return probs


def origination_mix(rng: np.random.Generator, n: int = N_GRADES) -> np.ndarray:
    """New business concentrated on investment and upper speculative grades."""
    m = n - 1
    centre = rng.uniform(0.25, 0.45) * m
    width = rng.uniform(0.08, 0.15) * m
    o = np.zeros(n)
    o[:m] = np.exp(-0.5 * ((np.arange(m) - centre) / width) ** 2)
    o[o < 1e-3 * o.max()] = 0.0
    return o / o.sum()


def m_p(probs: np.ndarray, orig: np.ndarray) -> np.ndarray:
    """Performing-grade propagation matrix, built independently of the package."""
    return probs[:-1, :-1].T + np.outer(orig[:-1], probs[:-1, -1])


def primitive(block: np.ndarray) -> bool:
    """Primitivity of a nonnegative block with a positive diagonal.

    With a positive diagonal, primitive is the same as irreducible, i.e.
    (I + A)^(m-1) is entrywise positive; squaring the boolean pattern reaches
    that power in log2(m) steps.
    """
    if not (np.diag(block) > 0.0).all():
        return False
    reach = (block > 0.0) | np.eye(block.shape[0], dtype=bool)
    steps = 1
    while steps < block.shape[0] - 1:
        reach = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        steps *= 2
    return bool(reach.all())


def lambda2(mp: np.ndarray) -> float:
    return float(np.sort(np.abs(np.linalg.eigvals(mp)))[-2])


def rating_system(rng: np.random.Generator,
                  n: int = N_GRADES) -> tuple[np.ndarray, np.ndarray]:
    """(matrix, origination); check_system tells whether it is realistic."""
    return rating_matrix(rng, n), origination_mix(rng, n)


def check_system(probs: np.ndarray, orig: np.ndarray) -> float:
    """lambda_2 of the system; ValueError unless it is stochastic,
    primitive and mixes at a realistic rate."""
    if (probs < 0.0).any() or np.abs(probs.sum(axis=1) - 1.0).max() > 1e-12:
        raise ValueError("generated matrix is not stochastic")
    if not primitive(probs[:-1, :-1]):
        raise ValueError("generated performing block is not primitive")
    lam = lambda2(m_p(probs, orig))
    if not LAMBDA2_BAND[0] <= lam <= LAMBDA2_BAND[1]:
        raise ValueError(f"lambda_2 = {lam:.4f} outside {LAMBDA2_BAND}")
    return lam


def zero_share(probs: np.ndarray) -> float:
    """Share of exact zeros in the performing block."""
    return float((probs[:-1, :-1] == 0.0).mean())


def _bump(m: int, centre: float, width: float) -> np.ndarray:
    return np.exp(-0.5 * ((np.arange(m) - centre) / width) ** 2)


BOOK_SHAPES = ("seasoned", "barbell", "midgrade", "tilt")


def book(rng: np.random.Generator, shape: str, n: int = N_GRADES,
         ttc: np.ndarray | None = None) -> np.ndarray:
    """A book over n grades (zero weight in default): ``seasoned`` near the
    TTC mix ``ttc``, a ``barbell``, a ``midgrade`` bell or a speculative
    ``tilt``."""
    m = n - 1
    if shape == "seasoned":
        w = ttc[:m] * rng.uniform(0.97, 1.03, size=m)
    elif shape == "barbell":
        w = (_bump(m, rng.uniform(0, 3), 1.5)
             + rng.uniform(0.3, 0.6) * _bump(m, rng.uniform(m - 8, m - 4), 1.5))
    elif shape == "midgrade":
        w = _bump(m, rng.uniform(0.4, 0.6) * m, rng.uniform(1.5, 3.0))
    else:
        w = _bump(m, rng.uniform(0.65, 0.8) * m, rng.uniform(2.0, 3.5))
    out = np.zeros(n)
    out[:m] = w / w.sum()
    return out


def macro_scenario(rng: np.random.Generator, history: np.ndarray,
                   periods: int) -> np.ndarray:
    """Stationary AR(1) deviations around the historical macro path, tiled to
    length, as a (periods, n_vars) array."""
    phi = AR_PHI
    base = history[np.arange(periods) % history.shape[0]]
    sd = history.std(axis=0, ddof=1) * AR_SCALE * np.sqrt(1.0 - phi * phi)
    eps = rng.standard_normal(base.shape) * sd
    dev = np.empty_like(base)
    dev[0] = eps[0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, periods):
        dev[t] = phi * dev[t - 1] + eps[t]
    return base + dev
