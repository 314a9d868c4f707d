"""Rating transition matrices and the one-factor PIT/stress transforms.

A transition matrix is row-stochastic with the last grade an absorbing
default state.  Stressing maps each row's cumulative downgrade tails through
the one-factor quantile shift

    tail(z) = Phi( (Phi^-1(tail) - sqrt(rho) * z) / sqrt(1 - rho) )

so that negative economy states z push probability mass toward worse grades.
``z == 0`` (or ``rho == 0``) is treated as "no stress" and returns the input
matrix unchanged.  A :class:`TransitionMatrix` holds a read-only copy of its
rates, so the z-independent part of the transform, Phi^-1 of the tails and
where each tail's stressed value goes, is built once per matrix, on its
first stress, and reused by every later one.  All the stressed states of a
path share one Phi call.  Both run once per distinct tail value of the
matrix; tails of exactly 0 or 1 are gathered from the fixed slots.  Equal
tails, in one row or across rows, have the same stressed value, so each is
gathered rather than evaluated again.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError
from .normal import std_normal_cdf, std_normal_inv_cdf

ROW_SUM_TOL = 1e-6
_STRICT_ROW_TOL = 1e-12
_NEG_CLAMP = 1e-12
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Validated n x n one-period rating transition matrix.

    Grade n (last row/column) is the absorbing default state.  ``probs`` is
    a read-only copy of the rates given, so the stress layout cached from it
    stays valid, and passes :func:`_check_rates` at 1e-12; use
    :func:`validate_transition_matrix` to repair raw data that is only
    approximately stochastic.  The layout takes Phi^-1 once per distinct
    tail value of the matrix; tails of exactly 0 or 1 are gathered from the
    fixed slots.

    ``published`` records how a table was parsed, and only
    :func:`validate_transition_matrix` sets it.  It is None for a matrix
    whose rows were already stochastic.  When validation rescaled rows
    (published tables are rounded), it keeps the rates as given, read-only,
    and only the rescaled rows differ from ``probs``.  The TTC portfolio
    and the zero-stress propagation step run on these published rates, with
    the book rescaled to unit balance after each period; the default
    column, the propagation matrix M_p, the stress transform and every
    emitted matrix use the row-stochastic ``probs``.

    ``_unstressed_step`` keeps the last unstressed step matrix that
    :func:`~ttcstress.propagation._step_matrix` built, read-only, keyed by
    the bytes of its origination weights, so the stages of one validation
    share one build.  It stays valid for the reason the tail layout does:
    the rates it reads are read-only, and ``published`` is set before any
    step is built.
    """

    probs: np.ndarray
    published: np.ndarray | None = field(default=None, init=False)
    _unstressed_step: tuple[bytes, np.ndarray] | None = field(
        default=None, init=False, repr=False)

    def __post_init__(self):
        arr = np.array(self.probs, dtype=float)
        _check_rates(arr, _STRICT_ROW_TOL)
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def performing_block(self) -> np.ndarray:
        """Transitions between performing grades, an (n-1) x (n-1) block."""
        return self.probs[:-1, :-1]

    @property
    def default_column(self) -> np.ndarray:
        """One-period default probability per grade (grade n maps to 1)."""
        return self.probs[:, -1]

    @cached_property
    def _tail_layout(self) -> tuple[np.ndarray, np.ndarray]:
        """(q, index): q = Phi^-1 of the distinct cumulative tail values
        strictly inside (0, 1) over all performing rows, sorted, and the
        flat index into ``[1, 0, Phi-values of q...]`` that gathers the
        (n-1, n+1) table of every performing row's tails, from the whole row
        (1) down to the empty tail (0).  Phi^-1 and Phi run once per
        distinct tail value of the matrix; tails of exactly 0 or 1 are
        gathered from the fixed slots, so neither ever sees +-inf."""
        n = self.n
        # tails[:, k] = sum of row entries from column k + 1 to the end
        tails = np.clip(np.cumsum(self.probs[:-1, ::-1], axis=1)[:, -2::-1],
                        0.0, 1.0)
        inner = (tails > 0.0) & (tails < 1.0)
        values, slot = np.unique(tails[inner], return_inverse=True)
        index = np.empty((n - 1, n + 1), dtype=np.intp)
        index[:, 0] = 0
        index[:, n] = 1
        body = index[:, 1:n]
        body[...] = tails < 1.0  # slot 0 holds 1.0, slot 1 holds 0.0
        body[inner] = slot + 2
        return std_normal_inv_cdf(values), index.ravel()


def _check_finite(arr: np.ndarray) -> None:
    """Reject a matrix at its first non-finite entry, located by row and
    column."""
    if not np.isfinite(arr).all():
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise InputError("invalid-argument",
                         f"non-finite entry at row {i + 1}, column {j + 1}")


def _check_rates(arr: np.ndarray, tol: float) -> np.ndarray:
    """Reject a would-be transition matrix at its first failed check, in
    this order: square with two grades or more, finite, nonnegative, rows
    summing to one within ``tol``, absorbing last row.  Returns the row
    sums.  A failed entry is located by row and column, a failed row sum
    reads "row i sums to s, outside 1 +- tol", and the bound has n ulp of
    slack so that the summation's rounding cannot reject a row that sits
    exactly on it."""
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError("shape", "transition matrix must be square")
    if arr.shape[0] < 2:
        raise InputError("shape", "need at least two rating grades")
    _check_finite(arr)
    if (arr < 0.0).any():
        i, j = np.argwhere(arr < 0.0)[0]
        raise InputError("negative-entry",
                         f"negative probability at row {i + 1}, column {j + 1}")
    sums = arr.sum(axis=1)
    bad = np.abs(sums - 1.0) > tol + arr.shape[0] * _EPS
    if bad.any():
        i = int(np.argmax(bad))
        raise InputError("row-sum", f"row {i + 1} sums to {float(sums[i])!r}, "
                                    f"outside 1 +- {tol}")
    last = arr[-1]
    if last[-1] != 1.0 or (last[:-1] != 0.0).any():
        raise InputError("absorbing-row",
                         f"row {arr.shape[0]} must be (0, ..., 0, 1): "
                         "the default grade is absorbing")
    return sums


def validate_transition_matrix(raw, tol: float = ROW_SUM_TOL) -> TransitionMatrix:
    """Validate a raw square matrix and renormalize its rows.

    The checks are :func:`_check_rates` at ``tol``: a failure has the code
    and wording it has in :class:`TransitionMatrix`, whose bound is 1e-12,
    with the same n ulp of slack.  Rows that :class:`TransitionMatrix`
    would reject but ``tol`` lets pass are rescaled (already-stochastic rows
    pass through unchanged).  When any row was rescaled the returned matrix
    keeps the rates as given in ``published``, which only this function
    sets; otherwise ``published`` is None.
    """
    arr = np.array(raw, dtype=float)
    sums = _check_rates(arr, tol)
    # rescale only rows that need it, so already-valid matrices pass through
    # bit for bit (parse/emit round trips stay exact)
    needs = np.abs(sums - 1.0) > _STRICT_ROW_TOL + arr.shape[0] * _EPS
    if not needs.any():
        return TransitionMatrix(arr)
    probs = arr.copy()
    probs[needs] = arr[needs] / sums[needs, None]
    tm = TransitionMatrix(probs)
    arr.flags.writeable = False
    object.__setattr__(tm, "published", arr)
    return tm


def _check_rho(rho: float) -> float:
    rho = float(rho)
    if not (0.0 <= rho < 1.0) or np.isnan(rho):
        raise InputError("invalid-argument",
                         f"asset correlation must lie in [0, 1), got {rho!r}")
    return rho


def _check_z(z: float) -> float:
    z = float(z)
    if not np.isfinite(z):
        raise InputError("invalid-argument",
                         f"economy state must be finite, got {z!r}")
    return z


def pit_pd(p_ttc: float, rho: float, z: float) -> float:
    """Point-in-time default probability conditional on the economy state z.

    Maps an unconditional (through-the-cycle) PD through the one-factor
    model.  ``z == 0`` or ``rho == 0`` means no stress and returns ``p_ttc``
    unchanged; boundary PDs 0 and 1 are preserved.
    """
    p_ttc = float(p_ttc)
    if np.isnan(p_ttc) or not (0.0 <= p_ttc <= 1.0):
        raise InputError("invalid-argument",
                         f"probability must lie in [0, 1], got {p_ttc!r}")
    rho = _check_rho(rho)
    z = _check_z(z)
    if rho == 0.0 or z == 0.0:
        return p_ttc
    return std_normal_cdf(_shifted_quantile(std_normal_inv_cdf(p_ttc), rho, z))


def _shifted_quantile(q, rho: float, z):
    """The one-factor argument (q - sqrt(rho) z) / sqrt(1 - rho); where it
    overflows to +-inf (rho near one, |z| huge), Phi gives the limit."""
    with np.errstate(over="ignore"):
        return (q - np.sqrt(rho) * z) / np.sqrt(1.0 - rho)


def _stressed_probs(tm: TransitionMatrix, rho: float,
                    z: np.ndarray) -> np.ndarray:
    """The stressed matrices at each state z_k of ``z``, of shape (m, n, n),
    with the default row absorbing.

    The quantiles Phi^-1 of the cumulative tails do not depend on z, so
    ``tm._tail_layout`` takes them once per matrix, on its first stress.
    Every state then shares one Phi call, once per distinct tail value of
    the matrix; tails of exactly 0 or 1 are gathered from the fixed slots.
    A repeated tail (a zero entry, one lost to rounding, or a value another
    row shares) gets the same Phi value bit for bit, as one gather of the
    cumulative tables places each value.  The performing rows are their
    differences, written into one contiguous buffer, clamped only where
    cancellation left them below zero, rescaled to sum one, and copied once
    into the stack.  ``rho`` must already be checked and nonzero, and every z_k
    finite and nonzero.
    """
    q, index = tm._tail_layout
    n = tm.n
    vals = np.empty((z.size, q.size + 2))
    vals[:, 0] = 1.0
    vals[:, 1] = 0.0
    vals[:, 2:] = std_normal_cdf(_shifted_quantile(q, rho, z[:, None]))
    stressed = np.take(vals, index, axis=1).reshape(z.size, n - 1, n + 1)
    rows = stressed[:, :, :-1] - stressed[:, :, 1:]
    # cancellation can leave harmless negative dust; anything larger is a bug
    low = rows.min()
    if low < -_NEG_CLAMP:
        raise InputError("invalid-argument",
                         "stress transform produced a negative probability")
    if low < 0.0:
        np.maximum(rows, 0.0, out=rows)
    rows /= rows.sum(axis=2, keepdims=True)
    probs = np.zeros((z.size, n, n))
    probs[:, :-1] = rows
    probs[:, -1, -1] = 1.0
    return probs


def stress_transition_matrix(tm: TransitionMatrix, rho: float,
                             z: float) -> TransitionMatrix:
    """Transform an average transition matrix into one conditional on z.

    For each performing row the cumulative downgrade tails
    S_j = sum of the row from column j onward are shifted through the
    one-factor transform and differenced back into probabilities, so the
    stressed row telescopes to sum one by construction.  Zero tails stay
    zero (the quantile convention maps 0 to -inf) and the default row stays
    absorbing, as in every matrix of :func:`_stressed_probs`.  ``z == 0``
    or ``rho == 0`` returns ``tm`` unchanged.
    """
    rho = _check_rho(rho)
    z = _check_z(z)
    if rho == 0.0 or z == 0.0:
        return tm
    return TransitionMatrix(_stressed_probs(tm, rho, np.array([z]))[0])
