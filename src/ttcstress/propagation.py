"""Portfolio propagation with immediate write-off and re-origination.

One period moves the book through the (possibly stressed) transition matrix,
writes off whatever lands in the default grade, and re-originates exactly
that amount across performing grades, keeping total balance constant:

    W_next = migrate(W) restricted to performing grades
             + (defaulted flow) * origination mix

The period is linear in W, so it is one vector-matrix product with a step
matrix built ahead of time, whose last column yields the defaulted flow.
A matrix whose rows were rounded (``TransitionMatrix.published`` is set)
migrates the book under its published rates, which do not conserve
balance exactly, so the book is rescaled to unit balance after each
period.  Stressed matrices are exactly stochastic and need no rescaling.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .transition import (_EPS, _STRICT_ROW_TOL, TransitionMatrix, _check_rho,
                         _stressed_rows)


def _check_weights(values, what: str,
                   tol: float = _STRICT_ROW_TOL) -> np.ndarray:
    """Reject a would-be grade vector at its first failed check: at least
    two grades, finite, nonnegative, summing to one within ``tol``.  A
    failed sum reads "``what`` sums to s, outside 1 +- tol", and the bound
    has n ulp of slack, as in :func:`~ttcstress.transition._check_rates`."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise InputError("shape", f"{what} must be a vector of length >= 2")
    if not np.isfinite(arr).all():
        raise InputError("invalid-argument", f"{what} contains non-finite entries")
    if (arr < 0.0).any():
        i = int(np.argmax(arr < 0.0))
        raise InputError("negative-entry",
                         f"{what} has a negative weight at position {i + 1}")
    total = float(arr.sum())
    if abs(total - 1.0) > tol + arr.size * _EPS:
        raise InputError("weight-sum",
                         f"{what} sums to {total!r}, outside 1 +- {tol}")
    return arr


def _check_sizes(**grades) -> None:
    """The matrices and vectors given by name must share one grade count;
    one given as None is skipped.  The message names them in that order."""
    sizes = {name: g.n for name, g in grades.items() if g is not None}
    if len(set(sizes.values())) > 1:
        *head, last = (f"{name} ({n})" for name, n in sizes.items())
        raise InputError("dimension-mismatch",
                         f"{', '.join(head)} and {last} sizes must agree")


@dataclass(frozen=True, eq=False)
class Portfolio:
    """Balance distribution across rating grades (fractions summing to one)."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights",
                           _check_weights(self.weights, "portfolio"))

    @property
    def n(self) -> int:
        return self.weights.size


@dataclass(frozen=True, eq=False)
class OriginationVector:
    """Distribution of newly originated balance; nothing is originated into default."""

    weights: np.ndarray

    def __post_init__(self):
        arr = _check_weights(self.weights, "origination vector")
        if arr[-1] != 0.0:
            raise InputError("origination-into-default",
                             "origination into the default grade must be 0")
        object.__setattr__(self, "weights", arr)

    @property
    def n(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class ProjectionPath:
    """Multi-period projection record.

    Period 0 is the initial portfolio; entries ``portfolios[t-1]``,
    ``default_flows[t-1]``, ``avg_pds[t-1]`` and ``z[t-1]`` describe period
    t = 1..m.  Average PDs are measured against the unstressed matrix so the
    path isolates the rating-mix dynamics from any applied stress; the
    realized stressed default flow per period is reported separately.
    """

    initial: Portfolio
    initial_pd: float
    z: np.ndarray
    portfolios: np.ndarray
    default_flows: np.ndarray
    avg_pds: np.ndarray

    @property
    def periods(self) -> int:
        return self.z.size

    def pd_series(self) -> np.ndarray:
        """Average PD per period including period 0, length m + 1."""
        return np.concatenate(([self.initial_pd], self.avg_pds))


def _step_stack(probs: np.ndarray, orig: np.ndarray,
                balance: bool = False) -> np.ndarray:
    """Step matrices of the rate matrices ``probs``, one (n, n) matrix or a
    (k, n, n) stack: ``w @ b`` holds the migrated, written-off and
    re-originated book in its first n entries and the defaulted flow in
    entry n, and with ``balance`` that book's total balance in entry n + 1,
    to rescale it to unit balance.

    Built in whole-stack passes: the flow column, flow x orig, the added
    migration block, then the default column, written as 0.0, which
    0.0 + flow * orig[-1] always is (``orig[-1]`` is +-0.0)."""
    n = probs.shape[-1]
    b = np.empty(probs.shape[:-1] + (n + 1 + balance,))
    b[..., n] = probs[..., n - 1]
    np.multiply(b[..., n, None], orig, out=b[..., :n])
    b[..., :n] += probs
    b[..., n - 1] = 0.0
    if balance:
        b[..., n + 1] = b[..., :n].sum(axis=-1)
    return b


def _step_matrix(tm: TransitionMatrix, orig: np.ndarray) -> np.ndarray:
    """Step matrix of an unstressed period: on the published rates with a
    balance column when ``tm`` was rounded, on ``tm.probs`` otherwise."""
    if tm.published is None:
        return _step_stack(tm.probs, orig)
    return _step_stack(tm.published, orig, balance=True)


def _propagate(w: np.ndarray, steps, out: np.ndarray) -> np.ndarray:
    """Move the book ``w`` through one period per step matrix of ``steps``.

    Row t of ``out`` (at least n + 1 wide) gets the book after period t in
    its first n entries, rescaled to unit balance by a step matrix with a
    balance column, and the defaulted flow in entry n.  Returns the books.
    """
    n = w.size
    books, moved = out[:, :n], out[:, :n + 1]
    for t, b in enumerate(steps):
        if b.shape[1] == n + 1:
            np.dot(w, b, out=moved[t])
        else:
            np.dot(w, b, out=out[t])
            out[t, :n] /= out[t, n + 1]
        w = books[t]
    return books


def _step_once(w: np.ndarray, tm: TransitionMatrix,
               orig: np.ndarray) -> np.ndarray:
    """One unstressed period of the book ``w``, as :func:`_propagate`'s row:
    the book in the first n entries and the defaulted flow in entry n."""
    b = _step_matrix(tm, orig)
    out = np.empty((1, b.shape[1]))
    _propagate(w, (b,), out)
    return out[0]


def propagate_step(portfolio: Portfolio, tm: TransitionMatrix,
                   origination: OriginationVector) -> tuple[Portfolio, float]:
    """One propagation period under ``tm``.

    Returns the post-period portfolio (default grade written off and
    re-originated, so its default weight is exactly zero) and the defaulted
    balance flow of the period.  A matrix with rounded rows moves the book
    under its published rates and rescales the result to unit balance.  The
    returned book skips the 1e-12 sum check: on rows at that bound its mass
    drifts past it within a few steps, as in :func:`project_path`.
    """
    _check_sizes(portfolio=portfolio, matrix=tm, origination=origination)
    row = _step_once(portfolio.weights, tm, origination.weights)
    book = object.__new__(Portfolio)  # not re-checked, see the docstring
    object.__setattr__(book, "weights", row[:tm.n])
    return book, float(row[tm.n])


def average_pd(portfolio: Portfolio, tm: TransitionMatrix) -> float:
    """Balance-weighted one-period default probability of the book."""
    _check_sizes(portfolio=portfolio, matrix=tm)
    return float(portfolio.weights @ tm.default_column)


def project_path(initial: Portfolio, tm: TransitionMatrix,
                 origination: OriginationVector, rho: float,
                 z_path) -> ProjectionPath:
    """Propagate over a sequence of economy states.

    Each period stresses the matrix at z_t (z == 0 uses ``tm`` unchanged,
    bit for bit) and applies one propagation step, bit for bit the same as
    :func:`stress_transition_matrix` followed by :func:`propagate_step`;
    the step matrices of all stressed periods are built together, on raw
    arrays.  The recorded average PD uses the unstressed matrix throughout.
    """
    z_arr = np.asarray(z_path, dtype=float)
    if z_arr.ndim != 1 or z_arr.size == 0:
        raise InputError("shape", "z path must be a non-empty vector")
    if not np.isfinite(z_arr).all():
        raise InputError("invalid-argument", "z path contains non-finite entries")
    _check_sizes(portfolio=initial, matrix=tm, origination=origination)
    m = z_arr.size
    n = tm.n
    orig = origination.weights
    # z == 0 or rho == 0 means no stress; rho is checked only if z asks for it
    stressed_at = z_arr != 0.0
    if stressed_at.any():
        rho = _check_rho(rho)
        stressed_at &= rho > 0.0
    unstressed = _step_matrix(tm, orig)
    steps = [unstressed] * m
    if stressed_at.any():
        # the stressed rows of all stressed periods, written contiguously,
        # then their matrices (default row absorbing) and step matrices
        rows = np.empty((int(stressed_at.sum()), n - 1, n))
        _stressed_rows(tm, rho, z_arr[stressed_at], out=rows)
        probs = np.zeros((rows.shape[0], n, n))
        probs[:, :-1] = rows
        probs[:, -1, -1] = 1.0
        for t, b in zip(np.flatnonzero(stressed_at), _step_stack(probs, orig)):
            steps[t] = b
    buf = np.empty((m, unstressed.shape[1]))
    states = _propagate(initial.weights, steps, buf)
    return ProjectionPath(
        initial=initial,
        initial_pd=average_pd(initial, tm),
        z=z_arr.copy(),
        portfolios=states,
        default_flows=buf[:, n],
        avg_pds=states @ tm.default_column,
    )
