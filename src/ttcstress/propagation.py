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
                         _floats, _stressed_probs)


def _check_weights(values, what: str,
                   tol: float = _STRICT_ROW_TOL) -> np.ndarray:
    """Reject a would-be grade vector at its first failed check: at least
    two grades, finite, nonnegative, summing to one within ``tol``.  A
    failed sum reads "``what`` sums to s, outside 1 +- tol", and the bound
    has n ulp of slack, as in :func:`~ttcstress.transition._check_rates`.
    Returns a read-only copy, so no later write can skip the checks."""
    arr = _floats(values, what, min_size=2)
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


@dataclass(frozen=True, eq=False)
class ProjectionPath:
    """Multi-period projection record.

    Period 0 is the initial portfolio; entries ``portfolios[t-1]``,
    ``default_flows[t-1]``, ``avg_pds[t-1]`` and ``z[t-1]`` describe period
    t = 1..m.  Average PDs are measured against the unstressed matrix so the
    path isolates the rating-mix dynamics from any applied stress; the
    realized stressed default flow per period is reported separately.
    The arrays are read-only, so no book can change under its PD.
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

    Built in contiguous passes: flow x orig plus the migration block as a
    fresh array, one copy into the stack, the flow column, then the default
    column, written as 0.0, which 0.0 + flow * orig[-1] always is
    (``orig[-1]`` is +-0.0)."""
    n = probs.shape[-1]
    moved = np.multiply.outer(probs[..., n - 1], orig)
    moved += probs
    b = np.empty(probs.shape[:-1] + (n + 1 + balance,))
    b[..., :n] = moved
    b[..., n] = probs[..., n - 1]
    b[..., n - 1] = 0.0
    if balance:
        b[..., n + 1] = b[..., :n].sum(axis=-1)
    return b


def _step_matrix(tm: TransitionMatrix, orig: np.ndarray) -> np.ndarray:
    """Step matrix of an unstressed period: on the published rates with a
    balance column when ``tm`` was rounded, on ``tm.probs`` otherwise.

    ``tm`` keeps the last one built, read-only, keyed by the exact bits of
    ``orig``: equal weights get that array back, other weights a new build
    in its place."""
    key = orig.tobytes()
    kept = tm._unstressed_step
    if kept is not None and kept[0] == key:
        return kept[1]
    if tm.published is None:
        step = _step_stack(tm.probs, orig)
    else:
        step = _step_stack(tm.published, orig, balance=True)
    step.flags.writeable = False
    object.__setattr__(tm, "_unstressed_step", (key, step))
    return step


def _m_p(step: np.ndarray) -> np.ndarray:
    """M_p of one step matrix: its performing block transposed, to act on
    column vectors, as a contiguous copy (``eigvals`` and the bordered
    solve of a transposed view round differently)."""
    m = step.shape[0] - 1
    return np.ascontiguousarray(step[:m, :m].T)


def _propagate(w: np.ndarray, steps, out: np.ndarray) -> np.ndarray:
    """Move the book ``w`` through one period per step matrix of ``steps``,
    each one ``ndarray.dot`` (the routine of :func:`numpy.dot`).

    Row t of ``out`` (at least n + 1 wide) gets the book after period t in
    its first n entries, rescaled to unit balance by a step matrix with a
    balance column, and the defaulted flow in entry n.  Returns the books.
    """
    n = w.size
    for b, row in zip(steps, out):
        if b.shape[1] == n + 1:
            w.dot(b, out=row[:n + 1])
        else:
            w.dot(b, out=row)
            row[:n] /= row[n + 1]
        w = row[:n]
    return out[:, :n]


def propagate_step(portfolio: Portfolio, tm: TransitionMatrix,
                   origination: OriginationVector) -> tuple[Portfolio, float]:
    """One propagation period under ``tm``: the first period of
    :func:`project_path` at z = 0.

    Returns the post-period portfolio (default grade written off and
    re-originated, so its default weight is exactly zero) and the defaulted
    balance flow of the period.  A matrix with rounded rows moves the book
    under its published rates and rescales the result to unit balance.  The
    returned book is read-only, as a checked one is, but skips the 1e-12
    sum check: on rows at that bound its mass drifts past it within a few
    steps, as in :func:`project_path`.
    """
    path = project_path(portfolio, tm, origination, 0.0, (0.0,))
    book = object.__new__(Portfolio)  # not re-checked, see the docstring
    object.__setattr__(book, "weights", path.portfolios[0])
    return book, float(path.default_flows[0])


def _pd(books: np.ndarray, tm: TransitionMatrix) -> np.ndarray:
    """Average PD under ``tm``'s default column of one book (n,), as a 0-d
    value, or of each book of a stack (m, n), as (m,).

    The one place a book becomes a PD: one (1, n) @ (n, 1) product per
    book, the dot product :func:`numpy.dot` takes of two vectors, so a
    book's PD does not depend on the books stacked with it."""
    return (books[..., None, :] @ tm.default_column[:, None])[..., 0, 0]


def average_pd(portfolio: Portfolio, tm: TransitionMatrix) -> float:
    """Balance-weighted one-period default probability of the book, bit for
    bit the PD every report and path of the package gives that book."""
    _check_sizes(portfolio=portfolio, matrix=tm)
    return float(_pd(portfolio.weights, tm))


def project_path(initial: Portfolio, tm: TransitionMatrix,
                 origination: OriginationVector, rho: float,
                 z_path) -> ProjectionPath:
    """Propagate over a sequence of economy states.

    ``rho`` is checked on every call, also when no period is stressed.
    Each period stresses the matrix at z_t (z == 0 or rho == 0 uses ``tm``
    unchanged, bit for bit) and applies one propagation step, bit for bit
    the same as :func:`stress_transition_matrix` followed by
    :func:`propagate_step`; the step matrices of all stressed periods are
    built together, from one :func:`~ttcstress.transition._stressed_probs`
    stack, and the unstressed one only if some period uses it.  When every
    period is stressed that stack is the propagation's input as it is;
    otherwise each period's step is picked from the two.  The recorded
    average PDs, ``initial_pd`` included, use the unstressed matrix
    throughout and are bit for bit :func:`average_pd` of each book, so a
    period's PD does not depend on the horizon.
    """
    z_arr = _floats(z_path, "z path", min_size=1)
    _check_sizes(portfolio=initial, matrix=tm, origination=origination)
    rho = _check_rho(rho)
    m = z_arr.size
    n = tm.n
    orig = origination.weights
    stressed_at = (z_arr != 0.0) & (rho > 0.0)
    unstressed = None if stressed_at.all() else _step_matrix(tm, orig)
    if unstressed is None:
        steps = stack = _step_stack(_stressed_probs(tm, rho, z_arr), orig)
    else:
        steps = [unstressed] * m
        if stressed_at.any():
            stack = _step_stack(_stressed_probs(tm, rho, z_arr[stressed_at]), orig)
            for t, b in zip(np.flatnonzero(stressed_at), stack):
                steps[t] = b
    # row 0 holds the initial book; the unstressed step, when built, is the
    # widest (a balance column)
    buf = np.empty((m + 1,
                    (stack if unstressed is None else unstressed).shape[-1]))
    buf[0, :n] = initial.weights
    _propagate(buf[0, :n], steps, buf[1:])
    pds = _pd(buf[:, :n], tm)
    for arr in (buf, pds):  # the record's arrays are views of these
        arr.flags.writeable = False
    return ProjectionPath(
        initial=initial,
        initial_pd=float(pds[0]),
        z=z_arr,
        portfolios=buf[1:, :n],
        default_flows=buf[1:, n],
        avg_pds=pds[1:],
    )
