"""Existence and computation of the through-the-cycle (TTC) portfolio.

The write-off / re-origination propagation map is linear on the performing
grades.  :mod:`~ttcstress.propagation` alone lays it out, as the step matrix
of one period; M_p is that matrix's performing block, transposed to act on
column vectors.  M_p is column-stochastic and its fixed vector is the TTC
portfolio.  When the performing block is primitive, Perron-Frobenius
theory makes that fixed vector unique, strictly positive, and the attractor
of plain iteration from any starting mix.

Two solvers are provided: the direct solve of (M_p - I) w = 0 with the
mass constraint replacing one redundant row (the production path:
:func:`solve_ttc`, behind the ``ttc`` and ``validate`` commands), and the
fixed-point iteration (the operational definition, kept as the independent
oracle).  They must agree; tests hold them to 1e-8 and better.

A matrix whose rows were rounded (``TransitionMatrix.published`` is set)
defines its TTC portfolio on the published rates: it is the fixed point of
the propagation step with the book rescaled to unit balance, which is the
normalised Perron vector of the published-rate M_p.  Its Perron root r
differs from one by the rounding, so the bordered system becomes
(M_p - r I) w = 0, with r from the ``eigvals`` that also gives lambda_2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Outside the oracle loop, propagation's helpers are called by module name:
# the _step_matrix imported below is the loop's alone, for a patch to catch.
from . import propagation
from .errors import ConvergenceError, InputError, PrimitivityError
from .propagation import (OriginationVector, Portfolio, _check_sizes, _pd,
                          _propagate, _step_matrix, average_pd)
from .transition import (TransitionMatrix, _check_count, _check_finite,
                         _check_tol, _floats)

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000


def is_primitive(block) -> bool:
    """Whether a nonnegative square matrix is primitive.

    A nonnegative matrix is primitive when some power of it is entrywise
    positive: its graph (an edge i -> j for each positive entry) is
    strongly connected and aperiodic.  The test runs on that graph, with one
    product of 0/1 entries per breadth-first level, so no numerical under-
    or overflow is possible.  A non-finite entry is an input error, as in
    a transition matrix: neither NaN nor an infinity is an edge weight.
    """
    arr = _floats(block, "matrix")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise InputError("shape", "primitivity check needs a square matrix")
    _check_finite(arr)
    if (arr < 0.0).any():
        i, j = np.argwhere(arr < 0.0)[0]
        raise InputError("negative-entry",
                         f"negative entry at row {i + 1}, column {j + 1}")
    return _primitivity_defect(arr > 0.0) is None


def _primitivity_defect(adj: np.ndarray) -> str | None:
    """Why the graph with adjacency ``adj`` is not primitive, or None.

    One breadth-first search runs on the graph and its reverse side by
    side, from grade 1 in each: every grade must be reached in both.  The
    period is then the gcd of level[i] + 1 - level[j] over all edges i -> j
    (Denardo 1977; Jarvis & Shier 1999), and the graph is primitive when
    it is 1.  A grade that keeps mass is a cycle of length 1, so a positive
    diagonal settles the period without the gcd.

    A rating matrix settles the question before any search: when every
    grade moves one notch up and one notch down with positive probability,
    the chain of those moves reaches every grade from every other, and one
    grade that keeps mass makes the graph aperiodic.  Every other graph,
    and every defect reported, goes through the search.
    """
    if (np.diagonal(adj, 1).all() and np.diagonal(adj, -1).all()
            and adj.diagonal().any()):
        return None
    m = adj.shape[0]
    both = np.zeros((2 * m, 2 * m))
    both[:m, :m] = adj
    both[m:, m:] = adj.T
    level = np.full(2 * m, -1)
    level[::m] = 0  # grade 1 of the graph and of its reverse
    front = level == 0
    depth = 0
    while front.any():
        depth += 1
        front = (front @ both > 0.0) & (level < 0)
        level[front] = depth
    missing = np.flatnonzero(level < 0)
    if missing.size:
        k = int(missing[0])
        return (f"grade {k + 1} is unreachable from grade 1" if k < m
                else f"grade 1 is unreachable from grade {k - m + 1}")
    if adj.diagonal().any():
        return None
    src, dst = np.nonzero(adj)
    period = int(np.gcd.reduce(level[src] + 1 - level[dst]))
    if period == 0:
        return "grade 1 has no transition to itself"
    return None if period == 1 else f"the grades cycle with period {period}"


def build_m_p(tm: TransitionMatrix, origination: OriginationVector) -> np.ndarray:
    """Performing-grade propagation matrix, acting on column vectors.

    Entry (j, i) is the probability mass grade i sends to grade j in one
    period: the direct migration plus the share of grade i's default flow
    re-originated into j.  It is the transposed performing block of the
    propagation step matrix on ``tm.probs`` (the row-stochastic rates, also
    for a matrix with rounded rows).  Column i sums to row i's sum less
    d_i (1 - sum of o), so to one within the inputs' own checks.
    """
    _check_sizes(matrix=tm, origination=origination)
    return propagation._m_p(
        propagation._step_stack(tm.probs, origination.weights))


@dataclass(frozen=True, eq=False)
class TTCResult:
    """TTC portfolio with solver diagnostics.

    :func:`solve_ttc` solves directly: ``iterations`` is 0,
    ``final_step_delta`` is the L1 change one propagation step makes to the
    portfolio and ``spectral_gap_estimate`` is the exact lambda_2.  From
    :func:`solve_ttc_iterative` it is a noisy ratio of two rounding-level
    deltas.
    """

    w_ttc: Portfolio
    iterations: int
    final_step_delta: float
    ttc_pd: float
    spectral_gap_estimate: float


def solve_ttc(tm: TransitionMatrix,
              origination: OriginationVector) -> TTCResult:
    """The production TTC solve: the primitivity gate (the same
    :class:`PrimitivityError` as the oracle's), the Perron checks, then one
    direct solve and one propagation step for its residual."""
    _check_solver_inputs(tm, origination, require_primitive=True)
    return _ttc_result(tm, origination,
                       verify_perron_structure(tm, origination))


def _ttc_result(tm: TransitionMatrix, origination: OriginationVector,
                perron: PerronReport) -> TTCResult:
    """TTC result of ``perron.fixed_vector``, past the primitivity gate."""
    w = perron.fixed_vector
    if w is None:
        raise PrimitivityError(
            "bordered system is singular: the fixed vector is not unique, "
            "so the performing block cannot be primitive")
    if (w < -1e-10).any():
        raise PrimitivityError(
            "direct solve produced a significantly negative component; "
            "the performing block is not primitive or the inputs are "
            "inconsistent")
    w = np.where(w < 0.0, 0.0, w)
    full = np.zeros(tm.n)
    full[:-1] = w / w.sum()
    w_ttc = Portfolio(full)
    step = propagation._step_matrix(tm, origination.weights)
    stepped = _propagate(full, (step,), np.empty((1, step.shape[1])))[0]
    return TTCResult(
        w_ttc=w_ttc,
        iterations=0,
        final_step_delta=float(np.abs(stepped - full).sum()),
        ttc_pd=float(_pd(full, tm)),
        spectral_gap_estimate=perron.lambda2,
    )


def solve_ttc_iterative(tm: TransitionMatrix, origination: OriginationVector,
                        tol: float = DEFAULT_TOL,
                        max_iter: int = DEFAULT_MAX_ITER,
                        require_primitive: bool = True,
                        initial: Portfolio | None = None) -> TTCResult:
    """Fixed-point iteration for the TTC portfolio.

    Starts from the uniform mix over performing grades (any ``initial``
    portfolio converges to the same fixed point on a primitive system) and
    applies the propagation step until the L1 change between iterates drops
    below ``tol``.  ``spectral_gap_estimate`` is the ratio of the last two
    L1 deltas, taken near ``tol`` where rounding dominates: 0.9402954 on the
    bundled data against the exact lambda_2 0.9403702 that
    :func:`solve_ttc` reports.  The step is
    :func:`~ttcstress.propagation.propagate_step`'s, so a matrix with
    rounded rows iterates on its published rates at unit balance.

    ``require_primitive=False`` skips the primitivity gate; on a
    non-primitive system the iteration then typically cycles and the raised
    :class:`ConvergenceError` carries a period-2 oscillation diagnostic.
    """
    _check_solver_inputs(tm, origination, require_primitive, initial)
    _check_tol(tol, positive=True)
    max_iter = _check_count("max_iter", max_iter, 1)
    if initial is not None:
        w = initial.weights.copy()
    else:
        w = np.zeros(tm.n)
        w[:-1] = 1.0 / (tm.n - 1)
    b = _step_matrix(tm, origination.weights)
    prev1, prev2, two_back, prev_delta, gap = w, None, None, None, 0.0
    for it in range(1, max_iter + 1):
        # a fresh row per step: the last three iterates are kept
        w = _propagate(prev1, (b,), np.empty((1, b.shape[1])))[0]
        delta = float(np.abs(w - prev1).sum())
        if prev_delta is not None and prev_delta > 0.0:
            gap = delta / prev_delta
        if delta < tol:
            result = Portfolio(w / w.sum())
            return TTCResult(
                w_ttc=result,
                iterations=it,
                final_step_delta=delta,
                ttc_pd=average_pd(result, tm),
                spectral_gap_estimate=gap,
            )
        two_back, prev2, prev1, prev_delta = prev2, prev1, w, delta
    cycle = (float("nan") if two_back is None
             else float(np.abs(w - two_back).sum()))
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations: last L1 delta "
        f"{delta:.3e}, distance to the iterate two steps back {cycle:.3e}",
        iterations=max_iter,
        last_delta=delta,
        cycle_delta=cycle,
    )


def solve_ttc_direct(tm: TransitionMatrix,
                     origination: OriginationVector) -> Portfolio:
    """The TTC portfolio of :func:`solve_ttc`, its Perron checks included,
    for callers that want the portfolio alone."""
    return solve_ttc(tm, origination).w_ttc


def _solve_unit_eigenvector(m_p: np.ndarray,
                            root: float) -> np.ndarray | None:
    """Solve (M_p - root I) w = 0 with one row swapped for the mass
    constraint; None if that system is singular (the fixed vector is not
    unique)."""
    m = m_p.shape[0]
    a = m_p.copy()
    a.flat[::m + 1] -= root
    a[-1, :] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None


def _check_solver_inputs(tm: TransitionMatrix, origination: OriginationVector,
                         require_primitive: bool, initial=None) -> None:
    _check_sizes(matrix=tm, origination=origination, initial=initial)
    reason = (_primitivity_defect(tm.performing_block > 0.0)
              if require_primitive else None)
    if reason is not None:
        raise PrimitivityError(
            f"performing-grade block is not primitive: {reason}",
            reason=reason)


@dataclass(frozen=True, eq=False)
class PerronReport:
    """Structural checks behind existence and convergence of the TTC portfolio.

    ``fixed_vector`` (the TTC portfolio on the performing grades, unit mass,
    read-only; None if the bordered system is singular), its fixed-point
    ``residual``, ``root`` and ``lambda2`` all come from one ``eigvals`` and
    one bordered solve of the M_p of the unstressed propagation step: the
    transposed performing block of its step matrix, on the published rates
    for a matrix with rounded rows.  Its mass is not checked again after
    arithmetic: ``root`` states what a step keeps of it.
    """

    residual: float
    residual_ok: bool
    lambda2: float
    lambda2_ok: bool
    root: float
    fixed_vector: np.ndarray | None = None

    @property
    def passed(self) -> bool:
        return self.residual_ok and self.lambda2_ok


def verify_perron_structure(tm: TransitionMatrix,
                            origination: OriginationVector) -> PerronReport:
    """Check the spectral facts the TTC solvers rely on, on the one M_p the
    propagation step uses: the transposed performing block of the unstressed
    step matrix, which is on the published rates for a matrix with rounded
    rows.  One ``eigvals`` gives the Perron root r and lambda_2, the
    second-largest eigenvalue modulus (0 for one performing grade), which
    must lie below one.  One bordered solve of (M_p - r I) w = 0 gives the
    fixed vector, with r taken as exactly one for stochastic rows.  Reports
    the max-abs change one unit-balance step M w / (1'M w) makes to the
    fixed vector, the root and lambda_2.  Raises only for mismatched sizes.
    """
    _check_sizes(matrix=tm, origination=origination)
    m_p = propagation._m_p(
        propagation._step_matrix(tm, origination.weights))
    moduli = np.sort(np.abs(np.linalg.eigvals(m_p)))
    root = float(moduli[-1])
    w = _solve_unit_eigenvector(m_p, 1.0 if tm.published is None else root)
    residual = float("inf")
    if w is not None:
        w.flags.writeable = False
        stepped = m_p @ w
        residual = float(np.abs(stepped / stepped.sum() - w).max())
    lam2 = float(moduli[-2]) if moduli.size > 1 else 0.0
    return PerronReport(
        residual=residual,
        residual_ok=residual <= 1e-10,
        lambda2=lam2,
        lambda2_ok=lam2 < 1.0,
        root=root,
        fixed_vector=w,
    )
