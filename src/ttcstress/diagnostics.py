"""Consistency diagnostics between a current portfolio and the model parameters.

The parameterization (transition matrix plus origination mix) pins down one
through-the-cycle portfolio.  A book far from that attractor will drift
toward it even in a projection with no stress applied, and the drift can
masquerade as a recession or a boom.  The checks here quantify the gap,
run the zero-stress projection, and classify the PD path.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .propagation import (OriginationVector, Portfolio, ProjectionPath,
                          _check_sizes, _pd, project_path)
from .transition import TransitionMatrix
from .ttc import (PerronReport, TTCResult, _primitivity_defect, _ttc_result,
                  is_primitive, verify_perron_structure)

DEFAULT_BAND = 0.05
DEFAULT_HORIZON = 50

CLASS_MONOTONE = "monotone-convergent"
CLASS_RECESSION = "spurious-recession"
CLASS_BOOM = "spurious-boom"
CLASS_MIXED = "mixed"
_CLASSES = {(False, False): CLASS_MONOTONE, (True, False): CLASS_RECESSION,
            (False, True): CLASS_BOOM, (True, True): CLASS_MIXED}


@dataclass(frozen=True, eq=False)
class DivergenceReport:
    """Per-grade gap between the current book and the TTC portfolio;
    ``differences`` is read-only."""

    differences: np.ndarray
    l1: float
    linf: float
    current_pd: float
    ttc_pd: float


@dataclass(frozen=True, eq=False)
class SpuriousReport:
    """Classification of an average-PD path from a zero-stress projection.

    ``pd_path`` holds a_0..a_m including the initial portfolio's PD,
    read-only; the terminal value is the convergence proxy.  An excursion
    counts as spurious when it clears both endpoints by more than ``band``
    times the terminal PD.
    """

    pd_path: np.ndarray
    min_pd: float
    min_period: int
    max_pd: float
    max_period: int
    terminal_pd: float
    classification: str
    first_crossing: int
    band: float
    deviations_non_increasing: bool

    @property
    def spurious(self) -> bool:
        return self.classification != CLASS_MONOTONE


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Bundle of all parameterization checks with an overall verdict.

    ``verdict`` is "pass", "warn: <classification>" when the zero-stress
    projection shows spurious dynamics, "fail: degenerate spectral
    structure" when the Perron check fails, or "fail: not primitive" when
    no unique TTC portfolio exists, as ``defect`` explains.  A report has
    one of two shapes: ``defect`` set and every component None, or
    ``defect`` None and every component present.
    """

    verdict: str
    defect: str | None = None
    ttc: TTCResult | None = None
    divergence: DivergenceReport | None = None
    path: ProjectionPath | None = None
    spurious: SpuriousReport | None = None
    perron: PerronReport | None = None

    @property
    def primitive(self) -> bool:
        return self.defect is None

    @property
    def exit_code(self) -> int:
        if self.verdict.startswith("fail"):
            return 2
        if self.verdict.startswith("warn"):
            return 1
        return 0


def compare_portfolios(current: Portfolio, w_ttc: Portfolio,
                       tm: TransitionMatrix) -> DivergenceReport:
    """Componentwise differences and norms, with both average PDs."""
    _check_sizes(current=current, ttc=w_ttc, matrix=tm)
    diff = current.weights - w_ttc.weights
    diff.flags.writeable = False
    gaps = np.abs(diff)
    return DivergenceReport(
        differences=diff,
        l1=float(gaps.sum()),
        linf=float(gaps.max()),
        current_pd=float(_pd(current.weights, tm)),
        ttc_pd=float(_pd(w_ttc.weights, tm)),
    )


def classify_pd_path(pds, band: float = DEFAULT_BAND) -> SpuriousReport:
    """Classify a PD sequence a_0..a_m; the first entry is the path start
    and the periods reported are indices into the sequence.

    Recession: some PD exceeds both the start and the terminal value by more
    than band * terminal.  Boom: some PD undercuts the lower endpoint by the
    same margin.  Both at once is "mixed"; otherwise the path counts as
    monotone-convergent (the report separately records whether the
    deviations |a_t - a_m| are truly non-increasing).
    """
    arr = np.array(pds, dtype=float)  # a copy: the caller may write to pds
    arr.flags.writeable = False
    if arr.ndim != 1 or arr.size < 2:
        raise InputError("too-short", "need at least two PD observations")
    if not np.isfinite(arr).all():
        raise InputError("invalid-argument", "PD path contains non-finite values")
    if not 0.0 < band < np.inf:
        raise InputError("invalid-argument",
                         "band must be a finite positive number")
    start, terminal = float(arr[0]), float(arr[-1])
    threshold = band * terminal
    i_min, i_max = int(arr.argmin()), int(arr.argmax())
    min_pd, max_pd = float(arr[i_min]), float(arr[i_max])
    recession = (max_pd > start
                 and max_pd - start > threshold
                 and max_pd - terminal > threshold)
    boom = min(start, terminal) - min_pd > threshold
    classification = _CLASSES[recession, boom]
    deviations = np.abs(arr - terminal)
    non_increasing = bool((deviations[1:] - deviations[:-1] <= 1e-12).all())
    inside = deviations <= threshold
    first_crossing = int(inside.argmax()) if inside.any() else arr.size - 1
    return SpuriousReport(
        pd_path=arr,
        min_pd=min_pd,
        min_period=i_min,
        max_pd=max_pd,
        max_period=i_max,
        terminal_pd=terminal,
        classification=classification,
        first_crossing=first_crossing,
        band=float(band),
        deviations_non_increasing=non_increasing,
    )


def detect_spurious_dynamics(path: ProjectionPath,
                             band: float = DEFAULT_BAND) -> SpuriousReport:
    """Classify a projection's PD path (period 0 through m)."""
    return classify_pd_path(path.pd_series(), band=band)


def run_validation(current: Portfolio, tm: TransitionMatrix,
                   origination: OriginationVector,
                   horizon: int = DEFAULT_HORIZON,
                   band: float = DEFAULT_BAND) -> ValidationReport:
    """Full pre-stress-test validation of a parameterization.

    Checks the sizes, then primitivity, verifies the spectral structure,
    solves directly for the TTC portfolio, compares it with the current
    book, projects ``horizon`` periods with no stress and classifies the
    resulting PD path.  Mismatched sizes raise an input error before any
    model check can read them as a verdict.  Each field is bit for bit
    what its stage's public function gives.
    """
    if horizon < 1:
        raise InputError("invalid-argument", "horizon must be >= 1")
    _check_sizes(current=current, matrix=tm, origination=origination)
    if not is_primitive(tm.performing_block):
        defect = _primitivity_defect(tm.performing_block > 0.0)
        return ValidationReport("fail: not primitive", defect=defect)
    perron = verify_perron_structure(tm, origination)
    ttc = _ttc_result(tm, origination, perron)
    divergence = compare_portfolios(current, ttc.w_ttc, tm)
    path = project_path(current, tm, origination, rho=0.0,
                        z_path=np.zeros(horizon))
    spurious = detect_spurious_dynamics(path, band=band)
    if not perron.passed:
        verdict = "fail: degenerate spectral structure"
    elif spurious.spurious:
        verdict = f"warn: {spurious.classification}"
    else:
        verdict = "pass"
    return ValidationReport(verdict, ttc=ttc, divergence=divergence,
                            path=path, spurious=spurious, perron=perron)
