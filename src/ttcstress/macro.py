"""Macroeconomic linkage: probit credit-index regression and (p, rho) calibration.

The observed credit index C_t is read as a point-in-time default rate, so its
probit is linear in the economy state:

    probit(C_t) = (probit(p) - sqrt(rho) * z_t) / sqrt(1 - rho)

With z standard normal, the method of moments identifies rho from the probit
variance and p from the probit mean.  A linear regression of probit(C_t) on
lagged macro variables then turns any macro scenario into a z path.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError
from .normal import std_normal_cdf, std_normal_inv_cdf
from .transition import _check_rho


@dataclass(frozen=True, eq=False)
class CreditIndexSeries:
    """Ordered default-rate-like observations, one per period."""

    values: np.ndarray
    periods: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise InputError("shape", "credit index must be a non-empty vector")
        if not np.isfinite(arr).all():
            raise InputError("invalid-argument",
                             "credit index contains non-finite values")
        if (arr < 0.0).any() or (arr > 1.0).any():
            raise InputError("invalid-argument",
                             "credit index values must lie in [0, 1]")
        object.__setattr__(self, "values", arr)
        if self.periods is not None and len(self.periods) != arr.size:
            raise InputError("shape", "period labels do not match series length")

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class MacroScenario:
    """Rectangular block of macro variables, one row per period."""

    values: np.ndarray
    names: tuple[str, ...]
    periods: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise InputError("shape", "macro scenario must be a non-empty matrix")
        if not np.isfinite(arr).all():
            raise InputError("invalid-argument",
                             "macro scenario contains non-finite values")
        if len(self.names) != arr.shape[1]:
            raise InputError("shape", "variable names do not match column count")
        object.__setattr__(self, "values", arr)
        if self.periods is not None and len(self.periods) != arr.shape[0]:
            raise InputError("shape", "period labels do not match row count")

    @property
    def n_periods(self) -> int:
        return self.values.shape[0]

    @property
    def n_vars(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class MacroModel:
    """Fitted probit-link regression with the calibrated (p, rho) pair.

    ``betas`` (intercept first) must be a finite vector of length two or
    more, and 0 < p < 1 and 0 <= rho < 1; anything else is an
    ``invalid-argument`` error, so a model built by hand cannot turn a
    macro row into a NaN economy state.
    """

    betas: np.ndarray
    lag: int
    p: float
    rho: float
    r_squared: float
    residual_variance: float

    def __post_init__(self):
        betas = np.array(self.betas, dtype=float)
        if betas.ndim != 1 or betas.size < 2 or not np.isfinite(betas).all():
            raise InputError("invalid-argument",
                             "betas must be a finite vector of length >= 2 "
                             "(intercept first)")
        p = float(self.p)
        if not 0.0 < p < 1.0:
            raise InputError("invalid-argument",
                             f"p must lie in (0, 1), got {p!r}")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rho", _check_rho(self.rho))

    @property
    def n_vars(self) -> int:
        return self.betas.size - 1

    @cached_property
    def _probit_p(self) -> float:
        """probit(p), taken on the first economy state and kept."""
        return std_normal_inv_cdf(self.p)

    def linear_predictor(self, macro_row) -> float:
        return float(self._predictors(self._checked_row(macro_row))[0])

    def _checked_row(self, macro_row) -> np.ndarray:
        """``macro_row`` as a (1, k) stack, checked for size and finiteness."""
        row = np.asarray(macro_row, dtype=float)
        if row.ndim != 1 or row.size != self.n_vars:
            raise InputError("dimension-mismatch",
                             f"expected {self.n_vars} macro values, got {row.size}")
        if not np.isfinite(row).all():
            raise InputError("invalid-argument",
                             "macro row contains non-finite values")
        return row[None]

    def _predictors(self, rows: np.ndarray) -> np.ndarray:
        """Linear predictor of every row of a (count, k) stack.

        One (1, k) @ (k, 1) product per row, so a row's value does not
        depend on the rows stacked with it (a flat (count, k) @ (k,)
        product or einsum groups the sums differently).
        """
        return self.betas[0] + (rows[:, None, :] @ self.betas[1:, None])[:, 0, 0]


def _probits(series: CreditIndexSeries) -> np.ndarray:
    values = series.values
    if ((values == 0.0) | (values == 1.0)).any():
        i = int(np.argmax((values == 0.0) | (values == 1.0)))
        raise InputError("boundary",
                         f"credit index value {values[i]} at position {i + 1} "
                         "has no finite probit; calibration needs values "
                         "strictly inside (0, 1)")
    return std_normal_inv_cdf(values)


def estimate_p_rho(series: CreditIndexSeries) -> tuple[float, float]:
    """Method-of-moments (p, rho) from a credit index series.

    With y = probit(C): Var(y) = rho / (1 - rho) and E[y] = probit(p) /
    sqrt(1 - rho), so rho = v / (1 + v) with the sample variance v (divisor
    N - 1) and p = Phi(mean(y) * sqrt(1 - rho)).  A constant series gives
    rho = 0 and p equal to the constant.
    """
    if len(series) < 2:
        raise InputError("too-short",
                         "need at least two observations to calibrate (p, rho)")
    y = _probits(series)
    mean = float(y.mean())
    # a truly constant series must give rho = 0 exactly, without mean roundoff
    var = 0.0 if (y == y[0]).all() else float(y.var(ddof=1))
    rho = var / (1.0 + var)
    p = std_normal_cdf(mean * np.sqrt(1.0 - rho))
    return p, rho


def fit_macro_model(series: CreditIndexSeries, scenario: MacroScenario,
                    lag: int = 0) -> MacroModel:
    """OLS of probit(C_t) on an intercept and macro variables lagged by ``lag``.

    One least-squares solve (SVD) of the design; a design of numerical rank
    below its column count (collinear regressors) is rejected.  The
    calibrated (p, rho) from the full series is stored on the model.
    """
    lag = int(lag)
    if lag < 0:
        raise InputError("invalid-argument", "lag must be >= 0")
    if len(series) != scenario.n_periods:
        raise InputError("dimension-mismatch",
                         f"series has {len(series)} periods, scenario has "
                         f"{scenario.n_periods}")
    y = _probits(series)[lag:]
    k = scenario.n_vars
    n_obs = len(series) - lag
    if n_obs < k + 2:
        raise InputError("too-short",
                         f"need at least {k + 2} aligned observations for "
                         f"{k} regressors, got {n_obs}")
    design = np.column_stack([np.ones(n_obs),
                              scenario.values[:scenario.n_periods - lag]])
    betas, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < k + 1:
        raise InputError("rank-deficient",
                         "rank-deficient design: regressors are collinear")
    resid = y - design @ betas
    ssr = float(resid @ resid)
    sst = float(((y - y.mean()) ** 2).sum())
    if sst > 0.0:
        r_squared = 1.0 - ssr / sst
    else:
        r_squared = 1.0 if ssr <= 1e-24 else 0.0
    p, rho = estimate_p_rho(series)
    return MacroModel(
        betas=betas,
        lag=lag,
        p=p,
        rho=rho,
        r_squared=r_squared,
        residual_variance=ssr / (n_obs - (k + 1)),
    )


def _z_of_rows(model: MacroModel, rows: np.ndarray) -> np.ndarray:
    """z of each row of a (count, k) stack, as :func:`economy_state` has it."""
    if model.rho <= 0.0:
        raise InputError("zero-rho",
                         "economy state undefined without systematic risk "
                         "(rho = 0)")
    return ((model._probit_p
             - np.sqrt(1.0 - model.rho) * model._predictors(rows))
            / np.sqrt(model.rho))


def economy_state(model: MacroModel, macro_row) -> float:
    """Economy state z implied by one row of macro variables.

    Combines the fitted regression with the probit identity: the regression
    gives probit(C) and inverting the one-factor relation yields

        z = (probit(p) - sqrt(1 - rho) * predictor) / sqrt(rho).

    The row must hold ``model.n_vars`` finite values.  Requires rho > 0;
    without systematic risk the credit index carries no information about z.
    """
    return float(_z_of_rows(model, model._checked_row(macro_row))[0])


def economy_state_path(model: MacroModel, scenario: MacroScenario) -> np.ndarray:
    """z_t for every scenario period that has lagged regressors available.

    Returns a vector of length ``n_periods - lag``; entry t corresponds to
    scenario period ``lag + t`` and is computed from macro row t, bit for
    bit as :func:`economy_state` computes it.
    """
    if scenario.n_vars != model.n_vars:
        raise InputError("dimension-mismatch",
                         f"model has {model.n_vars} variables, scenario has "
                         f"{scenario.n_vars}")
    count = max(scenario.n_periods - model.lag, 0)
    if count == 0:
        return np.array([])
    return _z_of_rows(model, scenario.values[:count])
