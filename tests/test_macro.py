import numpy as np
import pytest
from scipy.special import ndtr, ndtri

import ttcstress as ts
from ttcstress.errors import InputError

# Frozen from a 40-digit mpmath oracle for the two-point series C = (0.01, 0.04).
TWO_POINT_RHO = 0.14214138650942457
TWO_POINT_P = 0.029507081091374096
# Phi((Phi^-1(0.02) - sqrt(0.12)*1.3)/sqrt(0.88)) for the round-trip case.
ROUND_TRIP_C = 0.0037997916086188743


class TestEstimatePRho:
    def test_constant_series_gives_zero_rho(self):
        series = ts.CreditIndexSeries(np.full(12, 0.02))
        p, rho = ts.estimate_p_rho(series)
        assert rho == 0.0
        assert p == pytest.approx(0.02, abs=1e-15)

    def test_two_point_series_hand_values(self):
        p, rho = ts.estimate_p_rho(ts.CreditIndexSeries([0.01, 0.04]))
        assert rho == pytest.approx(TWO_POINT_RHO, abs=1e-12)
        assert p == pytest.approx(TWO_POINT_P, abs=1e-12)

    def test_order_invariance(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(0.005, 0.2, 40)
        a = ts.estimate_p_rho(ts.CreditIndexSeries(values))
        b = ts.estimate_p_rho(ts.CreditIndexSeries(values[::-1].copy()))
        assert a == pytest.approx(b, abs=1e-15)

    def test_rho_always_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            values = rng.uniform(1e-6, 1.0 - 1e-6, int(rng.integers(2, 30)))
            _, rho = ts.estimate_p_rho(ts.CreditIndexSeries(values))
            assert 0.0 <= rho < 1.0

    def test_monte_carlo_recovery(self):
        # synthetic index drawn from the one-factor relation with known (p, rho)
        p_true, rho_true = 0.01, 0.15
        rng = np.random.default_rng(12345)
        z = rng.standard_normal(1_000_000)
        probits = (ndtri(p_true) - np.sqrt(rho_true) * z) / np.sqrt(1.0 - rho_true)
        series = ts.CreditIndexSeries(ndtr(probits))
        p_hat, rho_hat = ts.estimate_p_rho(series)
        assert abs(p_hat - p_true) <= 2e-4
        assert abs(rho_hat - rho_true) <= 5e-3

    def test_boundary_value_rejected_at_calibration(self):
        series = ts.CreditIndexSeries([0.02, 1.0, 0.03])
        with pytest.raises(InputError) as err:
            ts.estimate_p_rho(series)
        assert err.value.code == "boundary"

    def test_short_series_rejected(self):
        with pytest.raises(InputError) as err:
            ts.estimate_p_rho(ts.CreditIndexSeries([0.02]))
        assert err.value.code == "too-short"


def _exact_linear_inputs(lag=1, noise_sd=0.0, n=30, seed=4):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.5, n)
    noise = rng.normal(0.0, noise_sd, n) if noise_sd else np.zeros(n)
    predictor = np.empty(n)
    predictor[:lag] = -1.0  # unexplained head periods, any in-range value
    if lag:
        predictor[lag:] = 0.5 - 2.0 * x[:n - lag] + noise[lag:]
    else:
        predictor = 0.5 - 2.0 * x + noise
    series = ts.CreditIndexSeries(ndtr(predictor))
    scenario = ts.MacroScenario(x[:, None], names=("x",))
    return series, scenario


class TestFitMacroModel:
    def test_noiseless_fit_recovers_coefficients(self):
        series, scenario = _exact_linear_inputs(lag=1)
        model = ts.fit_macro_model(series, scenario, lag=1)
        assert model.betas == pytest.approx([0.5, -2.0], abs=1e-10)
        assert model.r_squared == pytest.approx(1.0, abs=1e-12)
        assert model.residual_variance <= 1e-24
        assert model.lag == 1

    def test_noisy_fit_matches_extended_precision_oracle(self):
        import mpmath as mp
        series, scenario = _exact_linear_inputs(lag=0, noise_sd=0.3)
        model = ts.fit_macro_model(series, scenario, lag=0)
        # normal equations solved at 50 digits
        mp.mp.dps = 50
        y = [-mp.sqrt(2) * mp.erfinv(1 - 2 * mp.mpf(repr(float(v))))
             for v in series.values]
        x = [mp.mpf(repr(float(v))) for v in scenario.values[:, 0]]
        n = len(y)
        sx = mp.fsum(x)
        sxx = mp.fsum(xi * xi for xi in x)
        sy = mp.fsum(y)
        sxy = mp.fsum(xi * yi for xi, yi in zip(x, y))
        det = n * sxx - sx * sx
        beta0 = (sxx * sy - sx * sxy) / det
        beta1 = (n * sxy - sx * sy) / det
        assert model.betas[0] == pytest.approx(float(beta0), abs=1e-10)
        assert model.betas[1] == pytest.approx(float(beta1), abs=1e-10)

    @pytest.mark.parametrize("lag", [0, 1])
    def test_bundled_betas_match_extended_precision_least_squares(
            self, lag, data_dir):
        """The solve alone: the oracle takes the fit's own double probits
        and solves the normal equations at 50 digits."""
        import mpmath as mp
        series, scenario = ts.parse_scenario_csv(
            (data_dir / "scenario.csv").read_text())
        model = ts.fit_macro_model(series, scenario, lag=lag)
        mp.mp.dps = 50
        y = mp.matrix(ts.std_normal_inv_cdf(series.values[lag:]).tolist())
        x = mp.matrix([[1.0, *row] for row in
                       scenario.values[:scenario.n_periods - lag].tolist()])
        exact = mp.lu_solve(x.T * x, x.T * y)
        for beta, b in zip(model.betas.tolist(), exact):
            assert abs((beta - b) / b) <= 1e-14

    def test_duplicated_regressor_rejected(self):
        series, scenario = _exact_linear_inputs(lag=0)
        doubled = ts.MacroScenario(
            np.column_stack([scenario.values, scenario.values]),
            names=("x", "x_copy"))
        with pytest.raises(InputError) as err:
            ts.fit_macro_model(series, doubled, lag=0)
        assert err.value.code == "rank-deficient"

    def test_too_few_observations_rejected(self):
        series = ts.CreditIndexSeries([0.01, 0.02])
        scenario = ts.MacroScenario(np.array([[1.0], [2.0]]), names=("x",))
        with pytest.raises(InputError) as err:
            ts.fit_macro_model(series, scenario, lag=0)
        assert err.value.code == "too-short"

    def test_length_mismatch_rejected(self):
        series = ts.CreditIndexSeries([0.01, 0.02, 0.03])
        scenario = ts.MacroScenario(np.array([[1.0], [2.0]]), names=("x",))
        with pytest.raises(InputError) as err:
            ts.fit_macro_model(series, scenario, lag=0)
        assert err.value.code == "dimension-mismatch"

    @pytest.mark.parametrize("value", [0.1, 0.02, 0.3, 0.77])
    @pytest.mark.parametrize("length", [10, 23, 40])
    def test_constant_index_is_fitted_exactly(self, value, length):
        # the intercept alone fits it; the mean's roundoff is no variance
        rng = np.random.default_rng(7)
        series = ts.CreditIndexSeries(np.full(length, value))
        scenario = ts.MacroScenario(rng.standard_normal((length, 2)),
                                    names=("x1", "x2"))
        model = ts.fit_macro_model(series, scenario, lag=1)
        assert model.r_squared == 1.0
        assert model.residual_variance <= 1e-24

    def test_stores_moment_calibration_of_full_series(self):
        series, scenario = _exact_linear_inputs(lag=1)
        model = ts.fit_macro_model(series, scenario, lag=1)
        p, rho = ts.estimate_p_rho(series)
        assert model.p == p and model.rho == rho


class TestEconomyState:
    def _identity_model(self, p, rho):
        # betas (0, 1) make the single macro variable the linear predictor
        return ts.MacroModel(betas=np.array([0.0, 1.0]), lag=0, p=p, rho=rho,
                             r_squared=1.0, residual_variance=0.0)

    def test_fitted_ttc_level_maps_to_zero(self):
        model = self._identity_model(p=0.02, rho=0.12)
        predictor = ts.std_normal_inv_cdf(0.02) / np.sqrt(1.0 - 0.12)
        assert ts.economy_state(model, [predictor]) == pytest.approx(0.0, abs=1e-12)

    def test_round_trip_recovers_z(self):
        model = self._identity_model(p=0.02, rho=0.12)
        z = ts.economy_state(model, [ts.std_normal_inv_cdf(ROUND_TRIP_C)])
        assert z == pytest.approx(1.3, abs=1e-10)

    def test_composition_with_pit_pd_reproduces_credit_index(self):
        model = self._identity_model(p=0.02, rho=0.12)
        for c in (0.001, 0.02, 0.15, 0.6):
            z = ts.economy_state(model, [ts.std_normal_inv_cdf(c)])
            assert ts.pit_pd(model.p, model.rho, z) == pytest.approx(c, abs=1e-12)

    def test_zero_rho_rejected(self):
        model = self._identity_model(p=0.02, rho=0.0)
        with pytest.raises(InputError) as err:
            ts.economy_state(model, [0.5])
        assert err.value.code == "zero-rho"

    @pytest.mark.parametrize("row", [[float("nan"), 1.0],
                                     [float("inf"), 1.0],
                                     [1.0, float("-inf")]])
    def test_non_finite_row_rejected(self, row):
        model = ts.MacroModel(betas=np.array([0.0, 1.0, 0.5]), lag=0, p=0.02,
                              rho=0.12, r_squared=1.0, residual_variance=0.0)
        with pytest.raises(InputError) as err:
            ts.economy_state(model, row)
        assert err.value.code == "invalid-argument"

    def test_path_variable_count_checked(self):
        model = self._identity_model(p=0.02, rho=0.12)
        scenario = ts.MacroScenario(np.ones((3, 2)), names=("x", "y"))
        with pytest.raises(InputError) as err:
            ts.economy_state_path(model, scenario)
        assert err.value.code == "dimension-mismatch"

    def test_row_length_checked(self):
        model = self._identity_model(p=0.02, rho=0.12)
        with pytest.raises(InputError):
            ts.economy_state(model, [0.5, 0.7])

    def test_bundled_scenario_z_path_matches_direct_recomputation(self, data_dir):
        series, scenario = ts.parse_scenario_csv(
            (data_dir / "scenario.csv").read_text())
        model = ts.fit_macro_model(series, scenario, lag=1)
        z = ts.economy_state_path(model, scenario)
        assert z.size == scenario.n_periods - 1
        # spreadsheet-style recomputation, row by row
        for t, row in enumerate(scenario.values[:-1]):
            predictor = model.betas[0] + model.betas[1] * row[0] \
                + model.betas[2] * row[1]
            expected = (ndtri(model.p)
                        - np.sqrt(1.0 - model.rho) * predictor) / np.sqrt(model.rho)
            assert z[t] == pytest.approx(expected, abs=1e-12)

    def test_bundled_scenario_z_path_equals_row_by_row_states(self, data_dir):
        series, scenario = ts.parse_scenario_csv(
            (data_dir / "scenario.csv").read_text())
        for lag in (0, 1, 2):
            model = ts.fit_macro_model(series, scenario, lag=lag)
            z = ts.economy_state_path(model, scenario)
            rows = scenario.values[:scenario.n_periods - lag]
            assert np.array_equal(
                z, np.array([ts.economy_state(model, row) for row in rows]))

    def test_batched_path_equals_row_by_row_states(self):
        """The z path is one stacked product over the rows, bit for bit the
        per-row predictors of economy_state, which are in turn bit for bit
        the plain dot product betas[0] + betas[1:] @ row."""
        rng = np.random.default_rng(1212)
        for _ in range(300):
            k = int(rng.integers(1, 13))
            periods = int(rng.integers(1, 81))
            lag = int(rng.integers(0, 4))
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            model = ts.MacroModel(betas=rng.normal(0.0, scale, k + 1),
                                  lag=lag, p=rng.uniform(0.001, 0.3),
                                  rho=rng.uniform(0.001, 0.9), r_squared=0.5,
                                  residual_variance=0.1)
            scenario = ts.MacroScenario(
                values=rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 3.0),
                                  (periods, k)),
                names=tuple(f"x{i}" for i in range(k)))
            z = ts.economy_state_path(model, scenario)
            rows = scenario.values[:max(periods - lag, 0)]
            assert np.array_equal(
                z, np.array([ts.economy_state(model, row) for row in rows]))
            betas = model.betas
            assert [model.linear_predictor(row) for row in rows] == [
                float(betas[0] + betas[1:] @ row) for row in rows]

    def test_zero_rho_path_rejected_unless_empty(self):
        scenario = ts.MacroScenario(values=np.array([[0.1], [0.2], [0.3]]),
                                    names=("x",))
        model = self._identity_model(p=0.02, rho=0.0)
        with pytest.raises(InputError) as err:
            ts.economy_state_path(model, scenario)
        assert err.value.code == "zero-rho"
        for lag in (3, 4):
            late = ts.MacroModel(betas=model.betas, lag=lag, p=0.02, rho=0.0,
                                 r_squared=1.0, residual_variance=0.0)
            z = ts.economy_state_path(late, scenario)
            assert z.shape == (0,)


class TestSeriesValidation:
    @pytest.mark.parametrize("make, code", [
        (lambda: ts.CreditIndexSeries(np.full((2, 2), 0.1)), "shape"),
        (lambda: ts.CreditIndexSeries([]), "shape"),
        (lambda: ts.CreditIndexSeries([0.1, float("nan")]), "invalid-argument"),
        (lambda: ts.CreditIndexSeries([0.1, 0.2], periods=("2020",)), "shape"),
        (lambda: ts.MacroScenario(np.ones(3), names=("x",)), "shape"),
        (lambda: ts.MacroScenario(np.ones((2, 0)), names=()), "shape"),
        (lambda: ts.MacroScenario([[1.0, float("inf")]], names=("x", "y")),
         "invalid-argument"),
        (lambda: ts.MacroScenario(np.ones((2, 2)), names=("x",)), "shape"),
        (lambda: ts.MacroScenario(np.ones((2, 1)), names=("x",),
                                  periods=("2020",)), "shape"),
    ])
    def test_constructor_checks(self, make, code):
        with pytest.raises(InputError) as err:
            make()
        assert err.value.code == code

    def test_values_outside_unit_interval_rejected(self):
        with pytest.raises(InputError):
            ts.CreditIndexSeries([0.5, 1.5])
        with pytest.raises(InputError):
            ts.CreditIndexSeries([-0.1, 0.5])

    def test_lag_exceeding_series_rejected(self):
        series = ts.CreditIndexSeries([0.01, 0.02, 0.03])
        scenario = ts.MacroScenario(np.array([[1.0], [2.0], [3.0]]),
                                    names=("x",))
        with pytest.raises(InputError) as err:
            ts.fit_macro_model(series, scenario, lag=2)
        assert err.value.code == "too-short"

    def test_negative_lag_rejected(self):
        series = ts.CreditIndexSeries([0.01, 0.02, 0.03])
        scenario = ts.MacroScenario(np.array([[1.0], [2.0], [3.0]]),
                                    names=("x",))
        with pytest.raises(InputError):
            ts.fit_macro_model(series, scenario, lag=-1)

    def test_fractional_lag_rejected(self):
        series, scenario = _exact_linear_inputs(lag=1)
        with pytest.raises(InputError) as err:
            ts.fit_macro_model(series, scenario, lag=1.5)
        assert err.value.code == "invalid-argument"


class TestModelValidation:
    """A hand-built MacroModel checks its parameters, so that no economy
    state comes out NaN."""

    @staticmethod
    def _model(**changes):
        fields = dict(betas=np.array([0.0, 1.0]), lag=0, p=0.02, rho=0.12,
                      r_squared=1.0, residual_variance=0.0)
        fields.update(changes)
        return ts.MacroModel(**fields)

    @pytest.mark.parametrize("changes", [
        dict(rho=1.5), dict(rho=1.0), dict(rho=-0.1), dict(rho=float("nan")),
        dict(p=0.0), dict(p=1.0), dict(p=1.5), dict(p=float("nan")),
        dict(betas=np.array([float("nan"), 1.0])),
        dict(betas=np.array([0.0, float("inf")])),
        dict(betas=np.array([1.0])), dict(betas=np.ones((2, 2))),
    ])
    def test_invalid_parameters_rejected(self, changes):
        with pytest.raises(InputError) as err:
            self._model(**changes)
        assert err.value.code == "invalid-argument"

    @pytest.mark.parametrize("lag", [-1, 1.5, 1.0, "1", None])
    def test_lag_must_be_a_whole_number_at_least_zero(self, lag):
        """A negative lag would give economy_state_path more z values than
        the n_periods - lag it promises, and a fractional one a bare
        TypeError from slicing."""
        with pytest.raises(InputError) as err:
            self._model(lag=lag)
        assert err.value.code == "invalid-argument"
        assert "lag must be an integer >= 0" in str(err.value)

    def test_numpy_integer_lag_becomes_an_int(self):
        model = self._model(lag=np.int64(2))
        assert type(model.lag) is int and model.lag == 2
        scenario = ts.MacroScenario(np.ones((5, 1)), names=("x",))
        assert ts.economy_state_path(model, scenario).size == 3

    def test_records_keep_read_only_copies(self):
        """A write to the caller's array or to the record's own leaves the
        checked values as they were."""
        made = [(lambda v: ts.CreditIndexSeries(v), "values",
                 np.array([0.01, 0.02])),
                (lambda v: ts.MacroScenario(v, names=("x",)), "values",
                 np.array([[1.0], [2.0]])),
                (lambda v: self._model(betas=v), "betas", np.array([0.0, 1.0]))]
        for make, field, given in made:
            record = make(given)
            held = getattr(record, field)
            before = held.copy()
            given[0] = 1.5
            with pytest.raises(ValueError, match="read-only"):
                held[0] = np.nan
            assert held.tobytes() == before.tobytes(), field
            assert given.flags.writeable
        assert ts.economy_state(self._model(), [1.0]) == ts.economy_state(
            record, [1.0])

    def test_list_betas_become_a_float_array(self):
        model = self._model(betas=[0, 1])
        assert model.betas.dtype == float and model.n_vars == 1
        assert ts.economy_state(model, [0.5]) == ts.economy_state(
            self._model(), [0.5])
