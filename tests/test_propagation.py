import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ttcstress as ts
from ttcstress.errors import InputError

from conftest import (AVG_PD_PUBLISHED, TTC_PD_PUBLISHED,
                      TTC_PORTFOLIO_PUBLISHED, random_portfolio, random_system)


@pytest.fixture()
def three_grade():
    tm = ts.validate_transition_matrix(
        [[0.8, 0.1, 0.1], [0.0, 0.9, 0.1], [0.0, 0.0, 1.0]])
    orig = ts.OriginationVector([0.5, 0.5, 0.0])
    return tm, orig


class TestVectorTypes:
    def test_portfolio_must_sum_to_one(self):
        with pytest.raises(InputError) as err:
            ts.Portfolio([0.5, 0.4, 0.0])
        assert err.value.code == "weight-sum"

    def test_weight_sum_is_printed_as_a_plain_number(self):
        with pytest.raises(InputError) as err:
            ts.Portfolio([0.5, 0.4, 0.0])
        assert str(err.value) == "portfolio sums to 0.9, outside 1 +- 1e-12"

    def test_portfolio_rejects_negative_weight(self):
        with pytest.raises(InputError) as err:
            ts.Portfolio([1.1, -0.1, 0.0])
        assert err.value.code == "negative-entry"

    def test_origination_into_default_rejected(self):
        with pytest.raises(InputError) as err:
            ts.OriginationVector([0.5, 0.4, 0.1])
        assert err.value.code == "origination-into-default"

    def test_default_weight_allowed_in_portfolio(self):
        p = ts.Portfolio([0.6, 0.2, 0.2])
        assert p.weights[-1] == 0.2


class TestPropagateStep:
    def test_hand_computed_step(self, three_grade):
        tm, orig = three_grade
        after, flow = ts.propagate_step(ts.Portfolio([1.0, 0.0, 0.0]), tm, orig)
        assert flow == pytest.approx(0.1, abs=1e-15)
        assert np.allclose(after.weights, [0.85, 0.15, 0.0], atol=1e-15)

    def test_step_from_ttc_with_rows_at_the_sum_bound(self):
        # rows kept as given by validation; one step leaves the book's mass
        # at 1 + 1.00009e-12, inside the slack of the 1e-12 sum check
        tm = ts.validate_transition_matrix(
            [[0.491900000001, 0.1858, 0.3223],
             [0.5329000000009999, 0.0303, 0.4368], [0.0, 0.0, 1.0]])
        orig = ts.OriginationVector([0.48, 0.52, 0.0])
        assert tm.published is None
        after, flow = ts.propagate_step(ts.solve_ttc(tm, orig).w_ttc, tm, orig)
        assert abs(after.weights.sum() - 1.0) > 1e-12
        assert 0.0 < flow < 1.0

    def test_fifty_steps_from_ttc_with_rows_at_the_sum_bound(self):
        # the book's mass drifts past the 1e-12 sum bound after two steps;
        # each step is project_path's zero-stress period, bit for bit
        tm = ts.validate_transition_matrix(
            [[0.491900000001, 0.1858, 0.3223],
             [0.5329000000009999, 0.0303, 0.4368], [0.0, 0.0, 1.0]])
        orig = ts.OriginationVector([0.48, 0.52, 0.0])
        start = ts.solve_ttc(tm, orig).w_ttc
        path = ts.project_path(start, tm, orig, rho=0.0, z_path=np.zeros(50))
        book = start
        for t in range(50):
            book, flow = ts.propagate_step(book, tm, orig)
            assert np.array_equal(book.weights, path.portfolios[t])
            assert flow == path.default_flows[t]
        assert abs(book.weights.sum() - 1.0) > 1e-11

    def test_identity_matrix_keeps_performing_book(self):
        tm = ts.validate_transition_matrix(np.eye(4))
        orig = ts.OriginationVector([0.4, 0.3, 0.3, 0.0])
        start = ts.Portfolio([0.5, 0.3, 0.2, 0.0])
        after, flow = ts.propagate_step(start, tm, orig)
        assert flow == 0.0
        assert np.array_equal(after.weights, start.weights)

    def test_published_ttc_portfolio_is_a_fixed_point(self, matrix8, origination8):
        start = ts.Portfolio(TTC_PORTFOLIO_PUBLISHED)
        after, _ = ts.propagate_step(start, matrix8, origination8)
        assert np.abs(after.weights - start.weights).max() <= 1e-4

    def test_initial_default_weight_is_written_off(self, three_grade):
        tm, orig = three_grade
        after, flow = ts.propagate_step(ts.Portfolio([0.0, 0.0, 1.0]), tm, orig)
        # all balance sits in default, is written off, and re-originates
        assert flow == 1.0
        assert np.allclose(after.weights, [0.5, 0.5, 0.0], atol=1e-15)

    def test_mass_conserved_and_default_bucket_empty(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            tm, orig = random_system(rng, n)
            start = random_portfolio(rng, n, performing_only=False)
            after, flow = ts.propagate_step(start, tm, orig)
            assert abs(after.weights.sum() - 1.0) <= 1e-12
            assert after.weights[-1] == 0.0
            assert 0.0 <= flow <= 1.0

    def test_dimension_mismatch(self, three_grade, matrix8):
        _, orig = three_grade
        with pytest.raises(InputError) as err:
            ts.propagate_step(ts.Portfolio([0.5, 0.5, 0.0]), matrix8, orig)
        assert err.value.code == "dimension-mismatch"

    def test_project_path_shares_the_size_check(self, three_grade, matrix8):
        _, orig = three_grade
        book = ts.Portfolio([0.5, 0.5, 0.0])
        orig8 = ts.OriginationVector(np.full(8, 1.0 / 7) * (np.arange(8) < 7))
        book8 = ts.Portfolio(orig8.weights)
        message = ("portfolio (3), matrix (8) and origination (3) sizes "
                   "must agree")
        for call, text in (
                (lambda: ts.propagate_step(book, matrix8, orig), message),
                (lambda: ts.project_path(book, matrix8, orig, 0.2, [-1.0]),
                 message),
                (lambda: ts.average_pd(book, matrix8),
                 "portfolio (3) and matrix (8) sizes must agree"),
                (lambda: ts.build_m_p(matrix8, orig),
                 "matrix (8) and origination (3) sizes must agree"),
                (lambda: ts.solve_ttc(matrix8, orig),
                 "matrix (8) and origination (3) sizes must agree"),
                (lambda: ts.verify_perron_structure(matrix8, orig),
                 "matrix (8) and origination (3) sizes must agree"),
                (lambda: ts.solve_ttc_iterative(matrix8, orig8, initial=book),
                 "matrix (8), origination (8) and initial (3) sizes must "
                 "agree"),
                (lambda: ts.compare_portfolios(book, book8, matrix8),
                 "current (3), ttc (8) and matrix (8) sizes must agree")):
            with pytest.raises(InputError) as err:
                call()
            assert (err.value.code, str(err.value)) == ("dimension-mismatch",
                                                        text)
        with pytest.raises(InputError) as err:  # the z path is checked first
            ts.project_path(book, matrix8, orig, 0.2, [np.nan])
        assert err.value.code == "invalid-argument"

    @settings(max_examples=50, deadline=None)
    @given(alpha=st.floats(min_value=0.0, max_value=1.0),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_step_is_linear_in_the_portfolio(self, alpha, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        tm, orig = random_system(rng, n)
        w1 = random_portfolio(rng, n, performing_only=False)
        w2 = random_portfolio(rng, n, performing_only=False)
        mix = ts.Portfolio(alpha * w1.weights + (1.0 - alpha) * w2.weights)
        left, flow_mix = ts.propagate_step(mix, tm, orig)
        r1, f1 = ts.propagate_step(w1, tm, orig)
        r2, f2 = ts.propagate_step(w2, tm, orig)
        combo = alpha * r1.weights + (1.0 - alpha) * r2.weights
        assert np.abs(left.weights - combo).max() <= 1e-12
        assert flow_mix == pytest.approx(alpha * f1 + (1 - alpha) * f2, abs=1e-12)


class TestAveragePd:
    @pytest.mark.parametrize("name", sorted(AVG_PD_PUBLISHED))
    def test_published_average_pds(self, name, matrix8, portfolios):
        assert ts.average_pd(portfolios[name], matrix8) == pytest.approx(
            AVG_PD_PUBLISHED[name], abs=5e-5)

    def test_dimension_mismatch(self, matrix8):
        with pytest.raises(InputError):
            ts.average_pd(ts.Portfolio([0.5, 0.5]), matrix8)


class TestProjectPath:
    def test_zero_path_equals_manual_unstressed_steps(self, matrix8,
                                                      origination8, portfolios):
        # the batched path equals stress_transition_matrix + propagate_step
        # period by period, bit for bit, on the rounded bundled matrix and
        # on an exactly stochastic one, with zero, stressed and mixed paths
        exact_tm, exact_orig = random_system(np.random.default_rng(8), 8)
        systems = [(matrix8, origination8, portfolios["midgrade"]),
                   (exact_tm, exact_orig,
                    random_portfolio(np.random.default_rng(9), 8))]
        z_paths = [np.zeros(10), np.full(10, -1.0),
                   np.array([0.0, -1.3, 0.0, 0.0, 2.1, -0.4, 0.0, 0.7])]
        for tm, orig, start in systems:
            for rho in (0.4, 0.2, 0.0):
                for z_path in z_paths:
                    path = ts.project_path(start, tm, orig, rho=rho,
                                           z_path=z_path)
                    w = start
                    for t, z in enumerate(z_path):
                        w, flow = ts.propagate_step(
                            w, ts.stress_transition_matrix(tm, rho, z), orig)
                        assert np.array_equal(path.portfolios[t], w.weights)
                        assert path.default_flows[t] == flow

    def test_converges_to_ttc_pd_nonmonotonically(self, matrix8, origination8,
                                                  portfolios):
        path = ts.project_path(portfolios["midgrade"], matrix8, origination8,
                               rho=0.0, z_path=np.zeros(200))
        pds = path.pd_series()
        assert pds[-1] == pytest.approx(TTC_PD_PUBLISHED, abs=5e-5)
        # the approach overshoots: early PDs exceed both endpoints
        assert pds[1:6].max() > max(pds[0], pds[-1])

    def test_ttc_start_gives_flat_pd_path(self, matrix8, origination8, ttc8):
        path = ts.project_path(ttc8.w_ttc, matrix8, origination8, rho=0.0,
                               z_path=np.zeros(30))
        assert np.abs(path.pd_series() - TTC_PD_PUBLISHED).max() <= 1e-4

    def test_barbell_minimum(self, matrix8, origination8, portfolios):
        path = ts.project_path(portfolios["barbell"], matrix8, origination8,
                               rho=0.0, z_path=np.zeros(50))
        assert path.avg_pds.min() == pytest.approx(0.00722, abs=5e-5)

    def test_speculative_tilt_maximum(self, matrix8, origination8, portfolios):
        path = ts.project_path(portfolios["speculative_tilt"], matrix8,
                               origination8, rho=0.0, z_path=np.zeros(50))
        assert path.avg_pds.max() == pytest.approx(0.0214, abs=5e-5)

    def test_stressed_path_differs_from_unstressed(self, matrix8, origination8,
                                                   portfolios):
        start = portfolios["midgrade"]
        calm = ts.project_path(start, matrix8, origination8, rho=0.2,
                               z_path=np.zeros(5))
        stressed = ts.project_path(start, matrix8, origination8, rho=0.2,
                                   z_path=np.full(5, -2.0))
        assert stressed.default_flows[0] > calm.default_flows[0]

    def test_pd_series_shape_and_initial_value(self, matrix8, origination8,
                                               portfolios):
        start = portfolios["midgrade"]
        path = ts.project_path(start, matrix8, origination8, 0.0, np.zeros(7))
        assert path.periods == 7
        series = path.pd_series()
        assert series.shape == (8,)
        assert series[0] == ts.average_pd(start, matrix8)
        assert path.initial is start
        pd3 = ts.average_pd(ts.Portfolio(path.portfolios[2]), matrix8)
        assert series[3] == pd3

    def test_empty_z_path_rejected(self, matrix8, origination8, portfolios):
        with pytest.raises(InputError):
            ts.project_path(portfolios["midgrade"], matrix8, origination8,
                            0.0, [])

    @pytest.mark.parametrize("rho", [float("nan"), 1.5, -0.5, 1.0])
    def test_rho_is_checked_when_nothing_is_stressed(self, rho, matrix8,
                                                     origination8, portfolios):
        with pytest.raises(InputError) as err:
            ts.project_path(portfolios["midgrade"], matrix8, origination8,
                            rho=rho, z_path=np.zeros(5))
        assert err.value.code == "invalid-argument"
        assert "asset correlation must lie in [0, 1)" in str(err.value)


class TestCatastrophicPath:
    def test_full_default_replaces_book_with_origination_mix(
            self, matrix8, origination8, portfolios):
        path = ts.project_path(portfolios["midgrade"], matrix8, origination8,
                               rho=0.99, z_path=np.full(3, -8.0))
        assert np.allclose(path.default_flows, 1.0, atol=1e-12)
        assert np.abs(path.portfolios[-1] - origination8.weights).max() == 0.0


class TestExtremeInputs:
    def test_extreme_rho_and_states_stay_stochastic(self, matrix8,
                                                    origination8, portfolios):
        # rho at both ends of [0, 1), |z| up to 1e3 on mixed scales and ~20%
        # exact zeros: every path stays a finite, nonnegative unit book with
        # finite flows, or fails with an InputError, never with a NaN
        rng = np.random.default_rng(2024)
        books = list(portfolios.values())
        for i in range(3000):
            rho = (1e-12, 1e-6, float(rng.uniform(0.0, 1.0)), 0.999999)[i % 4]
            m = int(rng.integers(1, 31))
            z = rng.uniform(-1e3, 1e3, m) * rng.choice([1.0, 1e-3, 1e-6], m)
            z[rng.random(m) < 0.2] = 0.0
            try:
                path = ts.project_path(books[i % len(books)], matrix8,
                                       origination8, rho, z)
            except InputError:
                continue
            w = path.portfolios
            assert np.isfinite(w).all() and (w >= 0.0).all()
            assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12
            assert np.isfinite(path.default_flows).all()
