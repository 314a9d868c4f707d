import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite_e import hermegauss

import ttcstress as ts
from ttcstress.errors import InputError

from conftest import random_system

# Frozen from a 40-digit mpmath oracle.
PIT_PD_RECESSION = 0.054695548310186057       # pit_pd(0.01, rho=0.2, z=-2)
STRESSED_DOWNGRADE_2X2 = 0.18340680777210903  # Phi((Phi^-1(0.1)+0.5)/sqrt(0.75))


class TestValidation:
    def test_minimal_identity_accepted(self):
        tm = ts.validate_transition_matrix([[1.0, 0.0], [0.0, 1.0]])
        assert tm.n == 2
        assert np.array_equal(tm.probs, np.eye(2))

    def test_bundled_matrix_accepted_with_loose_tolerance(self, data_dir):
        raw = np.loadtxt(data_dir / "transition_matrix.csv", delimiter=",")
        tm = ts.validate_transition_matrix(raw, tol=1e-4)
        assert np.abs(tm.probs.sum(axis=1) - 1.0).max() <= 1e-12

    def test_bundled_matrix_rejected_at_default_tolerance(self, data_dir):
        # rows of the published matrix are rounded to 4 decimals, so their
        # sums are off by about 1e-4, outside the strict default band
        raw = np.loadtxt(data_dir / "transition_matrix.csv", delimiter=",")
        with pytest.raises(InputError) as err:
            ts.validate_transition_matrix(raw)
        assert err.value.code == "row-sum"

    def test_perturbed_entry_rejected(self, data_dir):
        raw = np.loadtxt(data_dir / "transition_matrix.csv", delimiter=",")
        raw[0, 0] += 0.01
        with pytest.raises(InputError) as err:
            ts.validate_transition_matrix(raw, tol=1e-4)
        assert err.value.code == "row-sum"
        assert "row 1" in str(err.value)

    def test_negative_entry_rejected_with_location(self):
        with pytest.raises(InputError) as err:
            ts.validate_transition_matrix([[1.1, -0.1], [0.0, 1.0]])
        assert err.value.code == "negative-entry"
        assert "row 1, column 2" in str(err.value)

    def test_non_absorbing_last_row_rejected(self):
        with pytest.raises(InputError) as err:
            ts.validate_transition_matrix([[0.9, 0.1], [0.1, 0.9]])
        assert err.value.code == "absorbing-row"

    def test_non_square_rejected(self):
        with pytest.raises(InputError) as err:
            ts.validate_transition_matrix([[0.5, 0.5]])
        assert err.value.code == "shape"

    def test_rows_renormalized(self):
        tm = ts.validate_transition_matrix(
            [[0.8999999, 0.1], [0.0, 1.0]], tol=1e-6)
        assert tm.probs[0].sum() == pytest.approx(1.0, abs=1e-15)

    def test_published_rates_kept_when_rows_rescaled(self, data_dir):
        raw = np.loadtxt(data_dir / "transition_matrix.csv", delimiter=",")
        tm = ts.validate_transition_matrix(raw, tol=1e-4)
        assert np.array_equal(tm.published, raw)
        changed = np.flatnonzero((tm.published != tm.probs).any(axis=1))
        assert changed.tolist() == [2, 3, 4, 6]

    def test_rows_within_the_checks_slack_are_kept_as_given(self):
        # row 1 sums to 1 + 1.0000889e-12: outside 1e-12, inside its n ulp
        # of slack, so TransitionMatrix accepts it and it needs no repair
        arr = np.array([[0.49190000000100004, 0.1858, 0.3223],
                        [0.5329, 0.0303, 0.4368], [0.0, 0.0, 1.0]])
        tm = ts.validate_transition_matrix(arr)
        assert tm.published is None
        assert np.array_equal(tm.probs, ts.TransitionMatrix(arr).probs)

    def test_no_published_rates_for_stochastic_rows(self):
        tm = ts.validate_transition_matrix([[0.9, 0.1], [0.0, 1.0]])
        assert tm.published is None
        assert ts.stress_transition_matrix(tm, 0.2, -1.0).published is None

    def test_published_is_not_an_input(self):
        probs = np.array([[0.9, 0.1], [0.0, 1.0]])
        with pytest.raises(TypeError):
            ts.TransitionMatrix(probs, published=[[0.8, 0.1], [0.0, 1.0]])
        assert ts.TransitionMatrix(probs).published is None


class TestCheckOrder:
    """Each input fails at its first failed check, in this order: shape,
    finite, sign, row sum, absorbing row.  ``TransitionMatrix`` and
    ``validate_transition_matrix`` share one wording for every check and
    differ only in the row-sum bound."""

    ABSORBING = "row 2 must be (0, ..., 0, 1): the default grade is absorbing"
    # the row sum is printed as the repr of a Python float
    SUM_11 = repr(float(np.array([0.5, 0.6]).sum()))
    SUM_1E7 = repr(float(np.array([0.5, 0.5000001]).sum()))
    # the last column is what the parser's default bound of 1e-6 gives
    # instead, where it differs: only the row sums read otherwise
    CASES = [
        ([[np.nan, -1.0, 2.0]], "shape", "transition matrix must be square",
         None),
        ([[np.nan]], "shape", "need at least two rating grades", None),
        ([[0.5, 0.5], [np.inf, np.nan]], "invalid-argument",
         "non-finite entry at row 2, column 1", None),
        ([[0.5, -np.inf], [-1.0, 3.0]], "invalid-argument",
         "non-finite entry at row 1, column 2", None),
        ([[1.5, -0.5], [0.5, 0.7]], "negative-entry",
         "negative probability at row 1, column 2", None),
        ([[0.5, 0.6], [0.1, 0.9]], "row-sum",
         f"row 1 sums to {SUM_11}, outside 1 +- 1e-12",
         ("row-sum", f"row 1 sums to {SUM_11}, outside 1 +- 1e-06")),
        ([[0.5, 0.5000001], [0.1, 0.9]], "row-sum",
         f"row 1 sums to {SUM_1E7}, outside 1 +- 1e-12",
         ("absorbing-row", ABSORBING)),
        ([[0.9, 0.1], [0.1, 0.9]], "absorbing-row", ABSORBING, None),
    ]

    @pytest.mark.parametrize("raw, code, message, at_default_tol", CASES)
    def test_first_failed_check(self, raw, code, message, at_default_tol):
        arr = np.array(raw)
        with pytest.raises(InputError) as err:
            ts.TransitionMatrix(arr)
        assert (err.value.code, str(err.value)) == (code, message)
        with pytest.raises(InputError) as err:
            ts.validate_transition_matrix(arr)
        assert ((err.value.code, str(err.value))
                == (at_default_tol or (code, message)))

    @pytest.mark.parametrize("raw, code, message, at_default_tol", CASES)
    def test_matrix_and_validation_at_1e12_fail_alike(
            self, raw, code, message, at_default_tol):
        arr = np.array(raw)
        with pytest.raises(InputError) as direct:
            ts.TransitionMatrix(arr)
        with pytest.raises(InputError) as validated:
            ts.validate_transition_matrix(arr, tol=1e-12)
        assert ((validated.value.code, str(validated.value))
                == (direct.value.code, str(direct.value)))


class TestPitPd:
    def test_zero_state_is_identity(self):
        assert ts.pit_pd(0.03, rho=0.2, z=0.0) == 0.03

    def test_zero_rho_is_identity(self):
        assert ts.pit_pd(0.03, rho=0.0, z=-3.0) == 0.03

    def test_recession_value(self):
        assert ts.pit_pd(0.01, rho=0.2, z=-2.0) == pytest.approx(
            PIT_PD_RECESSION, abs=1e-12)

    def test_boundary_pds_preserved(self):
        assert ts.pit_pd(0.0, rho=0.3, z=-5.0) == 0.0
        assert ts.pit_pd(1.0, rho=0.3, z=-5.0) == 1.0

    def test_recession_raises_pd_boom_lowers_it(self):
        assert ts.pit_pd(0.02, rho=0.15, z=-1.0) > 0.02
        assert ts.pit_pd(0.02, rho=0.15, z=1.0) < ts.pit_pd(0.02, 0.15, -1.0)

    def test_overflowing_argument_is_the_limit_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ts.pit_pd(0.5, 0.9999999999999999, -1e308) == 1.0

    @pytest.mark.parametrize("p", [float("nan"), -0.2, 1.2])
    def test_bad_probability_rejected(self, p):
        with pytest.raises(InputError):
            ts.pit_pd(p, rho=0.2, z=0.5)

    @pytest.mark.parametrize("rho", [-0.1, 1.0, 1.5, float("nan")])
    def test_bad_rho_rejected(self, rho):
        with pytest.raises(InputError):
            ts.pit_pd(0.01, rho=rho, z=0.5)


class TestStressTransitionMatrix:
    def test_zero_state_returns_matrix_unchanged(self, matrix8):
        stressed = ts.stress_transition_matrix(matrix8, rho=0.2, z=0.0)
        assert stressed is matrix8

    def test_zero_rho_returns_matrix_unchanged(self, matrix8):
        assert ts.stress_transition_matrix(matrix8, rho=0.0, z=-2.0) is matrix8

    def test_two_grade_hand_value(self):
        tm = ts.validate_transition_matrix([[0.9, 0.1], [0.0, 1.0]])
        stressed = ts.stress_transition_matrix(tm, rho=0.25, z=-1.0)
        assert stressed.probs[0, 1] == pytest.approx(
            STRESSED_DOWNGRADE_2X2, abs=1e-12)
        assert stressed.probs[0, 0] == pytest.approx(
            1.0 - STRESSED_DOWNGRADE_2X2, abs=1e-12)

    def test_zero_tails_stay_zero(self, matrix8):
        # grade 1 has no mass in grades 6..8; stressing cannot create any
        stressed = ts.stress_transition_matrix(matrix8, rho=0.3, z=-2.5)
        assert (stressed.probs[0, 5:] == 0.0).all()

    def test_default_row_stays_absorbing(self, matrix8):
        stressed = ts.stress_transition_matrix(matrix8, rho=0.3, z=1.7)
        assert stressed.probs[-1, -1] == 1.0
        assert (stressed.probs[-1, :-1] == 0.0).all()

    def test_default_column_matches_pit_pd(self, matrix8):
        rho, z = 0.18, -1.3
        stressed = ts.stress_transition_matrix(matrix8, rho, z)
        for i in range(matrix8.n - 1):
            expected = ts.pit_pd(matrix8.probs[i, -1], rho, z)
            assert stressed.probs[i, -1] == pytest.approx(expected, abs=1e-14)

    def test_row_stochasticity_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            tm, _ = random_system(rng, n)
            rho = float(rng.uniform(0.01, 0.95))
            z = float(rng.standard_normal())
            stressed = ts.stress_transition_matrix(tm, rho, z)
            assert np.abs(stressed.probs.sum(axis=1) - 1.0).max() <= 1e-12
            assert (stressed.probs >= 0.0).all()

    def test_monotone_in_economy_state(self, matrix8):
        # worse states shift mass toward default: every cumulative tail and
        # the default column decrease as z rises (identity point z=0 excluded)
        z_grid = [-2.5, -1.0, -0.2, 0.4, 1.5, 3.0]
        rho = 0.25
        prev_tails = None
        for z in z_grid:
            p = ts.stress_transition_matrix(matrix8, rho, z).probs
            tails = np.cumsum(p[:-1, ::-1], axis=1)[:, ::-1]
            if prev_tails is not None:
                assert (prev_tails - tails >= -1e-12).all()
            prev_tails = tails

    @settings(max_examples=60, deadline=None)
    @given(rho=st.floats(min_value=0.01, max_value=0.95),
           z=st.floats(min_value=-4.0, max_value=4.0).filter(lambda v: v != 0.0),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_stress_preserves_row_stochasticity_property(self, rho, z, seed):
        rng = np.random.default_rng(seed)
        tm, _ = random_system(rng, int(rng.integers(2, 9)))
        stressed = ts.stress_transition_matrix(tm, rho, z)
        assert np.abs(stressed.probs.sum(axis=1) - 1.0).max() <= 1e-12
        assert (stressed.probs >= 0.0).all()


class TestAveragingIdentity:
    @pytest.mark.parametrize("rho", [0.05, 0.2, 0.5, 0.8])
    def test_expected_stressed_tails_equal_ttc_tails(self, matrix8, rho):
        # E_z[stressed tail] = TTC tail for z standard normal, by
        # Gauss-Hermite quadrature; the even degree puts no node on the
        # z = 0 "no stress" sentinel, and 40 nodes are not enough at rho 0.8
        nodes, weights = hermegauss(80)
        weights = weights / np.sqrt(2.0 * np.pi)

        def tails(p):
            return np.cumsum(p[:-1, ::-1], axis=1)[:, ::-1]

        expected = sum(w * tails(ts.stress_transition_matrix(matrix8, rho,
                                                              z).probs)
                       for z, w in zip(nodes, weights))
        assert np.abs(expected - tails(matrix8.probs)).max() <= 1e-12


class TestStateValidation:
    @pytest.mark.parametrize("z", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_state_rejected(self, matrix8, z):
        with pytest.raises(InputError):
            ts.stress_transition_matrix(matrix8, 0.2, z)
        with pytest.raises(InputError):
            ts.pit_pd(0.02, 0.2, z)


class TestExtremeStress:
    @pytest.mark.parametrize("rho,z", [(0.99, -8.0), (0.99, 8.0),
                                       (0.001, -8.0), (0.97, -37.0)])
    def test_extreme_states_keep_rows_stochastic(self, matrix8, rho, z):
        stressed = ts.stress_transition_matrix(matrix8, rho, z)
        assert np.abs(stressed.probs.sum(axis=1) - 1.0).max() <= 1e-12
        assert stressed.probs.min() >= 0.0

    def test_catastrophic_recession_defaults_every_risky_grade(self, matrix8):
        stressed = ts.stress_transition_matrix(matrix8, 0.99, -8.0)
        # grade 1 has default probability exactly 0, which a shift of the
        # (empty) tail cannot change; every other grade defaults for sure
        assert stressed.default_column[0] == 0.0
        assert (stressed.default_column[1:] == 1.0).all()

    def test_deep_boom_eliminates_default_risk(self, matrix8):
        stressed = ts.stress_transition_matrix(matrix8, 0.99, 8.0)
        assert (stressed.default_column[:-1] == 0.0).all()


class TestNegativeDustClamp:
    """Rounding in Phi can leave a stressed tail a hair above the tail to
    its left; the difference is then negative dust that must become an
    exact zero, while a larger inversion is an error."""

    ROW, COL = 3, 5  # stressed entry (grade 4 -> grade 6)

    def _lift(self, monkeypatch, matrix, lift, rho=0.2, z=-1.0):
        from ttcstress import transition
        real = transition.std_normal_cdf
        # Phi's arguments for grade 4's tails from grades 6 and 7 onward,
        # computed as the stress kernel computes them
        tails = np.cumsum(matrix.probs[self.ROW, ::-1])[::-1]
        left, right = ((ts.std_normal_inv_cdf(tails[self.COL:self.COL + 2])
                        - np.sqrt(rho) * z) / np.sqrt(1.0 - rho))

        def lifted(x):
            out = np.array(real(x))
            # the grade-7 tail's value: the grade-6 tail's value plus lift
            out[np.asarray(x) == right] = real(left) + lift
            return out

        monkeypatch.setattr(transition, "std_normal_cdf", lifted)

    def test_dust_is_clamped_to_an_exact_zero(self, monkeypatch, matrix8):
        plain = ts.stress_transition_matrix(matrix8, 0.2, -1.0)
        assert plain.probs[self.ROW, self.COL] > 1e-6
        self._lift(monkeypatch, matrix8, 1e-15)
        row = ts.stress_transition_matrix(matrix8, 0.2, -1.0).probs[self.ROW]
        assert row[self.COL] == 0.0
        assert (row >= 0.0).all()
        assert row.sum() == pytest.approx(1.0, abs=1e-15)

    def test_larger_inversion_is_rejected(self, monkeypatch, matrix8):
        self._lift(monkeypatch, matrix8, 1e-9)
        with pytest.raises(InputError) as info:
            ts.stress_transition_matrix(matrix8, 0.2, -1.0)
        assert info.value.code == "invalid-argument"
