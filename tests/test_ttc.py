import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ttcstress as ts
from ttcstress.errors import ConvergenceError, InputError, PrimitivityError

from conftest import (TTC_PD_PUBLISHED, TTC_PORTFOLIO_PUBLISHED,
                      bench_systems, counterexample_matrix, random_portfolio,
                      random_system)


class TestIsPrimitive:
    def test_bundled_performing_block(self, matrix8):
        assert ts.is_primitive(matrix8.performing_block)

    def test_swap_block_is_not_primitive(self):
        assert not ts.is_primitive([[0.0, 1.0], [1.0, 0.0]])

    def test_all_positive_block(self):
        assert ts.is_primitive(np.full((3, 3), 0.2))

    def test_single_grade(self):
        assert ts.is_primitive([[0.5]])
        assert not ts.is_primitive([[0.0]])

    def test_identity_is_not_primitive(self):
        assert not ts.is_primitive(np.eye(3))

    def test_negative_entry_rejected(self):
        with pytest.raises(InputError) as err:
            ts.is_primitive([[0.5, -0.1], [0.2, 0.3]])
        assert err.value.code == "negative-entry"

    @pytest.mark.parametrize("block", [[[0.5, 0.5]], [0.5, 0.5],
                                       np.zeros((0, 0))])
    def test_non_square_input_rejected(self, block):
        with pytest.raises(InputError) as err:
            ts.is_primitive(block)
        assert err.value.code == "shape"

    def test_sparse_cycle_with_one_selfloop(self):
        # 1->2->3->1 plus a self-loop makes every pair reachable eventually
        block = np.array([[0.1, 0.9, 0.0],
                          [0.0, 0.0, 1.0],
                          [1.0, 0.0, 0.0]])
        assert ts.is_primitive(block)
        # pure 3-cycle is irreducible but periodic, hence not primitive
        block[0, 0] = 0.0
        assert not ts.is_primitive(block)


class TestBuildMp:
    def test_hand_example(self):
        tm = ts.validate_transition_matrix(
            [[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.0, 0.0, 1.0]])
        orig = ts.OriginationVector([0.5, 0.5, 0.0])
        m_p = ts.build_m_p(tm, orig)
        assert np.allclose(m_p, [[0.85, 0.25], [0.15, 0.75]], atol=1e-15)

    def test_no_defaults_reduces_to_transposed_block(self):
        tm = ts.validate_transition_matrix(
            [[0.7, 0.3, 0.0], [0.4, 0.6, 0.0], [0.0, 0.0, 1.0]])
        orig = ts.OriginationVector([1.0, 0.0, 0.0])
        m_p = ts.build_m_p(tm, orig)
        assert np.array_equal(m_p, tm.performing_block.T)

    def test_columns_sum_to_one(self, matrix8, origination8):
        m_p = ts.build_m_p(matrix8, origination8)
        assert np.abs(m_p.sum(axis=0) - 1.0).max() <= 1e-12

    def test_dimension_mismatch(self, matrix8):
        with pytest.raises(InputError):
            ts.build_m_p(matrix8, ts.OriginationVector([1.0, 0.0]))


class TestIterativeSolver:
    def test_reproduces_published_portfolio(self, ttc8):
        # the source matrix is rounded to 4 decimals (row sums off by ~1e-4);
        # solved on those published rates the TTC agrees with the published
        # vector to about 5e-5 (acceptance criterion 1 holds it to 1e-4)
        assert np.abs(ttc8.w_ttc.weights - TTC_PORTFOLIO_PUBLISHED).max() <= 2e-4
        assert ttc8.ttc_pd == pytest.approx(TTC_PD_PUBLISHED, abs=5e-5)
        assert ttc8.w_ttc.weights[-1] == 0.0

    def test_positive_performing_weights(self, ttc8):
        assert (ttc8.w_ttc.weights[:-1] > 0.0).all()

    def test_result_is_fixed_point(self, matrix8, origination8, ttc8):
        after, _ = ts.propagate_step(ttc8.w_ttc, matrix8, origination8)
        assert np.abs(after.weights - ttc8.w_ttc.weights).sum() <= 1e-11

    def test_single_performing_grade_converges_immediately(self):
        tm = ts.validate_transition_matrix([[0.97, 0.03], [0.0, 1.0]])
        result = ts.solve_ttc_iterative(tm, ts.OriginationVector([1.0, 0.0]))
        assert np.array_equal(result.w_ttc.weights, [1.0, 0.0])
        assert result.iterations == 1

    def test_counterexample_rejected(self):
        tm = counterexample_matrix()
        with pytest.raises(PrimitivityError):
            ts.solve_ttc_iterative(tm, ts.OriginationVector([0.5, 0.5, 0.0]))

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_rejected(self, matrix8, origination8,
                                         max_iter):
        with pytest.raises(InputError) as err:
            ts.solve_ttc_iterative(matrix8, origination8, max_iter=max_iter)
        assert err.value.code == "invalid-argument"

    def test_forced_counterexample_reports_period_two_cycle(self):
        tm = counterexample_matrix()
        with pytest.raises(ConvergenceError) as err:
            ts.solve_ttc_iterative(
                tm, ts.OriginationVector([0.5, 0.5, 0.0]),
                max_iter=200, require_primitive=False,
                initial=ts.Portfolio([1.0, 0.0, 0.0]))
        assert err.value.oscillating
        assert err.value.cycle_delta == 0.0
        assert err.value.last_delta == pytest.approx(2.0)
        assert "period 2" in str(err.value)

    def test_start_independence(self, matrix8, origination8, ttc8):
        rng = np.random.default_rng(17)
        for _ in range(5):
            start = random_portfolio(rng, matrix8.n, performing_only=False)
            result = ts.solve_ttc_iterative(matrix8, origination8, initial=start)
            assert np.abs(result.w_ttc.weights
                          - ttc8.w_ttc.weights).max() <= 1e-8

    def test_spectral_gap_estimate_tracks_lambda2(self, matrix8, origination8,
                                                  ttc8):
        m_p = ts.build_m_p(matrix8, origination8)
        eigs = np.sort(np.abs(np.linalg.eigvals(m_p)))[::-1]
        assert ttc8.spectral_gap_estimate == pytest.approx(eigs[1], abs=1e-3)

    def test_geometric_delta_decay(self, matrix8, origination8, portfolios):
        m_p = ts.build_m_p(matrix8, origination8)
        lam2 = np.sort(np.abs(np.linalg.eigvals(m_p)))[-2]
        w = portfolios["barbell"]
        prev = w
        deltas = []
        for _ in range(120):
            w, _ = ts.propagate_step(w, matrix8, origination8)
            deltas.append(np.abs(w.weights - prev.weights).sum())
            prev = w
        ratios = np.array(deltas[41:]) / np.array(deltas[40:-1])
        assert ratios.max() <= lam2 + 0.05


class TestDirectSolver:
    def test_agrees_with_iterative(self, matrix8, origination8, ttc8):
        direct = ts.solve_ttc_direct(matrix8, origination8)
        assert np.abs(direct.weights - ttc8.w_ttc.weights).max() <= 1e-10

    def test_hand_example(self):
        tm = ts.validate_transition_matrix(
            [[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.0, 0.0, 1.0]])
        orig = ts.OriginationVector([0.5, 0.5, 0.0])
        w = ts.solve_ttc_direct(tm, orig)
        assert np.allclose(w.weights, [0.625, 0.375, 0.0], atol=1e-12)

    def test_identity_block_rejected(self):
        tm = ts.validate_transition_matrix(np.eye(4))
        with pytest.raises(PrimitivityError):
            ts.solve_ttc_direct(tm, ts.OriginationVector([0.5, 0.3, 0.2, 0.0]))

    def test_random_systems_match_iterative(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            tm, orig = random_system(rng, n)
            direct = ts.solve_ttc_direct(tm, orig)
            iterative = ts.solve_ttc_iterative(tm, orig)
            assert np.abs(direct.weights
                          - iterative.w_ttc.weights).max() <= 1e-8


class TestProductionSolver:
    def test_bundled_result(self, matrix8, origination8, ttc8):
        result = ts.solve_ttc(matrix8, origination8)
        perron = ts.verify_perron_structure(matrix8, origination8)
        assert result.iterations == 0
        assert result.spectral_gap_estimate == perron.lambda2
        assert result.final_step_delta <= 1e-14
        assert np.array_equal(result.w_ttc.weights,
                              ts.solve_ttc_direct(matrix8, origination8).weights)
        assert np.abs(result.w_ttc.weights
                      - ttc8.w_ttc.weights).max() <= 1e-10
        assert result.ttc_pd == pytest.approx(TTC_PD_PUBLISHED, abs=5e-6)

    def test_is_run_validation_s_ttc(self, matrix8, origination8, portfolios):
        report = ts.run_validation(portfolios["midgrade"], matrix8,
                                   origination8)
        result = ts.solve_ttc(matrix8, origination8)
        assert np.array_equal(result.w_ttc.weights, report.ttc.w_ttc.weights)
        assert (result.ttc_pd, result.final_step_delta,
                result.spectral_gap_estimate, result.iterations) == (
            report.ttc.ttc_pd, report.ttc.final_step_delta,
            report.ttc.spectral_gap_estimate, report.ttc.iterations)

    @pytest.mark.parametrize("rounded", [False, True])
    def test_seeded_systems_match_the_oracle(self, rounded):
        rng = np.random.default_rng(31 + rounded)
        for _ in range(30):
            n = int(rng.integers(3, 22))
            tm, orig = (rounded_system if rounded else random_system)(rng, n)
            result = ts.solve_ttc(tm, orig)
            oracle = ts.solve_ttc_iterative(tm, orig)
            assert np.abs(result.w_ttc.weights
                          - oracle.w_ttc.weights).max() <= 1e-10
            stepped, _ = ts.propagate_step(result.w_ttc, tm, orig)
            delta = np.abs(stepped.weights - result.w_ttc.weights).sum()
            assert result.final_step_delta == delta
            assert delta <= 1e-13

    def test_counterexample_gets_the_gate_s_reason(self):
        tm = counterexample_matrix()
        orig = ts.OriginationVector([0.5, 0.5, 0.0])
        with pytest.raises(PrimitivityError) as direct:
            ts.solve_ttc(tm, orig)
        with pytest.raises(PrimitivityError) as oracle:
            ts.solve_ttc_iterative(tm, orig)
        assert direct.value.reason == oracle.value.reason
        assert str(direct.value) == str(oracle.value)

    def test_size_mismatch_is_an_input_error(self, matrix8):
        with pytest.raises(InputError):
            ts.solve_ttc(matrix8, ts.OriginationVector([0.5, 0.5, 0.0]))

    def test_singular_bordered_system_is_a_primitivity_error(self):
        # the identity block fails the gate; past it, M_p - I is zero
        tm = ts.TransitionMatrix(np.eye(3))
        orig = ts.OriginationVector([0.5, 0.5, 0.0])
        perron = ts.verify_perron_structure(tm, orig)
        assert perron.fixed_vector is None
        assert perron.residual == float("inf") and not perron.residual_ok
        with pytest.raises(PrimitivityError) as err:
            ts.ttc._ttc_result(tm, orig, perron)
        assert str(err.value) == (
            "bordered system is singular: the fixed vector is not unique, "
            "so the performing block cannot be primitive")


class TestPerronStructure:
    def test_bundled_system(self, matrix8, origination8):
        report = ts.verify_perron_structure(matrix8, origination8)
        assert report.residual <= 1e-10
        assert report.lambda2 < 1.0
        assert report.passed

    def test_lambda2_matches_dense_eigensolver(self, matrix8, origination8):
        report = ts.verify_perron_structure(matrix8, origination8)
        m_p = ts.build_m_p(matrix8, origination8)
        eigs = np.sort(np.abs(np.linalg.eigvals(m_p)))[::-1]
        assert eigs[0] == pytest.approx(1.0, abs=1e-12)
        assert report.lambda2 == pytest.approx(eigs[1], abs=1e-4)

    def test_counterexample_flags_failure(self):
        tm = counterexample_matrix()
        report = ts.verify_perron_structure(
            tm, ts.OriginationVector([0.5, 0.5, 0.0]))
        assert report.lambda2 == pytest.approx(1.0, abs=1e-9)
        assert not report.lambda2_ok
        assert not report.passed

    def test_random_five_grade_system_against_eig_oracle(self):
        rng = np.random.default_rng(31)
        tm, orig = random_system(rng, 5)
        report = ts.verify_perron_structure(tm, orig)
        m_p = ts.build_m_p(tm, orig)
        eigs = np.sort(np.abs(np.linalg.eigvals(m_p)))[::-1]
        assert report.residual <= 1e-10
        assert report.lambda2 == pytest.approx(eigs[1], abs=0.02)

    def test_two_grade_system_has_zero_lambda2(self):
        tm = ts.validate_transition_matrix([[0.95, 0.05], [0.0, 1.0]])
        report = ts.verify_perron_structure(tm, ts.OriginationVector([1.0, 0.0]))
        assert report.lambda2 == 0.0
        assert report.passed


def rounded_system(rng: np.random.Generator, n: int
                   ) -> tuple[ts.TransitionMatrix, ts.OriginationVector]:
    """Random primitive system published to four decimals.

    Each performing row is held in ten-thousandths and sums to 1 - 1e-4, 1
    or 1 + 1e-4; the first row is always off, so rows get rescaled.
    """
    tm, orig = random_system(rng, n)
    ticks = np.rint(tm.probs * 1e4)
    off = rng.integers(-1, 2, size=n - 1)
    off[0] = rng.choice([-1, 1])
    rows = np.arange(n - 1)
    biggest = np.argmax(ticks[:-1], axis=1)
    ticks[rows, biggest] += 1e4 + off - ticks[:-1].sum(axis=1)
    # a row sum of 1 + 1e-4 can land one ulp above 1 + 1e-4 in floating point
    return ts.validate_transition_matrix(ticks / 1e4, tol=2e-4), orig


class TestRoundedRates:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_solvers_agree_on_a_fixed_point_of_the_step(self, seed):
        rng = np.random.default_rng(seed)
        tm, orig = rounded_system(rng, int(rng.integers(3, 10)))
        assert tm.published is not None
        assert not np.array_equal(tm.published, tm.probs)
        iterative = ts.solve_ttc_iterative(tm, orig)
        direct = ts.solve_ttc_direct(tm, orig)
        assert np.abs(direct.weights - iterative.w_ttc.weights).max() <= 1e-8
        stepped, _ = ts.propagate_step(iterative.w_ttc, tm, orig)
        assert np.abs(stepped.weights - iterative.w_ttc.weights).sum() <= 1e-10

    def test_bundled_ttc_is_published_rate_perron_vector(self, matrix8,
                                                         origination8, ttc8):
        m_p = (matrix8.published[:-1, :-1].T
               + np.outer(origination8.weights[:-1], matrix8.published[:-1, -1]))
        vals, vecs = np.linalg.eig(m_p)
        k = int(np.argmax(vals.real))
        v = vecs[:, k].real / vecs[:, k].real.sum()
        assert vals[k].real != pytest.approx(1.0, abs=1e-5)
        assert np.abs(ttc8.w_ttc.weights[:-1] - v).max() <= 1e-10

    @pytest.mark.parametrize("n, seed", [(50, 0), (50, 1), (200, 0),
                                         (200, 1)])
    def test_fixed_vector_at_master_scale(self, n, seed):
        """A banded master-scale system with one row moved one tick: the
        bordered solve at the computed root gives eig's Perron vector."""
        systems = bench_systems()
        rng = np.random.default_rng(1400 + seed)
        probs, orig = systems.rating_system(rng, n)
        i = int(rng.integers(n - 1))
        probs[i, i] = np.round(probs[i, i] + rng.choice([-1e-4, 1e-4]), 4)
        assert systems.primitive(probs[:-1, :-1])
        tm = ts.validate_transition_matrix(probs, tol=2e-4)
        assert tm.published is not None
        report = ts.verify_perron_structure(tm, ts.OriginationVector(orig))
        m_p = systems.m_p(probs, orig)
        vals, vecs = np.linalg.eig(m_p)
        k = int(np.argmax(vals.real))
        v = vecs[:, k].real / vecs[:, k].real.sum()
        assert np.abs(report.fixed_vector - v).max() <= 1e-12
        assert report.residual <= 1e-13
        moduli = np.sort(np.abs(np.linalg.eigvals(m_p)))
        assert abs(moduli[-1] - 1.0) > 1e-8
        assert report.root == pytest.approx(moduli[-1], abs=1e-12)
        assert report.lambda2 == pytest.approx(moduli[-2], abs=1e-12)

    def test_step_keeps_unit_balance(self, matrix8, origination8, portfolios):
        for book in portfolios.values():
            after, flow = ts.propagate_step(book, matrix8, origination8)
            assert abs(after.weights.sum() - 1.0) <= 1e-14
            assert after.weights[-1] == 0.0
            assert flow == pytest.approx(book.weights @ matrix8.published[:, -1],
                                         abs=1e-16)


class TestOneSpectralComputation:
    """Each solve factorises the M_p of the dynamics once, with one
    ``eigvals`` and one bordered ``solve``, whether its rows were rounded
    (the published-rate M_p) or not."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"eig": 0, "eigvals": 0, "solve": 0}
        for name in counts:
            def counted(*args, _name=name, _real=getattr(np.linalg, name),
                        **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        return counts

    @pytest.mark.parametrize("system", ["bundled", "exact", "rounded"])
    def test_solve_and_validation_factorise_once(self, system, counts,
                                                  matrix8, origination8):
        rng = np.random.default_rng(404)
        tm, orig = {"bundled": lambda: (matrix8, origination8),
                    "exact": lambda: random_system(rng, 21),
                    "rounded": lambda: rounded_system(rng, 21)}[system]()
        assert (tm.published is None) == (system == "exact")
        for run in (lambda: ts.solve_ttc(tm, orig),
                    lambda: ts.run_validation(ts.Portfolio(orig.weights),
                                              tm, orig)):
            counts.update(dict.fromkeys(counts, 0))
            run()
            assert counts == {"eig": 0, "eigvals": 1, "solve": 1}


def reference_m_p(probs: np.ndarray, orig: np.ndarray) -> np.ndarray:
    """M_p entry by entry: (j, i) is the direct migration from grade i to
    grade j plus the share of grade i's default flow re-originated into j."""
    return probs[:-1, :-1].T + np.outer(orig[:-1], probs[:-1, -1])


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    # bytes compared as arrays: pytest's diff of long byte strings is slow
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert np.array_equal(np.frombuffer(got.tobytes(), np.uint8),
                          np.frombuffer(want.tobytes(), np.uint8))


def one_owner_system(k: int
                     ) -> tuple[ts.TransitionMatrix, ts.OriginationVector]:
    """System k of 30, n = 3, 8, 21, 50 and 200 six each: master-scale ones
    as given (k % 3 == 0, exact) and with one row moved one tick (k % 3 ==
    1, rounded), then dense random ones, exact (k % 6 == 2) or rounded."""
    n = (3, 8, 21, 50, 200)[k // 6]
    rng = np.random.default_rng(22000 + k)
    if k % 3 == 2:
        return (random_system if k % 6 == 2 else rounded_system)(rng, n)
    probs, orig = bench_systems().rating_system(rng, n)
    if k % 3 == 1:
        i = int(rng.integers(n - 1))
        probs[i, i] = np.round(probs[i, i] + rng.choice([-1e-4, 1e-4]), 4)
    return (ts.validate_transition_matrix(probs, tol=2e-4),
            ts.OriginationVector(orig))


class TestOneOwnerOfTheMap:
    """``build_m_p`` (on ``probs``) and the M_p behind
    :func:`verify_perron_structure` (on the published rates of a matrix with
    rounded rows) are the entrywise reference bit for bit, and so are their
    eigenvalues and the Perron figures taken from them."""

    def check(self, tm, orig, monkeypatch):
        eigvals = np.linalg.eigvals
        seen = []
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: seen.append(a) or eigvals(a))
        report = ts.verify_perron_structure(tm, orig)
        rates = tm.probs if tm.published is None else tm.published
        perron_m_p = reference_m_p(rates, orig.weights)
        for got, want in ((seen[0], perron_m_p),
                          (ts.build_m_p(tm, orig),
                           reference_m_p(tm.probs, orig.weights))):
            assert got.flags.c_contiguous
            assert_same_bits(got, want)
            assert_same_bits(eigvals(got), eigvals(want))
        moduli = np.sort(np.abs(eigvals(perron_m_p)))
        assert (report.root, report.lambda2) == (moduli[-1], moduli[-2])
        fixed = ts.ttc._solve_unit_eigenvector(
            perron_m_p, 1.0 if tm.published is None else report.root)
        assert_same_bits(report.fixed_vector, fixed)

    @pytest.mark.parametrize("k", range(30))
    def test_seeded_systems(self, k, monkeypatch):
        tm, orig = one_owner_system(k)
        assert (tm.published is None) == (k % 3 == 0 or k % 6 == 2)
        self.check(tm, orig, monkeypatch)

    def test_bundled_data(self, matrix8, origination8, monkeypatch):
        assert matrix8.published is not None
        self.check(matrix8, origination8, monkeypatch)
