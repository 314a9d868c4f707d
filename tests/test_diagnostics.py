import dataclasses
import json

import numpy as np
import pytest

import ttcstress as ts
from ttcstress.cli import cli_dispatch
from ttcstress.errors import InputError

from conftest import (DATA, bench_systems, counterexample_matrix,
                      random_portfolio, random_system)
from test_ttc import rounded_system


@pytest.fixture(scope="module")
def paths(matrix8, origination8, portfolios):
    return {
        name: ts.project_path(portfolio, matrix8, origination8, rho=0.0,
                              z_path=np.zeros(50))
        for name, portfolio in portfolios.items()
    }


class TestComparePortfolios:
    def test_identical_portfolios_give_zero_report(self, matrix8, ttc8,
                                                   origination8):
        report = ts.compare_portfolios(ttc8.w_ttc, ttc8.w_ttc, matrix8)
        assert report.l1 == 0.0
        assert report.linf == 0.0
        assert (report.differences == 0.0).all()
        assert report.current_pd == report.ttc_pd

    def test_midgrade_book_vs_ttc(self, matrix8, ttc8, portfolios):
        report = ts.compare_portfolios(portfolios["midgrade"], ttc8.w_ttc,
                                       matrix8)
        assert report.current_pd == pytest.approx(0.01161, abs=5e-5)
        assert report.ttc_pd == pytest.approx(0.01198, abs=5e-5)
        assert report.current_pd < report.ttc_pd

    def test_norms_match_manual_arithmetic(self, matrix8, ttc8, portfolios):
        current = portfolios["barbell"]
        report = ts.compare_portfolios(current, ttc8.w_ttc, matrix8)
        manual = current.weights - ttc8.w_ttc.weights
        assert report.l1 == np.abs(manual).sum()
        assert report.linf == np.abs(manual).max()
        assert report.linf <= report.l1

    def test_dimension_mismatch(self, matrix8, ttc8):
        with pytest.raises(InputError):
            ts.compare_portfolios(ts.Portfolio([0.5, 0.5]), ttc8.w_ttc, matrix8)


class TestDetectSpuriousDynamics:
    def test_midgrade_flags_spurious_recession(self, paths):
        report = ts.detect_spurious_dynamics(paths["midgrade"])
        assert report.classification == "spurious-recession"
        assert report.max_pd > max(report.pd_path[0], report.terminal_pd)
        assert report.max_period <= 10

    def test_barbell_flags_spurious_boom(self, paths):
        report = ts.detect_spurious_dynamics(paths["barbell"])
        assert report.classification == "spurious-boom"
        assert report.min_pd == pytest.approx(0.00722, abs=5e-5)

    def test_speculative_tilt_flags_recession_with_published_peak(self, paths):
        report = ts.detect_spurious_dynamics(paths["speculative_tilt"])
        assert report.classification == "spurious-recession"
        assert report.max_pd == pytest.approx(0.0214, abs=5e-5)

    def test_seasoned_book_is_well_behaved(self, paths):
        report = ts.detect_spurious_dynamics(paths["seasoned"])
        assert report.classification == "monotone-convergent"
        assert not report.spurious
        assert report.deviations_non_increasing

    def test_extrema_match_brute_force(self, paths):
        for path in paths.values():
            report = ts.detect_spurious_dynamics(path)
            series = path.pd_series()
            assert report.min_pd == series.min()
            assert report.max_pd == series.max()
            assert report.min_period == int(np.argmin(series))
            assert report.max_period == int(np.argmax(series))
            assert report.terminal_pd == series[-1]

    def test_classification_stable_under_extension(self, matrix8, origination8,
                                                   portfolios, paths):
        for name, portfolio in portfolios.items():
            short = ts.detect_spurious_dynamics(paths[name])
            longer = ts.project_path(portfolio, matrix8, origination8, 0.0,
                                     np.zeros(120))
            extended = ts.detect_spurious_dynamics(longer)
            assert extended.classification == short.classification

    def test_first_crossing_enters_the_band(self, paths):
        report = ts.detect_spurious_dynamics(paths["midgrade"])
        series = report.pd_path
        t = report.first_crossing
        threshold = report.band * report.terminal_pd
        assert abs(series[t] - report.terminal_pd) <= threshold
        assert (np.abs(series[:t] - report.terminal_pd) > threshold).all()

    def test_short_path_rejected(self):
        with pytest.raises(InputError) as err:
            ts.classify_pd_path([0.01])
        assert err.value.code == "too-short"

    @pytest.mark.parametrize("band", [0.0, float("nan"), float("inf")])
    def test_band_must_be_positive(self, paths, band):
        with pytest.raises(InputError):
            ts.detect_spurious_dynamics(paths["midgrade"], band=band)

    @pytest.mark.parametrize("pds", [[0.01, float("nan"), 0.02],
                                     [0.01, float("inf")]])
    def test_bad_path_rejected(self, pds):
        with pytest.raises(InputError) as err:
            ts.classify_pd_path(pds)
        assert err.value.code == "invalid-argument"

    def test_peak_and_trough_make_a_mixed_path(self):
        report = ts.classify_pd_path([1.0, 1.5, 0.5, 1.0])
        assert report.classification == "mixed"
        assert (report.max_period, report.min_period) == (1, 2)


class TestConvergenceToTTC:
    def test_long_horizon_lands_on_ttc_portfolio(self, matrix8, origination8,
                                                 portfolios, ttc8):
        # |lambda_2| is 0.94 here, so the L1 gap shrinks by only a factor
        # of ~2e-6 over 200 periods; 400 periods push it below 1e-8
        for portfolio in portfolios.values():
            path = ts.project_path(portfolio, matrix8, origination8, 0.0,
                                   z_path=np.zeros(400))
            gap0 = np.abs(portfolio.weights - ttc8.w_ttc.weights).sum()
            gap_end = np.abs(path.portfolios[-1] - ttc8.w_ttc.weights).sum()
            assert gap_end <= 1e-8
            assert gap_end <= gap0


class TestRunValidation:
    def test_size_mismatch_raises_before_the_primitivity_gate(
            self, origination8, portfolios):
        with pytest.raises(InputError) as err:
            ts.run_validation(portfolios["midgrade"], counterexample_matrix(),
                              origination8)
        assert err.value.code == "dimension-mismatch"
        assert str(err.value) == ("current (8), matrix (3) and origination "
                                  "(8) sizes must agree")

    def test_midgrade_book_warns_about_recession(self, matrix8, origination8,
                                                 portfolios):
        report = ts.run_validation(portfolios["midgrade"], matrix8, origination8)
        assert report.verdict == "warn: spurious-recession"
        assert report.exit_code == 1
        assert report.primitive
        assert report.perron is not None and report.perron.passed
        # the spike shows up within the first projection years
        early = report.spurious.pd_path[1:6]
        assert early.max() > max(report.spurious.pd_path[0],
                                 report.spurious.terminal_pd)

    def test_counterexample_fails(self):
        tm = counterexample_matrix()
        report = ts.run_validation(ts.Portfolio([1.0, 0.0, 0.0]), tm,
                                   ts.OriginationVector([0.5, 0.5, 0.0]))
        assert report.verdict == "fail: not primitive"
        assert report.exit_code == 2
        assert report.ttc is None and report.path is None

    def test_ttc_book_passes(self, matrix8, origination8, ttc8):
        report = ts.run_validation(ttc8.w_ttc, matrix8, origination8)
        assert report.verdict == "pass"
        assert report.exit_code == 0
        assert report.divergence.l1 <= 1e-9

    def test_bad_horizon_rejected(self, matrix8, origination8, ttc8):
        with pytest.raises(InputError):
            ts.run_validation(ttc8.w_ttc, matrix8, origination8, horizon=0)

    def test_degenerate_spectral_structure_keeps_every_component(
            self, matrix8, origination8, portfolios, monkeypatch, capsys):
        real = ts.diagnostics.verify_perron_structure

        def degenerate(tm, origination):
            return dataclasses.replace(real(tm, origination),
                                       residual_ok=False)

        monkeypatch.setattr(ts.diagnostics, "verify_perron_structure",
                            degenerate)
        report = ts.run_validation(portfolios["midgrade"], matrix8,
                                   origination8)
        assert report.verdict == "fail: degenerate spectral structure"
        assert report.exit_code == 2
        assert report.defect is None and report.primitive
        assert None not in (report.ttc, report.divergence, report.path,
                            report.spurious, report.perron)
        assert not report.perron.passed
        code = cli_dispatch(["validate", "--matrix",
                             str(DATA / "transition_matrix.csv"),
                             "--portfolio",
                             str(DATA / "portfolio_midgrade.csv"),
                             "--origination", str(DATA / "origination.csv"),
                             "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert list(doc) == ["verdict", "primitive", "ttc", "divergence",
                             "spurious", "perron"]
        assert (doc["verdict"], doc["primitive"]) == (
            "fail: degenerate spectral structure", True)
        assert doc["perron"]["residual_ok"] is False
        assert doc["perron"]["passed"] is False

    def test_significantly_negative_fixed_vector_is_a_model_condition(
            self, matrix8, origination8, portfolios, monkeypatch, capsys):
        real = ts.diagnostics.verify_perron_structure

        def negative(tm, origination):
            report = real(tm, origination)
            w = report.fixed_vector.copy()
            w[2] = -2e-10
            return dataclasses.replace(report, fixed_vector=w)

        monkeypatch.setattr(ts.diagnostics, "verify_perron_structure",
                            negative)
        message = "direct solve produced a significantly negative component"
        with pytest.raises(ts.PrimitivityError, match=message):
            ts.ttc._ttc_result(matrix8, origination8,
                               negative(matrix8, origination8))
        with pytest.raises(ts.PrimitivityError, match=message):
            ts.run_validation(portfolios["midgrade"], matrix8, origination8)
        code = cli_dispatch(["validate", "--matrix",
                             str(DATA / "transition_matrix.csv"),
                             "--portfolio",
                             str(DATA / "portfolio_midgrade.csv"),
                             "--origination", str(DATA / "origination.csv")])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith(
            f"ttcstress: model condition failed: {message};")

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    def test_degenerate_spectral_structure_is_not_silent(
            self, fmt, matrix8, origination8, portfolios, monkeypatch,
            capsys):
        real = ts.diagnostics.verify_perron_structure

        def degenerate(tm, origination):
            return dataclasses.replace(real(tm, origination),
                                       residual_ok=False)

        monkeypatch.setattr(ts.diagnostics, "verify_perron_structure",
                            degenerate)
        residual = ts.run_validation(portfolios["midgrade"], matrix8,
                                     origination8).perron.residual
        code = cli_dispatch(["validate", "--matrix",
                             str(DATA / "transition_matrix.csv"),
                             "--portfolio",
                             str(DATA / "portfolio_midgrade.csv"),
                             "--origination", str(DATA / "origination.csv"),
                             "--format", fmt])
        verdict, reason = capsys.readouterr().err.splitlines()
        assert code == 2
        assert verdict == "verdict: fail: degenerate spectral structure"
        assert reason.startswith(
            f"reason: spectral check: fixed-point residual {residual:.2e} "
            "(ok=False), ")


def edge_row_system(rng: np.random.Generator, n: int):
    """A seeded n-grade system of four-decimal rows, each row's first entry
    moved up by ulps until the row sums to the largest double within 1e-12
    of one, which validation keeps as given; origination and book are
    two-decimal mixes over the performing grades."""
    def within(row):
        return abs(row.sum() - 1.0) <= 1e-12

    probs = np.zeros((n, n))
    probs[-1, -1] = 1.0
    for row in probs[:-1]:
        row[:] = (rng.multinomial(10_000 - n, np.ones(n) / n) + 1) / 1e4
        row[0] += 1.0 + 1e-12 - row.sum()
        while not within(row):
            row[0] = np.nextafter(row[0], 0.0)
        while True:
            up = row.copy()
            up[0] = np.nextafter(row[0], 1.0)
            if not within(up):
                break
            row[0] = up[0]
    tm = ts.validate_transition_matrix(probs)
    assert tm.published is None and np.array_equal(tm.probs, probs)
    mixes = []
    for _ in range(2):
        w = np.zeros(n)
        w[:-1] = (rng.multinomial(100 - (n - 1), np.ones(n - 1) / (n - 1))
                  + 1) / 100
        mixes.append(w)
    return tm, ts.OriginationVector(mixes[0]), ts.Portfolio(mixes[1])


class TestRowsAtTheSumBound:
    """Rows that validation keeps as given, at 1e-12 from unit sum, are
    valid input: no check after arithmetic may reject them again."""

    def test_seeded_sweep(self):
        for seed in range(150):
            rng = np.random.default_rng(9100 + seed)
            tm, orig, book = edge_row_system(rng, int(rng.integers(3, 6)))
            report = ts.run_validation(book, tm, orig)
            assert report.primitive and report.perron.passed, seed
            assert report.verdict != "fail: degenerate spectral structure"
            result = ts.solve_ttc(tm, orig)
            assert np.array_equal(result.w_ttc.weights,
                                  report.ttc.w_ttc.weights)


def _validation_systems():
    rng = np.random.default_rng(20240)
    systems = [random_system(rng, n) for n in (2, 3, 5, 8, 13, 21)]
    systems += [rounded_system(rng, n) for n in (3, 5, 8, 13, 21)]
    return systems


def _spectral_systems():
    """The validation systems plus seeded 21-grade master-scale systems with
    one row moved one tick, so that their rows were rounded."""
    systems = _validation_systems()
    for seed in range(4):
        rng = np.random.default_rng(4400 + seed)
        probs, orig = bench_systems().rating_system(rng)
        i = int(rng.integers(probs.shape[0] - 1))
        probs[i, i] = np.round(probs[i, i] + rng.choice([-1e-4, 1e-4]), 4)
        tm = ts.validate_transition_matrix(probs, tol=2e-4)
        assert tm.published is not None
        systems.append((tm, ts.OriginationVector(orig)))
    return systems


def dynamics_m_p(tm, orig):
    """The M_p the propagation step uses: on the published rates for a
    matrix whose rows were rounded."""
    probs = tm.probs if tm.published is None else tm.published
    return probs[:-1, :-1].T + np.outer(orig.weights[:-1], probs[:-1, -1])


def assert_spectral_figures_of(m_p, report):
    """The TTC, Perron root and residual of ``report`` are those of one
    eigendecomposition of ``m_p``."""
    vals, vecs = np.linalg.eig(m_p)
    k = int(np.argmax(vals.real))
    v = vecs[:, k].real / vecs[:, k].real.sum()
    assert np.abs(report.ttc.w_ttc.weights[:-1] - v).max() <= 1e-13
    assert report.perron.root == pytest.approx(vals[k].real, abs=1e-12)
    assert report.perron.residual <= 1e-14


class TestDirectSolveInValidation:
    def test_ttc_matches_iterative_oracle_on_bundled_data(
            self, matrix8, origination8, portfolios, ttc8):
        report = ts.run_validation(portfolios["barbell"], matrix8,
                                   origination8)
        assert np.abs(report.ttc.w_ttc.weights
                      - ttc8.w_ttc.weights).max() <= 1e-10
        assert report.ttc.ttc_pd == pytest.approx(ttc8.ttc_pd, abs=1e-12)

    @pytest.mark.parametrize("k", range(11))
    def test_ttc_matches_iterative_oracle_on_seeded_systems(self, k):
        tm, orig = _validation_systems()[k]
        book = random_portfolio(np.random.default_rng(k), tm.n)
        report = ts.run_validation(book, tm, orig)
        oracle = ts.solve_ttc_iterative(tm, orig)
        assert np.abs(report.ttc.w_ttc.weights
                      - oracle.w_ttc.weights).max() <= 1e-10

    @pytest.mark.parametrize("k", range(11))
    def test_no_iterations_and_a_fixed_point_of_the_step(self, k):
        tm, orig = _validation_systems()[k]
        report = ts.run_validation(ts.Portfolio(orig.weights), tm, orig)
        assert report.ttc.iterations == 0
        assert report.ttc.final_step_delta <= 1e-14
        stepped, _ = ts.propagate_step(report.ttc.w_ttc, tm, orig)
        assert report.ttc.final_step_delta == float(
            np.abs(stepped.weights - report.ttc.w_ttc.weights).sum())

    @pytest.mark.parametrize("k", range(15))
    def test_lambda2_is_the_exact_subdominant_modulus(self, k):
        tm, orig = _spectral_systems()[k]
        report = ts.run_validation(ts.Portfolio(orig.weights), tm, orig)
        moduli = np.sort(np.abs(np.linalg.eigvals(dynamics_m_p(tm, orig))))
        expected = moduli[-2] if moduli.size > 1 else 0.0
        assert report.perron.lambda2 == pytest.approx(expected, abs=1e-12)
        assert report.ttc.spectral_gap_estimate == report.perron.lambda2

    def test_bundled_lambda2_is_exact(self, matrix8, origination8, portfolios):
        report = ts.run_validation(portfolios["midgrade"], matrix8,
                                   origination8)
        moduli = np.sort(np.abs(np.linalg.eigvals(
            dynamics_m_p(matrix8, origination8))))
        assert report.perron.lambda2 == pytest.approx(moduli[-2], abs=1e-12)

    @pytest.mark.parametrize("k", range(15))
    def test_ttc_root_and_residual_come_from_the_dynamics_m_p(self, k):
        tm, orig = _spectral_systems()[k]
        report = ts.run_validation(ts.Portfolio(orig.weights), tm, orig)
        assert_spectral_figures_of(dynamics_m_p(tm, orig), report)

    def test_bundled_ttc_root_and_residual_come_from_the_dynamics_m_p(
            self, matrix8, origination8, portfolios):
        report = ts.run_validation(portfolios["midgrade"], matrix8,
                                   origination8)
        assert_spectral_figures_of(dynamics_m_p(matrix8, origination8), report)
        assert report.perron.root == pytest.approx(1.0000454, abs=5e-8)

    def test_primitivity_checked_once(self, monkeypatch, matrix8,
                                      origination8, portfolios):
        calls = []
        real = ts.ttc.is_primitive

        def counted(block):
            calls.append(1)
            return real(block)

        monkeypatch.setattr(ts.ttc, "is_primitive", counted)
        monkeypatch.setattr(ts.diagnostics, "is_primitive", counted)
        ts.run_validation(portfolios["midgrade"], matrix8, origination8)
        assert len(calls) == 1

    def test_mismatched_origination_still_rejected(self, matrix8, ttc8):
        orig = ts.OriginationVector([0.5, 0.5, 0.0])
        with pytest.raises(InputError) as info:
            ts.run_validation(ttc8.w_ttc, matrix8, orig)
        assert info.value.code == "dimension-mismatch"

    def test_mismatched_book_still_rejected(self, matrix8, origination8):
        with pytest.raises(InputError) as info:
            ts.run_validation(ts.Portfolio([0.5, 0.5, 0.0]), matrix8,
                              origination8)
        assert info.value.code == "dimension-mismatch"


def count_step_stacks(monkeypatch) -> list:
    """Patch ``propagation._step_stack`` to record each call."""
    calls = []
    real = ts.propagation._step_stack

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ts.propagation, "_step_stack", counted)
    return calls


def fresh_matrix8() -> ts.TransitionMatrix:
    """The bundled matrix, parsed anew: unlike the session-scoped
    ``matrix8`` fixture, it holds no unstressed step yet."""
    return ts.parse_matrix_csv((DATA / "transition_matrix.csv").read_text())


class TestUnstressedStepOnlyWhenUsed:
    """A projection builds the unstressed step matrix only if some period
    is unstressed; the stressed periods share one stack."""

    @pytest.mark.parametrize("zero_at, builds", [(None, 1), (7, 2)])
    def test_step_matrices_built(self, zero_at, builds, monkeypatch,
                                 origination8, portfolios):
        tm = fresh_matrix8()
        calls = count_step_stacks(monkeypatch)
        z = np.linspace(-2.0, 1.5, 39)
        assert (z != 0.0).all()
        if zero_at is not None:
            z[zero_at] = 0.0
        ts.project_path(portfolios["barbell"], tm, origination8, 0.2, z)
        assert len(calls) == builds


class TestOneUnstressedStepPerMatrix:
    """A matrix keeps its last unstressed step, read-only, for the exact
    bits of the origination it was built with, so a validation builds it
    once where its stages used to build it three times."""

    def test_validation_builds_one_step(self, monkeypatch, origination8,
                                        portfolios):
        tm = fresh_matrix8()
        calls = count_step_stacks(monkeypatch)
        ts.run_validation(portfolios["midgrade"], tm, origination8)
        assert len(calls) == 1
        ts.project_path(portfolios["barbell"], tm, origination8, 0.0,
                        np.zeros(20))
        assert len(calls) == 1

    def test_ttc_solve_builds_one_step(self, monkeypatch, origination8):
        tm = fresh_matrix8()
        calls = count_step_stacks(monkeypatch)
        ts.solve_ttc(tm, origination8)
        assert len(calls) == 1

    @pytest.mark.parametrize("rounded", [True, False])
    def test_other_bits_get_a_new_build(self, rounded, monkeypatch,
                                        origination8):
        tm = fresh_matrix8() if rounded else ts.TransitionMatrix(
            fresh_matrix8().probs)
        rates = tm.probs if tm.published is None else tm.published
        balance = tm.published is not None
        first = ts.propagation._step_matrix(tm, origination8.weights)
        calls = count_step_stacks(monkeypatch)
        negative_zero = origination8.weights.copy()
        negative_zero[-1] = -0.0
        reversed_mix = np.append(origination8.weights[-2::-1], 0.0)
        for weights in (negative_zero, reversed_mix):
            orig = ts.OriginationVector(weights)
            before = len(calls)
            step = ts.propagation._step_matrix(tm, orig.weights)
            assert len(calls) == before + 1
            assert step is not first
            uncached = ts.propagation._step_stack(rates, orig.weights,
                                                  balance=balance)
            assert_same_bits(step, uncached)
            assert ts.propagation._step_matrix(tm, orig.weights) is step
            assert len(calls) == before + 2

    def test_weights_cannot_change_under_the_kept_step(self, origination8):
        """The vector holds a read-only copy of its weights: a write through
        it raises, and a write into the caller's array reaches neither the
        weights nor the step kept for them."""
        tm = fresh_matrix8()
        source = origination8.weights.copy()
        orig = ts.OriginationVector(source)
        first = ts.propagation._step_matrix(tm, orig.weights)
        kept = first.copy()
        with pytest.raises(ValueError):
            orig.weights[[0, 1]] = orig.weights[[1, 0]]
        source[[0, 1]] = source[[1, 0]]
        assert_same_bits(orig.weights, origination8.weights)
        assert ts.propagation._step_matrix(tm, orig.weights) is first
        assert_same_bits(first, kept)

    def test_kept_step_is_read_only(self, origination8, portfolios):
        tm = fresh_matrix8()
        ts.run_validation(portfolios["seasoned"], tm, origination8)
        step = ts.propagation._step_matrix(tm, origination8.weights)
        assert not step.flags.writeable
        with pytest.raises(ValueError):
            step[0, 0] = 0.5


def assert_same_bits(x, y) -> None:
    """``x`` and ``y`` hold the same values bit for bit, field by field."""
    assert type(x) is type(y)
    if dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            assert_same_bits(getattr(x, f.name), getattr(y, f.name))
    elif isinstance(x, np.ndarray):
        assert (x.dtype, x.shape) == (y.dtype, y.shape)
        assert x.tobytes() == y.tobytes()
    else:
        assert repr(x) == repr(y)


class TestValidationMatchesItsStages:
    @pytest.mark.parametrize("k", range(40))
    def test_every_field_is_its_public_stage_bit_for_bit(self, k):
        rng = np.random.default_rng(20200 + k)
        n = int(rng.integers(3, 22))
        tm, orig = (random_system if k % 2 else rounded_system)(rng, n)
        book = random_portfolio(rng, n, performing_only=bool(k % 3))
        report = ts.run_validation(book, tm, orig)
        ttc = ts.solve_ttc(tm, orig)
        path = ts.project_path(book, tm, orig, 0.0, np.zeros(50))
        spurious = ts.detect_spurious_dynamics(path)
        assert report.defect is None
        assert_same_bits(report.perron, ts.verify_perron_structure(tm, orig))
        assert_same_bits(report.ttc, ttc)
        assert_same_bits(report.divergence,
                         ts.compare_portfolios(book, ttc.w_ttc, tm))
        assert_same_bits(report.path, path)
        assert_same_bits(report.spurious, spurious)
        assert report.verdict == ("pass" if not spurious.spurious
                                  else f"warn: {spurious.classification}")


def result_arrays(matrix8, origination8, portfolios):
    """(name, array) of every array a result record holds, on the bundled
    data: paths unstressed, stressed everywhere and stressed in part, a
    validation report and a path read back from its CSV."""
    book = portfolios["barbell"]
    report = ts.run_validation(book, matrix8, origination8)
    paths = {
        "unstressed": report.path,
        "stressed": ts.project_path(book, matrix8, origination8, 0.2,
                                    np.full(12, -1.0)),
        "mixed": ts.project_path(book, matrix8, origination8, 0.2,
                                 [0.0, -1.0, 0.0, 1.5]),
        "parsed": ts.parse_path_csv(ts.emit_path_csv(report.path)),
    }
    arrays = [(f"{kind}.{field}", getattr(path, field))
              for kind, path in paths.items()
              for field in ("z", "portfolios", "default_flows", "avg_pds")]
    arrays += [("divergence.differences", report.divergence.differences),
               ("spurious.pd_path", report.spurious.pd_path),
               ("perron.fixed_vector", report.perron.fixed_vector),
               ("classify_pd_path.pd_path",
                ts.classify_pd_path(np.array([0.02, 0.03, 0.01])).pd_path)]
    return arrays


class TestResultArraysAreReadOnly:
    def test_every_write_raises(self, matrix8, origination8, portfolios):
        arrays = result_arrays(matrix8, origination8, portfolios)
        assert len(arrays) == 20
        for name, arr in arrays:
            before = arr.copy()
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5
            assert arr.tobytes() == before.tobytes(), name

    def test_records_compare_by_identity(self, matrix8, origination8,
                                         portfolios):
        """Result records hold arrays, so they compare and hash by
        identity, as the input records do."""
        book = portfolios["barbell"]
        one, two = (ts.run_validation(book, matrix8, origination8)
                    for _ in range(2))
        for name in ("path", "divergence", "spurious", "perron", "ttc", None):
            a, b = (getattr(r, name) if name else r for r in (one, two))
            assert a == a and a != b and hash(a) == hash(a), name
            assert len({a, b}) == 2, name

    def test_classify_keeps_its_own_copy_of_the_callers_array(self):
        pds = np.array([0.02, 0.03, 0.01])
        report = ts.classify_pd_path(pds)
        assert pds.flags.writeable and not report.pd_path.flags.writeable
        pds[1] = 0.9
        assert report.pd_path.tolist() == [0.02, 0.03, 0.01]
        assert report.max_pd == 0.03
