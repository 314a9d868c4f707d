import numpy as np
import pytest

import oracles
import ttcstress as ts
from ttcstress import propagation, transition
from ttcstress.errors import InputError

from conftest import bench_systems, random_portfolio, random_system
from test_cli import MATRIX, MIDGRADE, ORIGINATION, run
from test_ttc import rounded_system


def seeded_cases(count: int = 60):
    """(system, book, rho, mixed z path) on exact and rounded systems."""
    rng = np.random.default_rng(4242)
    for i in range(count):
        n = int(rng.integers(2, 22))
        make = rounded_system if i % 2 else random_system
        tm, orig = make(rng, max(n, 3) if i % 2 else n)
        book = random_portfolio(rng, tm.n, performing_only=i % 3 != 0)
        m = int(rng.integers(1, 51))
        z = rng.normal(0.0, 2.0, m)
        z[rng.random(m) < 0.4] = 0.0
        yield tm, orig, book, (0.0, 0.1, 0.45)[i % 3], z


def reference_step(w, probs, orig, rescale):
    """Migrate, write off the defaulted balance, re-originate it."""
    migrated = w @ probs
    flow = migrated[-1]
    out = migrated.copy()
    out[-1] = 0.0
    out += flow * orig
    return (out / out.sum() if rescale else out), flow


class TestStepKernel:
    def test_matches_the_three_operation_reference(self):
        for tm, orig, book, rho, z in seeded_cases():
            path = ts.project_path(book, tm, orig, rho, z)
            w = book.weights
            for t, z_t in enumerate(z):
                stressed = ts.stress_transition_matrix(tm, rho, z_t)
                unstressed = stressed is tm and tm.published is not None
                probs = tm.published if unstressed else stressed.probs
                want, flow = reference_step(w, probs, orig.weights, unstressed)
                assert np.abs(path.portfolios[t] - want).max() <= 1e-15
                assert abs(path.default_flows[t] - flow) <= 1e-15
                w = path.portfolios[t]

    def test_default_written_off_and_mass_conserved_every_period(self):
        for tm, orig, book, rho, z in seeded_cases():
            path = ts.project_path(book, tm, orig, rho, z)
            assert (path.portfolios[:, -1] == 0.0).all()
            mass = path.portfolios.sum(axis=1)
            if tm.published is not None:
                # rescaled to unit balance after every period
                assert np.abs(mass - 1.0).max() <= 1e-15
            # an exact matrix's rows sum to one only within a few ulp, so its
            # book's mass may drift by that much per period, never more
            start = book.weights.sum()
            assert np.abs(np.diff(mass, prepend=start)).max() <= 1e-15

    def test_pds_use_the_unstressed_default_column(self):
        for tm, orig, book, rho, z in seeded_cases(20):
            path = ts.project_path(book, tm, orig, rho, z)
            for t in range(z.size):
                pd = ts.average_pd(ts.Portfolio(path.portfolios[t]), tm)
                assert abs(path.avg_pds[t] - pd) <= 1e-16


class TestStepwiseBitIdentity:
    def test_each_period_is_stress_then_propagate_step(self):
        """project_path, period by period, equals stress_transition_matrix
        followed by propagate_step bit for bit, on exact and rounded
        systems, with origination vectors ending in +0.0 and -0.0; the
        default column of every step matrix, and so the default grade of
        every book, is +0.0."""
        minus_zero = 0
        for i, (tm, orig, book, rho, z) in enumerate(seeded_cases()):
            if i % 4 < 2:
                weights = orig.weights.copy()
                weights[-1] = -0.0
                orig = ts.OriginationVector(weights)
                minus_zero += 1
            path = ts.project_path(book, tm, orig, rho, z)
            assert not np.signbit(path.portfolios[:, -1]).any()
            w = book
            for t, z_t in enumerate(z):
                stressed = ts.stress_transition_matrix(tm, rho, z_t)
                step = propagation._step_matrix(stressed, orig.weights)
                assert not np.signbit(step[:, tm.n - 1]).any()
                w, flow = ts.propagate_step(w, stressed, orig)
                assert_same_bits(path.portfolios[t], w.weights)
                assert_same_bits(path.default_flows[t], flow)
        assert minus_zero == 30


class TestTailLayoutOncePerMatrix:
    def test_second_stress_takes_no_quantile(self, monkeypatch):
        """The first stress of a matrix takes Phi^-1 of its distinct tails;
        later stresses of the same matrix take none, and each still makes
        one Phi call over its stressed states times the distinct tails."""
        calls = {"cdf": [], "inv": []}

        def counting(name, real):
            def wrapped(x):
                calls[name].append(np.size(x))
                return real(x)
            return wrapped

        monkeypatch.setattr(transition, "std_normal_cdf",
                            counting("cdf", transition.std_normal_cdf))
        monkeypatch.setattr(transition, "std_normal_inv_cdf",
                            counting("inv", transition.std_normal_inv_cdf))
        rng = np.random.default_rng(1616)
        tm, orig = rounded_system(rng, 21)
        book = random_portfolio(rng, tm.n)
        u = distinct_tails(tm.probs)
        ts.run_validation(book, tm, orig, horizon=10)
        assert calls == {"cdf": [], "inv": []}
        first, second = rng.normal(0.0, 1.5, (2, 39))
        second[::3] = 0.0
        ts.project_path(book, tm, orig, 0.2, first)
        assert calls == {"cdf": [first.size * u], "inv": [u]}
        calls["cdf"].clear()
        calls["inv"].clear()
        ts.project_path(book, tm, orig, 0.2, second)
        ts.stress_transition_matrix(tm, 0.2, -1.0)
        assert calls == {"cdf": [int((second != 0.0).sum()) * u, u],
                         "inv": []}


class TestValidationReusesTheSolve:
    @pytest.mark.parametrize("seed", range(6))
    def test_ttc_equals_solve_ttc_direct_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        make = rounded_system if seed % 2 else random_system
        tm, orig = make(rng, int(rng.integers(3, 22)))
        report = ts.run_validation(random_portfolio(rng, tm.n), tm, orig)
        direct = ts.solve_ttc_direct(tm, orig)
        assert np.array_equal(report.ttc.w_ttc.weights, direct.weights)

    def test_bundled_ttc_equals_solve_ttc_direct(self, matrix8, origination8,
                                                 portfolios):
        report = ts.run_validation(portfolios["midgrade"], matrix8,
                                   origination8)
        direct = ts.solve_ttc_direct(matrix8, origination8)
        assert np.array_equal(report.ttc.w_ttc.weights, direct.weights)


def dyadic_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Sparse rows in 64ths: every sum is exact, so rows that start with
    zeros have tails of exactly 1, and rows without a default share have
    zero tails."""
    probs = np.zeros((n, n))
    for i in range(n - 1):
        support = rng.random(n) < rng.uniform(0.2, 0.9)
        support[i] = True
        if rng.random() < 0.3:
            support[-1] = False
        counts = rng.multinomial(64, support / support.sum())
        probs[i] = counts / 64.0
    probs[-1, -1] = 1.0
    return probs


def stress_cases(count: int = 160):
    """(matrix, rho, nonzero z states) on banded, dense and sparse systems."""
    systems = bench_systems()
    rng = np.random.default_rng(8080)
    rhos = (1e-12, 1e-6, 0.2, 0.5, 0.999999)
    for i in range(count):
        n = int(rng.integers(3, 26))
        kind = i % 4
        if kind == 0:
            tm = ts.TransitionMatrix(systems.rating_matrix(rng, n))
        elif kind == 1:
            tm = random_system(rng, n)[0]
        elif kind == 2:
            tm = rounded_system(rng, n)[0]
        else:
            tm = ts.TransitionMatrix(dyadic_matrix(rng, n))
        rho = rhos[i % len(rhos)] if i % 3 else float(rng.uniform(0.0, 1.0))
        z = rng.uniform(-1.0, 1.0, int(rng.integers(1, 41)))
        z *= 10.0 ** rng.uniform(-3.0, 3.0, z.size)
        z[z == 0.0] = 1.0
        yield tm, rho, z


def distinct_tails(probs: np.ndarray) -> int:
    """Count of the tails from column 2 onward that differ from the tail to
    their left, plus one per row."""
    tails = np.clip(np.cumsum(probs[:-1, ::-1], axis=1)[:, ::-1][:, 1:],
                    0.0, 1.0)
    return tails.shape[0] + int((np.diff(tails, axis=1) != 0.0).sum())


def kernel_rows(tm, rho, z):
    out = np.zeros((z.size, tm.n - 1, tm.n))
    transition._stressed_rows(tm, rho, z, out)
    return out


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestDistinctTailKernel:
    """The stress kernel evaluates Phi^-1 and Phi once per distinct tail,
    and its rows are bit for bit those of the dense kernel that evaluates
    every tail (``oracles.stressed_rows_dense``)."""

    def test_matches_the_dense_kernel_bit_for_bit(self):
        zero_pd_rows = exact_one_tails = 0
        for tm, rho, z in stress_cases():
            assert_same_bits(kernel_rows(tm, rho, z),
                             oracles.stressed_rows_dense(tm.probs, rho, z))
            tails = np.cumsum(tm.probs[:-1, ::-1], axis=1)[:, ::-1]
            zero_pd_rows += int((tails[:, -1] == 0.0).sum())
            exact_one_tails += int((tails[:, 1] == 1.0).sum())
        # the cases include both kinds of edge row
        assert zero_pd_rows > 20 and exact_one_tails > 20

    def test_one_evaluation_per_distinct_tail(self, monkeypatch):
        sizes = {"cdf": [], "inv": []}

        def counting(name, real):
            def wrapped(x):
                sizes[name].append(np.size(x))
                return real(x)
            return wrapped

        monkeypatch.setattr(transition, "std_normal_cdf",
                            counting("cdf", transition.std_normal_cdf))
        monkeypatch.setattr(transition, "std_normal_inv_cdf",
                            counting("inv", transition.std_normal_inv_cdf))
        repeated = 0
        for tm, rho, z in stress_cases(60):
            sizes["cdf"].clear()
            sizes["inv"].clear()
            kernel_rows(tm, rho, z)
            u = distinct_tails(tm.probs)
            assert sizes == {"cdf": [z.size * u], "inv": [u]}
            repeated += (tm.n - 1) ** 2 - u
        assert repeated > 0

    @pytest.mark.parametrize("lift", [1e-15, 1e-9])
    def test_dust_clamp_and_error_match_the_dense_kernel(self, monkeypatch,
                                                         lift):
        """Lift one stressed tail above its left neighbour, found by its Phi
        argument: dust of 1e-15 is clamped to the same bits, an inversion of
        1e-9 gives the same error."""
        rng = np.random.default_rng(99)
        real = ts.std_normal_cdf
        for tm, rho, z in stress_cases(24):
            p, z = tm.probs, z[:1]
            tails = np.clip(np.cumsum(p[:-1, ::-1], axis=1)[:, ::-1], 0.0, 1.0)
            # a performing row i and a column j >= 1 with a nonzero entry
            # and a nonzero tail to its right
            i, j = rng.choice(np.argwhere((p[:-1, 1:-1] > 0.0)
                                          & (tails[:, 2:] > 0.0))) + (0, 1)
            tails = tails[i]
            left, right = ((ts.std_normal_inv_cdf(tails[j:j + 2])
                            - np.sqrt(rho) * z[0]) / np.sqrt(1.0 - rho))

            def lifted(x):
                out = np.array(real(x))
                out[np.asarray(x) == right] = real(left) + lift
                return out

            outcomes = []
            for module, call in ((transition, kernel_rows),
                                 (oracles, self._dense)):
                with monkeypatch.context() as patch:
                    patch.setattr(module, "std_normal_cdf", lifted)
                    try:
                        outcomes.append(call(tm, rho, z))
                    except InputError as exc:
                        outcomes.append(exc)
            got, want = outcomes
            if lift > 1e-12:
                assert isinstance(want, InputError)
                assert (got.code, str(got)) == (want.code, str(want))
            else:
                assert want[0, i, j] == 0.0
                assert_same_bits(got, want)

    @staticmethod
    def _dense(tm, rho, z):
        return oracles.stressed_rows_dense(tm.probs, rho, z)


MIXED_WARNING = ("ttcstress: warning: z = 0 means no stress, and the z path "
                 "mixes it with stressed periods; the stressed matrix does "
                 "not tend to the input one as z -> 0\n")


class TestMixedZPathWarning:
    def propagate(self, monkeypatch, capsys, tmp_path, z, rho="0.2"):
        monkeypatch.setattr(ts.cli, "_build_z_path",
                            lambda args: np.array(z, dtype=float))
        return run("propagate", "--matrix", MATRIX, "--portfolio", MIDGRADE,
                   "--origination", ORIGINATION, "--rho", rho,
                   "--out-dir", str(tmp_path), capsys=capsys)

    def test_one_warning_and_unchanged_files(self, monkeypatch, capsys,
                                             tmp_path):
        z = [0.0, -1.0, 0.0, 0.5, 0.0]
        code, out, err = self.propagate(monkeypatch, capsys, tmp_path, z)
        assert err == MIXED_WARNING
        tm = ts.parse_matrix_csv(open(MATRIX).read())
        book = ts.parse_vector_csv(open(MIDGRADE).read(), "portfolio")
        orig = ts.parse_vector_csv(open(ORIGINATION).read(), "origination")
        path = ts.project_path(book, tm, orig, 0.2, z)
        report = ts.detect_spurious_dynamics(path)
        assert code == (1 if report.spurious else 0)
        assert (tmp_path / "path.csv").read_text() == ts.emit_path_csv(path)
        assert "classification:" in out

    @pytest.mark.parametrize("z, rho", [([0.0, 0.0], "0.2"),
                                        ([-1.0, 0.5], "0.2"),
                                        ([0.0, -1.0], "0")])
    def test_no_warning_without_a_mix(self, monkeypatch, capsys, tmp_path,
                                      z, rho):
        _, _, err = self.propagate(monkeypatch, capsys, tmp_path, z, rho)
        assert err == ""
