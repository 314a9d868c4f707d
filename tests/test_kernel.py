import numpy as np
import pytest

import ttcstress as ts

from conftest import random_portfolio, random_system
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
                pd = ts.average_pd(path.portfolio_at(t + 1), tm)
                assert abs(path.avg_pds[t] - pd) <= 1e-16


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


MIXED_WARNING = ("ttcstress: warning: z = 0 means no stress, and the z path "
                 "mixes it with stressed periods; the stressed matrix does "
                 "not tend to the input one as z -> 0\n")


class TestMixedZPathWarning:
    def propagate(self, monkeypatch, capsys, tmp_path, z, rho="0.2"):
        monkeypatch.setattr(ts.cli, "_build_z_path",
                            lambda args, tm: np.array(z, dtype=float))
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
