import numpy as np
import pytest

import oracles
import ttcstress as ts
from ttcstress import propagation, transition
from ttcstress.errors import InputError

from conftest import bench_systems, random_portfolio, random_system
from oracles import assert_same_bits, reference_step, reference_step_stack
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
        """Every PD of a book is bit for bit ``average_pd`` of it: as period
        t of a path, as period 0 of a path started from it, and as the TTC
        PD of a validation's TTC result and of its divergence report."""
        for tm, orig, book, rho, z in seeded_cases(20):
            path = ts.project_path(book, tm, orig, rho, z)
            for t in range(z.size):
                pd = ts.average_pd(ts.Portfolio(path.portfolios[t]), tm)
                assert path.avg_pds[t] == pd
        rng = np.random.default_rng(2525)
        for n in (3, 8, 21, 50, 200):
            for make in (random_system, rounded_system):
                tm, orig = make(rng, n)
                for i in range(4):
                    book = random_portfolio(rng, n, performing_only=i % 2 == 0)
                    for rho, z in ((0.0, np.zeros(60)),
                                   (0.2, rng.normal(0.0, 1.5, 60))):
                        path = ts.project_path(book, tm, orig, rho, z)
                        for t in range(z.size):
                            start = ts.Portfolio(path.portfolios[t])
                            one = ts.project_path(start, tm, orig, 0.0, [0.0])
                            assert one.initial_pd == path.avg_pds[t]
                            assert ts.average_pd(start, tm) == path.avg_pds[t]
                report = ts.run_validation(book, tm, orig)
                assert report.divergence.ttc_pd == report.ttc.ttc_pd
                assert report.divergence.current_pd == report.path.initial_pd


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
                assert_same_bits(float(path.default_flows[t]), flow)
        assert minus_zero == 30


class TestStepStackLayout:
    """``_step_stack`` builds each entry as the elementwise reference does,
    bit for bit, on stacks of up to 60 matrices of 3 to 40 grades."""

    @pytest.mark.parametrize("k", range(16))
    def test_matches_the_elementwise_reference(self, k):
        rng = np.random.default_rng(21000 + k)
        n = int(rng.integers(3, 41))
        shape = (n, n) if k % 4 == 0 else (int(rng.integers(1, 61)), n, n)
        probs = rng.random(shape) ** 3
        probs /= probs.sum(axis=-1, keepdims=True)
        if k % 2:
            probs = np.round(probs, 4)  # published rates: rows off one
        orig = rng.random(n)
        orig[-1] = -0.0 if k % 3 else 0.0
        orig /= orig.sum()
        for balance in (False, True):
            got = propagation._step_stack(probs, orig, balance=balance)
            want = reference_step_stack(probs, orig, balance)
            assert got.shape == want.shape
            assert_same_bits(got, want)
            assert not np.signbit(got[..., n - 1]).any()


class TestWholeStressStack:
    """A path stressed in every period propagates the whole stress stack
    as it is; a zero period makes ``project_path`` pick steps one by one.
    Both give the same books, flows and average PDs, bit for bit, for the
    same stressed periods."""

    @pytest.mark.parametrize("k", range(24))
    def test_same_bits_as_inside_a_path_with_a_zero_period(self, k):
        rng = np.random.default_rng(21200 + k)
        n = int(rng.integers(3, 22))
        tm, orig = (random_system if k % 2 else rounded_system)(rng, n)
        book = random_portfolio(rng, n, performing_only=bool(k % 3))
        rho = (0.05, 0.2, 0.6)[k % 3]
        z = rng.normal(0.0, 2.0, int(rng.integers(1, 41)))
        j = int(rng.integers(0, z.size + 1))
        mixed = ts.project_path(book, tm, orig, rho, np.insert(z, j, 0.0))
        before = ts.project_path(book, tm, orig, rho, z[:j]) if j else None
        after = (ts.project_path(ts.Portfolio(mixed.portfolios[j]), tm, orig,
                                 rho, z[j:]) if j < z.size else None)
        for part, rows in ((before, slice(0, j)),
                           (after, slice(j + 1, None))):
            if part is None:
                continue
            assert_same_bits(part.portfolios, mixed.portfolios[rows])
            assert_same_bits(part.default_flows, mixed.default_flows[rows])
            assert_same_bits(part.avg_pds, mixed.avg_pds[rows])


class TestHorizonFreeAveragePd:
    """A period's average PD does not depend on how many periods follow
    it: each is reduced over its own book alone."""

    @pytest.mark.parametrize("z", [0.0, -1.0])
    def test_every_horizon_prefix_of_a_60_period_path(self, z, portfolios,
                                                      matrix8, origination8):
        for book in portfolios.values():
            full = ts.project_path(book, matrix8, origination8, 0.2,
                                   np.full(60, z))
            for h in range(1, 60):
                short = ts.project_path(book, matrix8, origination8, 0.2,
                                        np.full(h, z))
                assert_same_bits(short.portfolios, full.portfolios[:h])
                assert_same_bits(short.avg_pds, full.avg_pds[:h])


class TestTailLayoutOncePerMatrix:
    """The tail layout is built once per matrix, on its first stress, and
    takes Phi^-1 once per distinct tail value of the matrix; tails of
    exactly 0 or 1 are gathered from the fixed slots.  A validation never
    builds it."""

    def test_second_stress_takes_no_quantile(self, monkeypatch):
        """The first stress of a matrix takes Phi^-1 of its distinct tail
        values; later stresses of the same matrix take none, and each still
        makes one Phi call over its stressed states times those values."""
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


def inner_tails(probs: np.ndarray) -> list[set]:
    """Per performing row, the set of its tails from column 2 onward that
    lie strictly inside (0, 1)."""
    tails = np.clip(np.cumsum(probs[:-1, ::-1], axis=1)[:, ::-1][:, 1:],
                    0.0, 1.0)
    return [{t for t in row if 0.0 < t < 1.0} for row in tails.tolist()]


def distinct_tails(probs: np.ndarray) -> int:
    """Count of the distinct tail values strictly inside (0, 1), from
    column 2 onward, over all performing rows."""
    return len(set().union(*inner_tails(probs)))


def tails_repeated_across_rows(probs: np.ndarray) -> int:
    """Count of the tail values strictly inside (0, 1) that two performing
    rows or more share."""
    rows = inner_tails(probs)
    return sum(len(row) for row in rows) - len(set().union(*rows))


def kernel_rows(tm, rho, z):
    return transition._stressed_probs(tm, rho, z)[:, :-1]


class TestDistinctTailKernel:
    """The stress kernel evaluates Phi^-1 and Phi once per distinct tail
    value of the matrix; tails of exactly 0 or 1 are gathered from the
    fixed slots.  Its rows are bit for bit those of the dense kernel that
    evaluates every tail (``oracles.stressed_rows_dense``)."""

    def test_matches_the_dense_kernel_bit_for_bit(self):
        zero_pd_rows = exact_one_tails = across_rows = 0
        for tm, rho, z in stress_cases():
            assert_same_bits(kernel_rows(tm, rho, z),
                             oracles.stressed_rows_dense(tm.probs, rho, z))
            tails = np.cumsum(tm.probs[:-1, ::-1], axis=1)[:, ::-1]
            zero_pd_rows += int((tails[:, -1] == 0.0).sum())
            exact_one_tails += int((tails[:, 1] == 1.0).sum())
            across_rows += tails_repeated_across_rows(tm.probs)
        # the cases include both kinds of edge row, and tails that rows share
        assert zero_pd_rows > 20 and exact_one_tails > 20
        assert across_rows > 20

    def test_shared_rows_zero_pd_and_leading_zeros(self, monkeypatch):
        """Two identical rows, a zero-PD row and rows with leading zeros:
        Phi^-1 gets each distinct tail value inside (0, 1) once, Phi each
        of their shifted quantiles once per state, no argument is +-inf,
        and the rows are the dense kernel's, signbits included."""
        probs = np.array([
            [0.0, 0.0, 0.5, 0.25, 0.125, 0.125],
            [0.0, 0.0, 0.5, 0.25, 0.125, 0.125],
            [0.25, 0.5, 0.25, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.25, 0.125, 0.0625, 0.0625],
            [0.0625, 0.0625, 0.125, 0.25, 0.5, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]])
        seen = {"cdf": [], "inv": []}

        def recording(name, real):
            def wrapped(x):
                seen[name].append(np.array(x, dtype=float))
                return real(x)
            return wrapped

        monkeypatch.setattr(transition, "std_normal_cdf",
                            recording("cdf", transition.std_normal_cdf))
        monkeypatch.setattr(transition, "std_normal_inv_cdf",
                            recording("inv", transition.std_normal_inv_cdf))
        tm = ts.TransitionMatrix(probs)
        z = np.array([-2.5, -1.0, 0.75, 3.0])
        rows = kernel_rows(tm, 0.2, z)
        values = sorted(set().union(*inner_tails(probs)))
        assert values == [0.0625, 0.125, 0.25, 0.5, 0.75, 0.875, 0.9375]
        (inv,), (cdf,) = seen["inv"], seen["cdf"]
        assert inv.tolist() == values
        assert cdf.shape == (z.size, len(values))
        assert all(np.unique(x).size == len(values) for x in cdf)
        assert np.isfinite(inv).all() and np.isfinite(cdf).all()
        assert_same_bits(rows, oracles.stressed_rows_dense(probs, 0.2, z))

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
        monkeypatch.setattr(ts.cli, "_stress", lambda args: (
            np.array(z, dtype=float), args.rho, "--rho"))
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
