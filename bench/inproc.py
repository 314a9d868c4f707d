"""The in-process workloads, validate-21 and stress-fan, with their oracles.

Op i runs input i mod (number of inputs), so each input recurs many times
in a run; its arrays and the package's value objects are built anew before
every op, outside the timed region, so no op sees an object an earlier op
saw.  Each oracle is computed by the benchmark from the same raw
arrays it gave the program, with plain numpy and scipy.special called
directly, after the op and outside the timed region.
"""
from __future__ import annotations

import csv
import resource
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.special import ndtr, ndtri

import systems
import ttcstress as ts

HORIZON = 50
SYSTEMS = 8           # few, so each recurs ~300 times in a 30 s run and even
                      # brief spells of the machine's fast mode give it its best
POOL = 64             # systems drawn per seed; SYSTEMS of them are taken at
                      # evenly spaced lambda_2 quantiles, so the solver work of
                      # the set hardly moves with the seed
FAN_SCENARIOS = 16
TRACE_OPS = 32
FAN_PERIODS = 40
FAN_LAG = 1
FAN_RHO = 0.2
WARMUP_OPS = 8
TTC_TOL = 1e-8        # max abs weight error; iterative solver converges to ~1e-10
PD_TOL = 1e-12        # max abs PD error of a zero-stress path
STRESS_TOL = 1e-10    # max abs error of stressed weights, flows and z values
MASS_TOL = 1e-12


def oracle_ttc(probs: np.ndarray, orig: np.ndarray) -> np.ndarray:
    """Unit eigenvector of M_p from np.linalg.eig, normalised to mass one."""
    vals, vecs = np.linalg.eig(systems.m_p(probs, orig))
    v = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    out = np.zeros(probs.shape[0])
    out[:-1] = v / v.sum()
    return out


def stressed(probs: np.ndarray, rho: float, z: float) -> np.ndarray:
    """One-factor stressed matrix from ndtr/ndtri on the cumulative tails."""
    if z == 0.0:
        return probs
    tails = np.cumsum(probs[:-1, ::-1], axis=1)[:, ::-1]
    cdf = np.ones((probs.shape[0] - 1, probs.shape[0] + 1))
    cdf[:, -1] = 0.0
    cdf[:, 1:-1] = ndtr((ndtri(np.clip(tails[:, 1:], 0.0, 1.0))
                         - np.sqrt(rho) * z) / np.sqrt(1.0 - rho))
    rows = np.maximum(cdf[:, :-1] - cdf[:, 1:], 0.0)
    out = np.zeros_like(probs)
    out[:-1] = rows / rows.sum(axis=1, keepdims=True)
    out[-1, -1] = 1.0
    return out


def oracle_path(probs, orig, book, rho, z_path):
    """(portfolios, default flows, PDs incl. period 0) by plain matrix products."""
    w = book
    states, flows, pds = [], [], [w @ probs[:, -1]]
    for z in z_path:
        moved = w @ stressed(probs, rho, z)
        flows.append(moved[-1])
        w = moved.copy()
        w[-1] = 0.0
        w += moved[-1] * orig
        states.append(w)
        pds.append(w @ probs[:, -1])
    return np.array(states), np.array(flows), np.array(pds)


def _max_err(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return float("inf")
    return float(np.nan_to_num(np.abs(got - want), nan=np.inf).max())


def check_mass(portfolios) -> str | None:
    """Every projected portfolio is non-negative, has mass one and no default."""
    arr = np.asarray(portfolios)
    if (arr < 0.0).any():
        return "negative portfolio weight"
    if np.abs(arr.sum(axis=1) - 1.0).max() > MASS_TOL:
        return "projected portfolio does not conserve mass"
    if (arr[:, -1] != 0.0).any():
        return "defaulted balance not written off"
    return None


class _InProcess:
    """The program runs in this process: nothing to clean up."""

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> None:
        pass


class Validate21(_InProcess):
    """run_validation(horizon=50) over SYSTEMS seeded 21-grade systems,
    which take the four book shapes in turn."""

    inputs, trace_ops = SYSTEMS, TRACE_OPS

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        rng = np.random.default_rng(seed)
        pool = [systems.rating_system(rng) for _ in range(POOL)]
        pool.sort(key=lambda s: systems.lambda2(systems.m_p(*s)))
        step = POOL // SYSTEMS
        self.systems = pool[step // 2::step]
        self.lambda2, self.zeros = [], []
        self.iterations: dict = {}
        self.verdicts: Counter = Counter()
        for i in range(WARMUP_OPS):
            self.before(i)
            self.op(i)

    def before(self, i: int) -> None:
        """Build op i's system and book; a seasoned book needs the TTC mix."""
        k = i % SYSTEMS
        probs, orig = (a.copy() for a in self.systems[k])
        rng = np.random.default_rng((self.seed, k))
        shape = systems.BOOK_SHAPES[k % len(systems.BOOK_SHAPES)]
        ttc = oracle_ttc(probs, orig) if shape == "seasoned" else None
        book = systems.book(rng, shape, ttc=ttc)
        self.case = (i, probs, orig, book, ttc, ts.TransitionMatrix(probs),
                     ts.OriginationVector(orig), ts.Portfolio(book))

    def op(self, i: int):
        *_, tm, ov, book = self.case
        return ts.run_validation(book, tm, ov, horizon=HORIZON)

    def check(self, i: int, report) -> str | None:
        k, probs, orig, book, ttc, *_ = self.case
        assert k == i, "check of another op's input"
        self.lambda2.append(systems.check_system(probs, orig))
        self.zeros.append(systems.zero_share(probs))
        self.verdicts[report.verdict] += 1
        if not report.verdict.startswith(("pass", "warn")):
            return f"unexpected verdict {report.verdict!r}"
        self.iterations[i % SYSTEMS] = report.ttc.iterations
        if ttc is None:
            ttc = oracle_ttc(probs, orig)
        err = _max_err(report.ttc.w_ttc.weights, ttc)
        if not err <= TTC_TOL:
            return f"TTC weights off the eigenvector oracle by {err:.3e}"
        pds = oracle_path(probs, orig, book, 0.0, np.zeros(HORIZON))[2]
        err = _max_err(report.path.pd_series(), pds)
        if not err <= PD_TOL:
            return f"zero-stress PD path off the oracle by {err:.3e}"
        return check_mass(report.path.portfolios)

    def facts(self) -> dict:
        total = sum(self.verdicts.values()) or 1
        its = list(self.iterations.values())
        return {
            "n": systems.N_GRADES, "systems": len(its),
            "lambda2_range": [min(self.lambda2, default=None),
                              max(self.lambda2, default=None)],
            "zero_share_range": [min(self.zeros, default=None),
                                 max(self.zeros, default=None)],
            "ttc_iterations": {"per_round": sum(its),
                               "per_op": [min(its, default=None),
                                          max(its, default=None)]},
            "verdict_share": {v: c / total for v, c in sorted(self.verdicts.items())},
        }


def _scenario_columns(root: Path) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(credit index, macro history, macro names) read with the csv module."""
    with open(root / "data" / "scenario.csv", newline="") as fh:
        header, *rows = [r for r in csv.reader(fh) if r]
    data = np.array([[float(c) for c in r[1:]] for r in rows])
    names = tuple(header[1:])
    k = names.index("credit_index")
    return data[:, k], np.delete(data, k, axis=1), names[:k] + names[k + 1:]


class StressFan(_InProcess):
    """Macro-scenario fan: one of FAN_SCENARIOS seeded scenarios per op, its
    z path from the fitted macro model, the stressed projection of one
    21-grade system at rho = 0.2 and the path classification."""

    inputs, trace_ops = FAN_SCENARIOS, TRACE_OPS

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        series, scenario = ts.parse_scenario_csv(
            (root / "data" / "scenario.csv").read_text())
        self.model = ts.fit_macro_model(series, scenario, lag=FAN_LAG)
        self.credit, self.history, self.names = _scenario_columns(root)
        rng = np.random.default_rng(seed)
        probs, orig = systems.rating_system(rng)
        self.raw = (probs, orig, systems.book(rng, "midgrade"))
        self.tm = ts.TransitionMatrix(probs)
        self.orig = ts.OriginationVector(orig)
        self.book = ts.Portfolio(self.raw[2])
        self.lambda2 = self._model_error = None
        self.classes: Counter = Counter()
        for i in range(WARMUP_OPS):
            self.before(i)
            self.op(i)

    def before(self, i: int) -> None:
        rng = np.random.default_rng((self.seed, i % FAN_SCENARIOS))
        self.case = (i, systems.macro_scenario(rng, self.history, FAN_PERIODS))

    def op(self, i: int):
        scenario = ts.MacroScenario(values=self.case[1], names=self.names)
        z = ts.economy_state_path(self.model, scenario)
        path = ts.project_path(self.book, self.tm, self.orig, rho=FAN_RHO, z_path=z)
        return z, path, ts.detect_spurious_dynamics(path)

    def _check_model(self) -> str | None:
        """The fitted model against least squares and moments on ndtri directly."""
        credit, history = self.credit, self.history
        probits = ndtri(credit)
        x = np.column_stack([np.ones(credit.size - FAN_LAG),
                             history[:credit.size - FAN_LAG]])
        betas = np.linalg.lstsq(x, probits[FAN_LAG:], rcond=None)[0]
        var = probits.var(ddof=1)
        rho = var / (1.0 + var)
        p = ndtr(probits.mean() * np.sqrt(1.0 - rho))
        if _max_err(self.model.betas, betas) > 1e-8 or _max_err(
                [self.model.p, self.model.rho], [p, rho]) > 1e-12:
            return "fitted macro model disagrees with the oracle"
        return None

    def check(self, i: int, result) -> str | None:
        k, values = self.case
        assert k == i, "check of another op's input"
        if self.lambda2 is None:  # the set-up's own checks, once
            self.lambda2 = systems.check_system(*self.raw[:2])
            self._model_error = self._check_model()
        if self._model_error:
            return self._model_error
        z, path, report = result
        m = self.model
        x = values[:FAN_PERIODS - FAN_LAG]
        z_want = ((ndtri(m.p) - np.sqrt(1.0 - m.rho) * (m.betas[0] + x @ m.betas[1:]))
                  / np.sqrt(m.rho))
        states, flows, pds = oracle_path(*self.raw, FAN_RHO, z_want)
        self.classes[report.classification] += 1
        for what, got, want in (("z path", z, z_want),
                                ("stressed portfolios", path.portfolios, states),
                                ("default flows", path.default_flows, flows),
                                ("PD path", path.pd_series(), pds),
                                ("classified PD path", report.pd_path, pds)):
            err = _max_err(got, want)
            if not err <= STRESS_TOL:
                return f"{what} off the ndtr/ndtri oracle by {err:.3e}"
        return check_mass(path.portfolios)

    def facts(self) -> dict:
        total = sum(self.classes.values()) or 1
        return {
            "n": systems.N_GRADES, "scenarios": FAN_SCENARIOS,
            "periods_per_path": FAN_PERIODS - FAN_LAG, "rho": FAN_RHO,
            "lambda2": self.lambda2,
            "classification_share": {c: k / total
                                     for c, k in sorted(self.classes.items())},
        }
