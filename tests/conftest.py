import importlib.util
from pathlib import Path

import numpy as np
import pytest

import ttcstress as ts

DATA = Path(__file__).resolve().parent.parent / "data"

# Published 8-grade reference values (rounded to four decimals in the source
# data set).
TTC_PORTFOLIO_PUBLISHED = np.array(
    [0.0183, 0.1423, 0.3379, 0.2633, 0.1321, 0.0911, 0.0150, 0.0])
TTC_PD_PUBLISHED = 0.01198
AVG_PD_PUBLISHED = {
    "midgrade": 0.01161,
    "barbell": 0.02725,
    "speculative_tilt": 0.0183,
    "seasoned": 0.01093,
}

# the file of each kind that each CLI command emits: --format KIND writes
# that one file, no --format (or text) writes them all, and a kind the
# command does not emit is a usage error that writes nothing
CLI_FILES = {"validate": {"json": "report.json", "csv": "path.csv",
                          "svg": "chart.svg"},
             "propagate": {"csv": "path.csv", "svg": "chart.svg",
                           "json": "path.json"},
             "ttc": {"json": "ttc.json"},
             "stress-matrix": {"csv": "stressed_matrix.csv"},
             "fit-macro": {"json": "macro_model.json"},
             "diagnose": {"json": "diagnosis.json"}}


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def matrix8() -> ts.TransitionMatrix:
    return ts.parse_matrix_csv((DATA / "transition_matrix.csv").read_text())


@pytest.fixture(scope="session")
def origination8() -> ts.OriginationVector:
    return ts.parse_vector_csv((DATA / "origination.csv").read_text(),
                               "origination")


@pytest.fixture(scope="session")
def portfolios() -> dict[str, ts.Portfolio]:
    return {
        name: ts.parse_vector_csv(
            (DATA / f"portfolio_{name}.csv").read_text(), "portfolio")
        for name in AVG_PD_PUBLISHED
    }


@pytest.fixture(scope="session")
def ttc8(matrix8, origination8) -> ts.TTCResult:
    return ts.solve_ttc_iterative(matrix8, origination8)


def counterexample_matrix() -> ts.TransitionMatrix:
    """3-grade permutation system whose performing block is not primitive."""
    return ts.validate_transition_matrix(
        [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def random_system(rng: np.random.Generator,
                  n: int) -> tuple[ts.TransitionMatrix, ts.OriginationVector]:
    """Random system with a strictly positive (hence primitive) performing block."""
    block = rng.random((n - 1, n - 1)) + 0.05
    default = rng.random(n - 1) * 0.2
    rows = np.column_stack([block, default])
    rows /= rows.sum(axis=1, keepdims=True)
    probs = np.zeros((n, n))
    probs[:-1] = rows
    probs[-1, -1] = 1.0
    o = rng.random(n)
    o[-1] = 0.0
    o /= o.sum()
    return ts.TransitionMatrix(probs), ts.OriginationVector(o)


def random_portfolio(rng: np.random.Generator, n: int,
                     performing_only: bool = True) -> ts.Portfolio:
    w = rng.random(n)
    if performing_only:
        w[-1] = 0.0
    w /= w.sum()
    return ts.Portfolio(w)


def bench_systems():
    """The benchmark's seeded system generator, loaded from its file."""
    path = DATA.parent / "bench" / "systems.py"
    spec = importlib.util.spec_from_file_location("bench_systems", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
