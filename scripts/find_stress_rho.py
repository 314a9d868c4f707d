"""Back out the asset correlation behind the seasoned example book.

The seasoned portfolio in data/ was built as one propagation step from the
TTC portfolio under the matrix stressed at z = 1, but the correlation used
for that stress is not recorded with the data.  This script recovers it:
a coarse grid narrows the bracket, then ternary bisection refines the
(unimodal) max-component residual.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

import ttcstress as ts

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def main() -> None:
    tm = ts.parse_matrix_csv((DATA / "transition_matrix.csv").read_text())
    orig = ts.parse_vector_csv((DATA / "origination.csv").read_text(),
                               "origination")
    target = ts.parse_vector_csv(
        (DATA / "portfolio_seasoned.csv").read_text(), "portfolio")
    w_ttc = ts.solve_ttc(tm, orig).w_ttc

    def residual(rho: float) -> float:
        stressed = ts.stress_transition_matrix(tm, rho, 1.0)
        after, _ = ts.propagate_step(w_ttc, stressed, orig)
        return float(np.abs(after.weights - target.weights).max())

    grid = np.arange(0.01, 0.99, 0.005)
    values = [residual(r) for r in grid]
    i = int(np.argmin(values))
    print(f"grid best: rho = {grid[i]:.3f}, max residual = {values[i]:.3e}")

    lo = grid[max(0, i - 1)]
    hi = grid[min(len(grid) - 1, i + 1)]
    for _ in range(80):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if residual(m1) <= residual(m2):
            hi = m2
        else:
            lo = m1
    rho = 0.5 * (lo + hi)
    stressed = ts.stress_transition_matrix(tm, rho, 1.0)
    after, _ = ts.propagate_step(w_ttc, stressed, orig)
    print(f"refined:   rho = {rho:.6f}, max residual = {residual(rho):.3e}")
    print("reconstructed book:",
          "(" + ", ".join(f"{w:.4f}" for w in after.weights) + ")")
    print("bundled book:      ",
          "(" + ", ".join(f"{w:.4f}" for w in target.weights) + ")")


if __name__ == "__main__":
    main()
