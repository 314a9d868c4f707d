"""Independent oracles kept out of the package."""
from __future__ import annotations

import numpy as np

from ttcstress import charts as c
from ttcstress.errors import InputError
from ttcstress.normal import std_normal_cdf, std_normal_inv_cdf


def wielandt_exponent(m: int) -> int:
    return m * m - 2 * m + 2


def pattern_power(pattern: np.ndarray, exponent: int) -> np.ndarray:
    """Boolean matrix power by squaring (reachability in exactly k steps)."""
    acc = None
    base = pattern.astype(np.int64)
    e = exponent
    while e:
        if e & 1:
            acc = base.copy() if acc is None else ((acc @ base) > 0).astype(np.int64)
        base = ((base @ base) > 0).astype(np.int64)
        e >>= 1
    return acc > 0


def primitive_by_powers(adj: np.ndarray) -> bool:
    """Wielandt's bound: the graph with the m x m boolean adjacency ``adj``
    is primitive if and only if its power A^((m - 1)^2 + 1) is entrywise
    positive."""
    return bool(pattern_power(adj, wielandt_exponent(adj.shape[0])).all())


def stressed_rows_dense(probs: np.ndarray, rho: float,
                        z: np.ndarray) -> np.ndarray:
    """The stressed performing rows at each state of ``z``, shape
    (m, n-1, n), with Phi^-1 and Phi evaluated on every cumulative tail,
    repeated or not."""
    n = probs.shape[0]
    tails = np.cumsum(probs[:-1, ::-1], axis=1)[:, ::-1]
    q = std_normal_inv_cdf(np.clip(tails[:, 1:], 0.0, 1.0))
    shift = np.sqrt(rho) * z[:, None, None]
    scale = np.sqrt(1.0 - rho)
    stressed = np.empty((z.size, n - 1, n + 1))
    stressed[:, :, 0] = 1.0
    stressed[:, :, n] = 0.0
    stressed[:, :, 1:n] = std_normal_cdf((q - shift) / scale)
    rows = stressed[:, :, :-1] - stressed[:, :, 1:]
    if (rows < -1e-12).any():
        raise InputError("invalid-argument",
                         "stress transform produced a negative probability")
    rows[rows < 0.0] = 0.0
    rows /= rows.sum(axis=2, keepdims=True)
    return rows


def path_csv_per_element(path) -> str:
    """``emit_path_csv`` formatting one numpy scalar at a time."""
    n = path.initial.n
    lines = [",".join(("period", "z", "avg_pd", "default_flow")
                      + tuple(f"w_{i + 1}" for i in range(n))),
             ",".join(["0", "0.0", repr(float(path.initial_pd)), "0.0",
                       *(repr(float(w)) for w in path.initial.weights)])]
    for t in range(path.periods):
        cells = [str(t + 1), repr(float(path.z[t])),
                 repr(float(path.avg_pds[t])),
                 repr(float(path.default_flows[t]))]
        cells.extend(repr(float(w)) for w in path.portfolios[t])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def matrix_csv_per_element(probs) -> str:
    """``emit_matrix_csv`` formatting one numpy scalar at a time."""
    return "\n".join(",".join(repr(float(x)) for x in row)
                     for row in probs) + "\n"


def svg_polyline_numpy(path) -> str:
    """The points of ``emit_svg_chart``'s polyline, scaled and formatted
    from numpy scalars."""
    pds = path.pd_series()
    periods = np.arange(pds.size)
    pct = pds * 100.0
    lo, hi = float(pct.min()), float(pct.max())
    pad = (max(abs(hi) * 0.05, 1e-6) if hi - lo < 1e-12
           else (hi - lo) * 0.08)
    lo, hi = lo - pad, hi + pad
    plot_w = c._WIDTH - c._MARGIN_LEFT - c._MARGIN_RIGHT
    plot_h = c._HEIGHT - c._MARGIN_TOP - c._MARGIN_BOTTOM
    x_span = max(float(periods[-1]), 1.0)
    return " ".join(
        f"{c._MARGIN_LEFT + plot_w * (t / x_span):.2f},"
        f"{c._MARGIN_TOP + plot_h * (1.0 - (v - lo) / (hi - lo)):.2f}"
        for t, v in zip(periods, pct))
