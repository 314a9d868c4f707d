"""Run the full validation workflow on the bundled 8-grade data set.

Solves for the TTC portfolio, projects each bundled book 50 periods with no
stress, writes path CSVs and SVG charts to out/, and prints the verdicts.

Usage: python scripts/run_bundled_examples.py [out_dir]
"""
from __future__ import annotations

import sys
from pathlib import Path

import ttcstress as ts

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
BOOKS = ("midgrade", "barbell", "speculative_tilt", "seasoned")


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    tm = ts.parse_matrix_csv((DATA / "transition_matrix.csv").read_text())
    orig = ts.parse_vector_csv((DATA / "origination.csv").read_text(),
                               "origination")

    result = ts.solve_ttc(tm, orig)
    print("TTC portfolio:",
          "(" + ", ".join(f"{w:.4f}" for w in result.w_ttc.weights) + ")")
    print(f"TTC PD {result.ttc_pd * 100:.3f}% "
          f"(one-step residual {result.final_step_delta:.2e})")
    perron = ts.verify_perron_structure(tm, orig)
    print(f"|lambda_2| = {perron.lambda2:.4f} "
          f"(spectral checks passed: {perron.passed})")
    print()

    for name in BOOKS:
        book = ts.parse_vector_csv(
            (DATA / f"portfolio_{name}.csv").read_text(), "portfolio")
        report = ts.run_validation(book, tm, orig, horizon=50)
        s = report.spurious
        print(f"{name:17s} PD {report.divergence.current_pd * 100:6.3f}%  "
              f"min {s.min_pd * 100:6.3f}% @ t={s.min_period:2d}  "
              f"max {s.max_pd * 100:6.3f}% @ t={s.max_period:2d}  "
              f"-> {report.verdict}")
        (out_dir / f"{name}_path.csv").write_text(
            ts.emit_path_csv(report.path), encoding="utf-8")
        (out_dir / f"{name}_chart.svg").write_text(
            ts.emit_svg_chart(report.path,
                              title=f"Zero-stress projection: {name} book"),
            encoding="utf-8")
    print(f"\nwrote path CSVs and charts to {out_dir}")


if __name__ == "__main__":
    main()
