"""Command-line interface.

Exit codes: 0 clean pass, 1 validation warning (spurious dynamics flagged),
2 model-condition failure (no unique TTC portfolio), 3 input or usage error.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .charts import emit_svg_chart
from .diagnostics import (DEFAULT_BAND, DEFAULT_HORIZON, ValidationReport,
                          classify_pd_path, detect_spurious_dynamics,
                          run_validation)
from .errors import InputError, PrimitivityError
from .io_formats import (emit_matrix_csv, emit_path_csv, fmt, parse_matrix_csv,
                         parse_path_csv, parse_scenario_csv, parse_vector_csv)
from .macro import economy_state_path, fit_macro_model
from .propagation import project_path
from .transition import stress_transition_matrix
from .ttc import TTCResult, solve_ttc

PROG = "ttcstress"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _verdict_line(verdict: str) -> str:
    if not _use_color():
        return f"verdict: {verdict}"
    color = "32" if verdict == "pass" else "33" if verdict.startswith("warn") else "31"
    return f"verdict: \x1b[{color}m{verdict}\x1b[0m"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing keeps no state between
    calls, as defaults are immutable and help reads its width when printed."""
    parser = _Parser(
        prog=PROG,
        description="Transition-matrix stress engine with TTC-portfolio "
                    "consistency diagnostics.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name, help_text, handler):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("validate", "run the full parameterization validation", _cmd_validate)
    _add_matrix(p)
    _add_portfolio(p)
    _add_origination(p)
    _add_common(p, horizon=True, band=True)

    p = add("ttc", "solve for the TTC portfolio and its PD", _cmd_ttc)
    _add_matrix(p)
    _add_origination(p)
    _add_common(p)

    p = add("propagate", "project a portfolio over a horizon", _cmd_propagate)
    _add_matrix(p)
    _add_portfolio(p)
    _add_origination(p)
    p.add_argument("--z", type=float, default=None,
                   help="constant economy state applied every period "
                        "(default 0: no stress)")
    p.add_argument("--scenario", type=Path, default=None,
                   help="scenario CSV; the economy-state path is derived "
                        "from a macro model fitted on it")
    p.add_argument("--rho", type=float, default=0.0,
                   help="asset correlation used when stressing (default 0)")
    p.add_argument("--lag", type=int, default=0,
                   help="macro model lag when --scenario is used")
    _add_common(p, horizon=True, band=True)

    p = add("stress-matrix", "print the matrix conditional on z", _cmd_stress_matrix)
    _add_matrix(p)
    p.add_argument("--rho", type=float, required=True, help="asset correlation")
    p.add_argument("--z", type=float, required=True, help="economy state")
    _add_common(p)

    p = add("fit-macro", "fit the probit macro model and calibrate (p, rho)",
            _cmd_fit_macro)
    p.add_argument("--scenario", type=Path, required=True,
                   help="scenario CSV with credit_index and macro columns")
    p.add_argument("--lag", type=int, default=0, help="regressor lag")
    _add_common(p)

    p = add("diagnose", "classify an existing projection path CSV", _cmd_diagnose)
    p.add_argument("--path", type=Path, required=True,
                   help="CSV produced by the propagate command")
    p.add_argument("--band", type=float, default=DEFAULT_BAND,
                   help="spurious-excursion band relative to the terminal PD")
    _add_common(p)

    return parser


def _add_matrix(p):
    p.add_argument("--matrix", type=Path, required=True,
                   help="transition matrix CSV (n x n, default grade last)")


def _add_portfolio(p):
    p.add_argument("--portfolio", type=Path, required=True,
                   help="portfolio CSV (one row or column of grade weights)")


def _add_origination(p):
    p.add_argument("--origination", type=Path, required=True,
                   help="origination vector CSV (last grade weight must be 0)")


def _add_common(p, horizon=False, band=False):
    if horizon:
        p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON,
                       help=f"projection periods (default {DEFAULT_HORIZON})")
    if band:
        p.add_argument("--band", type=float, default=DEFAULT_BAND,
                       help="spurious-excursion band relative to the "
                            f"terminal PD (default {DEFAULT_BAND})")
    p.add_argument("--out-dir", type=Path, default=None,
                   help="directory for emitted files (created if missing)")
    p.add_argument("--format", dest="fmt", default=None,
                   choices=("text", "csv", "json", "svg"),
                   help="restrict output to one format")


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError("missing-file", f"cannot read {path}: {exc}") from exc


def _out_dir(args) -> Path | None:
    if args.out_dir is None:
        return None
    args.out_dir.mkdir(parents=True, exist_ok=True)
    return args.out_dir


def _write(directory: Path, name: str, content: str) -> Path:
    target = directory / name
    with open(target, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)
    return target


def _spurious_dict(rep) -> dict:
    return {
        "classification": rep.classification,
        "min_pd": rep.min_pd,
        "min_period": rep.min_period,
        "max_pd": rep.max_pd,
        "max_period": rep.max_period,
        "terminal_pd": rep.terminal_pd,
        "first_crossing": rep.first_crossing,
        "band": rep.band,
        "deviations_non_increasing": rep.deviations_non_increasing,
        "pd_path": [float(v) for v in rep.pd_path],
    }


def _ttc_dict(result: TTCResult) -> dict:
    return {
        "w_ttc": [float(w) for w in result.w_ttc.weights],
        "ttc_pd": result.ttc_pd,
        "iterations": result.iterations,
        "final_step_delta": result.final_step_delta,
        "spectral_gap_estimate": result.spectral_gap_estimate,
    }


def _validation_dict(report: ValidationReport) -> dict:
    doc = {"verdict": report.verdict, "primitive": report.primitive}
    if report.ttc is not None:
        doc["ttc"] = _ttc_dict(report.ttc)
    if report.divergence is not None:
        doc["divergence"] = {
            "differences": [float(d) for d in report.divergence.differences],
            "l1": report.divergence.l1,
            "linf": report.divergence.linf,
            "current_pd": report.divergence.current_pd,
            "ttc_pd": report.divergence.ttc_pd,
        }
    if report.spurious is not None:
        doc["spurious"] = _spurious_dict(report.spurious)
    if report.perron is not None:
        doc["perron"] = {
            "column_sums": [float(s) for s in report.perron.column_sums],
            "column_sums_ok": report.perron.column_sums_ok,
            "residual": report.perron.residual,
            "residual_ok": report.perron.residual_ok,
            "lambda2": report.perron.lambda2,
            "lambda2_ok": report.perron.lambda2_ok,
            "passed": report.perron.passed,
        }
    return doc


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _pct(x: float) -> str:
    return f"{x * 100:.3f}%"


def _cmd_validate(args) -> int:
    tm = parse_matrix_csv(_read(args.matrix))
    portfolio = parse_vector_csv(_read(args.portfolio), "portfolio")
    origination = parse_vector_csv(_read(args.origination), "origination")
    report = run_validation(portfolio, tm, origination,
                            horizon=args.horizon, band=args.band)
    doc = _validation_dict(report)
    out = _out_dir(args)
    if out is not None:
        _write(out, "report.json", _json_text(doc))
        if report.path is not None:
            _write(out, "path.csv", emit_path_csv(report.path))
            _write(out, "chart.svg",
                   emit_svg_chart(report.path, title="Zero-stress projection"))
    if args.fmt == "json":
        sys.stdout.write(_json_text(doc))
    else:
        _print_validation(report)
    return report.exit_code


def _print_validation(report: ValidationReport) -> None:
    print(_verdict_line(report.verdict))
    print(f"primitive performing block: {report.primitive}")
    if report.ttc is not None:
        _print_ttc(report.ttc)
    if report.divergence is not None:
        print(f"current PD {_pct(report.divergence.current_pd)}, "
              f"gap to TTC portfolio: L1 {report.divergence.l1:.4f}, "
              f"Linf {report.divergence.linf:.4f}")
    if report.spurious is not None:
        s = report.spurious
        print(f"zero-stress path: min {_pct(s.min_pd)} at t={s.min_period}, "
              f"max {_pct(s.max_pd)} at t={s.max_period}, "
              f"terminal {_pct(s.terminal_pd)}")
        print(f"classification: {s.classification} "
              f"(band {s.band:.2f} of terminal PD, "
              f"settles within band at t={s.first_crossing})")
    if report.perron is not None:
        p = report.perron
        print(f"spectral check: column sums ok={p.column_sums_ok}, "
              f"fixed-point residual {p.residual:.2e} (ok={p.residual_ok}), "
              f"|lambda_2| = {p.lambda2:.4f} (ok={p.lambda2_ok})")


def _print_ttc(result: TTCResult) -> None:
    w = ", ".join(f"{x:.4f}" for x in result.w_ttc.weights)
    print(f"TTC portfolio: ({w})")
    print(f"TTC PD {_pct(result.ttc_pd)} (direct solve, one-step "
          f"residual {result.final_step_delta:.2e})")


def _cmd_ttc(args) -> int:
    tm = parse_matrix_csv(_read(args.matrix))
    origination = parse_vector_csv(_read(args.origination), "origination")
    result = solve_ttc(tm, origination)
    doc = _ttc_dict(result)
    out = _out_dir(args)
    if out is not None:
        _write(out, "ttc.json", _json_text(doc))
    if args.fmt == "json":
        sys.stdout.write(_json_text(doc))
    else:
        _print_ttc(result)
        print(f"|lambda_2| = {result.spectral_gap_estimate:.4f}")
    return 0


def _build_z_path(args, tm) -> np.ndarray:
    if args.scenario is not None and args.z is not None:
        raise InputError("invalid-argument",
                         "--z and --scenario are mutually exclusive")
    if args.scenario is not None:
        series, scenario = parse_scenario_csv(_read(args.scenario))
        if series is None or scenario is None:
            raise InputError("missing-column",
                             "scenario-driven propagation needs both a "
                             "credit_index column and macro columns")
        model = fit_macro_model(series, scenario, lag=args.lag)
        z = economy_state_path(model, scenario)
        if z.size == 0:
            raise InputError("too-short", "scenario has no usable periods")
        return z[:args.horizon] if args.horizon < z.size else z
    if args.z is not None:
        return np.full(args.horizon, float(args.z))
    return np.zeros(args.horizon)


def _cmd_propagate(args) -> int:
    tm = parse_matrix_csv(_read(args.matrix))
    portfolio = parse_vector_csv(_read(args.portfolio), "portfolio")
    origination = parse_vector_csv(_read(args.origination), "origination")
    if args.horizon < 1:
        raise InputError("invalid-argument", "horizon must be >= 1")
    z_path = _build_z_path(args, tm)
    path = project_path(portfolio, tm, origination, rho=args.rho, z_path=z_path)
    if args.rho > 0.0 and 0 < np.count_nonzero(z_path) < z_path.size:
        sys.stderr.write(f"{PROG}: warning: z = 0 means no stress, and the z "
                         "path mixes it with stressed periods; the stressed "
                         "matrix does not tend to the input one as z -> 0\n")
    report = detect_spurious_dynamics(path, band=args.band)
    out = _out_dir(args)
    chosen = None if args.fmt == "text" else args.fmt
    # build only what is written or printed: the one format asked for, or
    # every file when --out-dir is given without one
    for kind, name in (("csv", "path.csv"), ("svg", "chart.svg"),
                       ("json", "path.json")):
        if chosen not in (None, kind) or (chosen is None and out is None):
            continue
        text = (emit_path_csv(path) if kind == "csv" else
                emit_svg_chart(path, title="Average PD projection")
                if kind == "svg" else _json_text(_spurious_dict(report)))
        if out is not None:
            _write(out, name, text)
        if chosen is not None:
            sys.stdout.write(text)
    if chosen is None:
        s = report
        print(f"projected {path.periods} periods, initial PD "
              f"{_pct(path.initial_pd)}, terminal PD {_pct(s.terminal_pd)}")
        print(f"min {_pct(s.min_pd)} at t={s.min_period}, "
              f"max {_pct(s.max_pd)} at t={s.max_period}")
        print(f"classification: {s.classification}")
        if out is not None:
            print(f"wrote path.csv, chart.svg, path.json to {out}")
    return 1 if report.spurious else 0


def _cmd_stress_matrix(args) -> int:
    tm = parse_matrix_csv(_read(args.matrix))
    stressed = stress_transition_matrix(tm, args.rho, args.z)
    text = emit_matrix_csv(stressed)
    out = _out_dir(args)
    if out is not None:
        _write(out, "stressed_matrix.csv", text)
    sys.stdout.write(text)
    return 0


def _cmd_fit_macro(args) -> int:
    series, scenario = parse_scenario_csv(_read(args.scenario))
    if series is None:
        raise InputError("missing-column",
                         "scenario file has no credit_index column")
    if scenario is None:
        raise InputError("missing-column",
                         "scenario file has no macro variable columns")
    model = fit_macro_model(series, scenario, lag=args.lag)
    z = economy_state_path(model, scenario)
    doc = {
        "betas": [float(b) for b in model.betas],
        "lag": model.lag,
        "p": model.p,
        "rho": model.rho,
        "r_squared": model.r_squared,
        "residual_variance": model.residual_variance,
        "z_path": [float(v) for v in z],
    }
    out = _out_dir(args)
    if out is not None:
        _write(out, "macro_model.json", _json_text(doc))
    if args.fmt == "json":
        sys.stdout.write(_json_text(doc))
    else:
        names = ("intercept",) + scenario.names
        for name, beta in zip(names, model.betas):
            print(f"beta[{name}] = {fmt(beta)}")
        print(f"lag = {model.lag}, R^2 = {model.r_squared:.6f}")
        print(f"p = {fmt(model.p)}, rho = {fmt(model.rho)}")
        print("z path: " + ", ".join(f"{v:.4f}" for v in z))
    return 0


def _cmd_diagnose(args) -> int:
    table = parse_path_csv(_read(args.path))
    report = classify_pd_path(table.avg_pds, band=args.band,
                              period_labels=table.periods)
    doc = _spurious_dict(report)
    out = _out_dir(args)
    if out is not None:
        _write(out, "diagnosis.json", _json_text(doc))
    if args.fmt == "json":
        sys.stdout.write(_json_text(doc))
    else:
        print(f"classification: {report.classification}")
        print(f"min {_pct(report.min_pd)} at t={report.min_period}, "
              f"max {_pct(report.max_pd)} at t={report.max_period}, "
              f"terminal {_pct(report.terminal_pd)}")
    return 1 if report.spurious else 0


def cli_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"{PROG}: error: {exc}\n")
        sys.stderr.write(parser.format_usage())
        return 3
    except SystemExit as exc:  # --help / --version paths
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    if getattr(args, "handler", None) is None:
        sys.stderr.write(parser.format_usage())
        return 3
    try:
        return args.handler(args)
    except InputError as exc:
        sys.stderr.write(f"{PROG}: input error [{exc.code}]: {exc}\n")
        return 3
    except PrimitivityError as exc:
        sys.stderr.write(f"{PROG}: model condition failed: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"{PROG}: i/o error: {exc}\n")
        return 3


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))
