"""Command-line interface.

A command's input files are rows of the table ``_INPUTS``; ``cli_dispatch``
reads and parses them in table order and hands the records to its handler.

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
                          detect_spurious_dynamics, run_validation)
from .errors import InputError, PrimitivityError
from .io_formats import (emit_matrix_csv, emit_path_csv, fmt, parse_matrix_csv,
                         parse_path_csv, parse_scenario_csv, parse_vector_csv)
from .macro import economy_state_path, fit_macro_model
from .propagation import project_path
from .transition import _check_count, stress_transition_matrix
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


# every input file a command can take: option -> (help text, parse of its
# text); a parse names its function when called, so a rebinding here is seen
_INPUTS = {
    "matrix": ("transition matrix CSV (n x n, default grade last)",
               lambda text: parse_matrix_csv(text)),
    "portfolio": ("portfolio CSV (one row or column of grade weights)",
                  lambda text: parse_vector_csv(text, "portfolio")),
    "origination": ("origination vector CSV (last grade weight must be 0)",
                    lambda text: parse_vector_csv(text, "origination")),
    "path": ("CSV produced by the propagate command",
             lambda text: parse_path_csv(text)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing keeps no state between
    calls, as defaults are immutable and help reads its width when printed."""
    parser = _Parser(
        prog=PROG,
        description="Transition-matrix stress engine with TTC-portfolio "
                    "consistency diagnostics.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name, help_text, handler, *inputs):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, inputs=inputs)
        for key in inputs:
            p.add_argument(f"--{key}", type=Path, required=True,
                           help=_INPUTS[key][0])
        return p

    p = add("validate", "run the full parameterization validation",
            _cmd_validate, "matrix", "portfolio", "origination")
    p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON,
                   help=f"projection periods (default {DEFAULT_HORIZON})")
    _add_common(p, ("csv", "json", "svg"), band=True)

    p = add("ttc", "solve for the TTC portfolio and its PD", _cmd_ttc,
            "matrix", "origination")
    _add_common(p, ("json",))

    p = add("propagate", "project a portfolio over a horizon", _cmd_propagate,
            "matrix", "portfolio", "origination")
    p.add_argument("--z", type=float, default=None,
                   help="constant economy state applied every period "
                        "(default 0: no stress); a nonzero z needs --rho")
    p.add_argument("--scenario", type=Path, default=None,
                   help="scenario CSV; the economy-state path is derived "
                        "from a macro model fitted on it")
    p.add_argument("--rho", type=float, help="asset correlation used when "
                   "stressing: needed with a nonzero --z; with --scenario it "
                   "overrides the fitted one")
    p.add_argument("--lag", type=int, default=None,
                   help="macro model lag when --scenario is used")
    p.add_argument("--horizon", type=int, help="projection periods (default "
                   f"{DEFAULT_HORIZON}, or the whole scenario with --scenario)")
    _add_common(p, ("csv", "json", "svg"), band=True)

    p = add("stress-matrix", "print the matrix conditional on z",
            _cmd_stress_matrix, "matrix")
    p.add_argument("--rho", type=float, required=True, help="asset correlation")
    p.add_argument("--z", type=float, required=True, help="economy state")
    _add_common(p, ("csv",))

    p = add("fit-macro", "fit the probit macro model and calibrate (p, rho)",
            _cmd_fit_macro)
    p.add_argument("--scenario", type=Path, required=True,
                   help="scenario CSV with credit_index and macro columns")
    p.add_argument("--lag", type=int, default=0, help="regressor lag")
    _add_common(p, ("json",))

    p = add("diagnose", "classify an existing projection path CSV",
            _cmd_diagnose, "path")
    _add_common(p, ("json",), band=True)

    return parser


def _add_common(p, kinds, band=False):
    """The options every command shares; ``kinds`` are the file formats the
    command emits, in the order text, csv, json, svg of the help text."""
    if band:
        p.add_argument("--band", type=float, default=DEFAULT_BAND,
                       help="spurious-excursion band relative to the "
                            f"terminal PD (default {DEFAULT_BAND})")
    p.add_argument("--out-dir", type=Path, default=None,
                   help="directory for emitted files (created if missing)")
    p.add_argument("--format", dest="fmt", default=None,
                   choices=("text", *kinds),
                   help="restrict output to one format")


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise InputError("missing-file", f"cannot read {path}: {exc}") from exc


def _emit(args, files, show) -> None:
    """The output policy of every command.

    ``files`` lists each file the command can emit as (kind, name, build),
    where ``build()`` returns the file's text and runs only for a file that
    is written or printed.  ``--format KIND`` builds that one file, prints
    it and writes it under ``--out-dir`` if one is given.  Otherwise (no
    ``--format``, or ``text``) every file is written under ``--out-dir``,
    none is built without one, and ``show()`` prints the text summary.
    """
    out = args.out_dir
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    chosen = None if args.fmt == "text" else args.fmt
    for kind, name, build in files:
        if kind != chosen and (chosen is not None or out is None):
            continue
        text = build()
        if out is not None:
            (out / name).write_text(text, encoding="utf-8", newline="\n")
        if chosen is not None:
            sys.stdout.write(text)
    if chosen is None:
        show()


def _fields(obj, *names) -> dict:
    """The named attributes of ``obj``, numpy arrays written as lists."""
    doc = {name: getattr(obj, name) for name in names}
    return {name: v.tolist() if isinstance(v, np.ndarray) else v
            for name, v in doc.items()}


def _spurious_dict(rep) -> dict:
    return _fields(rep, "classification", "min_pd", "min_period", "max_pd",
                   "max_period", "terminal_pd", "first_crossing", "band",
                   "deviations_non_increasing", "pd_path")


def _ttc_dict(result: TTCResult) -> dict:
    return {"w_ttc": result.w_ttc.weights.tolist(),
            **_fields(result, "ttc_pd", "iterations", "final_step_delta",
                      "spectral_gap_estimate")}


def _validation_dict(report: ValidationReport) -> dict:
    doc = _fields(report, "verdict", "primitive")
    if report.defect is not None:
        return {**doc, "defect": report.defect}
    return {**doc, "ttc": _ttc_dict(report.ttc),
            "divergence": _fields(report.divergence, "differences", "l1",
                                  "linf", "current_pd", "ttc_pd"),
            "spurious": _spurious_dict(report.spurious),
            "perron": _fields(report.perron, "residual", "residual_ok",
                              "lambda2", "lambda2_ok", "root", "passed")}


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _path_files(path, title: str) -> list:
    return [("csv", "path.csv", lambda: emit_path_csv(path)),
            ("svg", "chart.svg", lambda: emit_svg_chart(path, title=title))]


def _pct(x: float) -> str:
    return f"{x * 100:.3f}%"


def _cmd_validate(args, tm, portfolio, origination) -> int:
    report = run_validation(portfolio, tm, origination,
                            horizon=args.horizon, band=args.band)
    files = [("json", "report.json",
              lambda: _json_text(_validation_dict(report)))]
    if report.defect is None:
        files += _path_files(report.path, "Zero-stress projection")
    _emit(args, files, lambda: _print_validation(report))
    if report.exit_code == 2 and args.fmt not in (None, "text"):
        # the summary that names the failure is hidden; exit 2 is not silent
        reason = report.defect or _spectral_check(report.perron)
        sys.stderr.write(f"verdict: {report.verdict}\nreason: {reason}\n")
    return report.exit_code


def _spectral_check(p) -> str:
    return (f"spectral check: fixed-point residual {p.residual:.2e} "
            f"(ok={p.residual_ok}), Perron root {p.root:.7f}, "
            f"|lambda_2| = {p.lambda2:.4f} (ok={p.lambda2_ok})")


def _print_validation(report: ValidationReport) -> None:
    print(_verdict_line(report.verdict))
    if report.defect is not None:
        print(f"primitive performing block: False ({report.defect})")
        return
    print("primitive performing block: True")
    _print_ttc(report.ttc)
    d, s, p = report.divergence, report.spurious, report.perron
    print(f"current PD {_pct(d.current_pd)}, gap to TTC portfolio: "
          f"L1 {d.l1:.4f}, Linf {d.linf:.4f}")
    print(f"zero-stress path: min {_pct(s.min_pd)} at t={s.min_period}, "
          f"max {_pct(s.max_pd)} at t={s.max_period}, "
          f"terminal {_pct(s.terminal_pd)}")
    print(f"classification: {s.classification} "
          f"(band {s.band:.2f} of terminal PD, "
          f"first within band at t={s.first_crossing})")
    print(_spectral_check(p))


def _print_ttc(result: TTCResult) -> None:
    w = ", ".join(f"{x:.4f}" for x in result.w_ttc.weights)
    print(f"TTC portfolio: ({w})")
    print(f"TTC PD {_pct(result.ttc_pd)} (direct solve, one-step "
          f"residual {result.final_step_delta:.2e})")


def _cmd_ttc(args, tm, origination) -> int:
    result = solve_ttc(tm, origination)

    def show():
        _print_ttc(result)
        print(f"|lambda_2| = {result.spectral_gap_estimate:.4f}")

    _emit(args, [("json", "ttc.json", lambda: _json_text(_ttc_dict(result)))],
          show)
    return 0


def _scenario_z_path(args):
    """The scenario of ``--scenario``, the macro model fitted on it at
    ``--lag``, and the z path of its periods with lagged regressors."""
    series, scenario = parse_scenario_csv(_read(args.scenario))
    if series is None:
        raise InputError("missing-column",
                         "scenario file has no credit_index column")
    if scenario is None:
        raise InputError("missing-column",
                         "scenario file has no macro variable columns")
    model = fit_macro_model(series, scenario, lag=args.lag or 0)
    return scenario, model, economy_state_path(model, scenario)


def _stress(args) -> tuple[np.ndarray, float, str]:
    """What a propagate run stresses: the z path of ``--z`` or ``--scenario``
    (cut to a shorter ``--horizon``), the rho that stresses it and its source:
    ``--rho``, else the scenario's fitted rho that defines its z, else 0."""
    if args.scenario is not None and args.z is not None:
        raise InputError("invalid-argument",
                         "--z and --scenario are mutually exclusive")
    if args.horizon is not None:
        _check_count("horizon", args.horizon, 1)
    if args.scenario is None:
        if args.lag is not None:
            raise InputError("invalid-argument",
                             f"--lag {args.lag} needs --scenario: without it "
                             "no macro model is fitted")
        if args.z and args.rho is None:
            raise InputError("invalid-argument",
                             f"--z {fmt(args.z)} needs --rho: without it "
                             "no period is stressed")
        z = np.full(args.horizon or DEFAULT_HORIZON,
                    0.0 if args.z is None else args.z)
        rho, source = 0.0, "default"
    else:
        _, model, z = _scenario_z_path(args)
        if args.horizon is not None and args.horizon > z.size:
            raise InputError("invalid-argument",
                             f"--horizon {args.horizon} is longer than the "
                             f"scenario's z path of {z.size} periods")
        z, rho, source = z[:args.horizon], model.rho, "fitted on the scenario"
    if args.rho is not None:
        return z, args.rho, "--rho"
    return z, rho, source


def _cmd_propagate(args, tm, portfolio, origination) -> int:
    z_path, rho, rho_source = _stress(args)
    path = project_path(portfolio, tm, origination, rho=rho, z_path=z_path)
    stressed = np.count_nonzero(z_path) if rho > 0.0 else 0
    if 0 < stressed < z_path.size:
        sys.stderr.write(f"{PROG}: warning: z = 0 means no stress, and the z "
                         "path mixes it with stressed periods; the stressed "
                         "matrix does not tend to the input one as z -> 0\n")
    s = detect_spurious_dynamics(path, band=args.band)

    def show():
        print(f"projected {path.periods} periods, initial PD "
              f"{_pct(path.initial_pd)}, terminal PD {_pct(s.terminal_pd)}")
        if stressed:
            print(f"stressed at rho = {fmt(rho)} ({rho_source})")
        print(f"min {_pct(s.min_pd)} at t={s.min_period}, "
              f"max {_pct(s.max_pd)} at t={s.max_period}")
        print(f"classification: {s.classification}")
        if args.out_dir is not None:
            print(f"wrote path.csv, chart.svg, path.json to {args.out_dir}")

    _emit(args, _path_files(path, "Average PD projection")
          + [("json", "path.json", lambda: _json_text(
              {**_spurious_dict(s), "rho": rho, "rho_source": rho_source}))],
          show)
    return 1 if s.spurious else 0


def _cmd_stress_matrix(args, tm) -> int:
    text = emit_matrix_csv(stress_transition_matrix(tm, args.rho, args.z))
    _emit(args, [("csv", "stressed_matrix.csv", lambda: text)],
          lambda: sys.stdout.write(text))
    return 0


def _cmd_fit_macro(args) -> int:
    scenario, model, z = _scenario_z_path(args)

    def show():
        names = ("intercept",) + scenario.names
        for name, beta in zip(names, model.betas):
            print(f"beta[{name}] = {fmt(beta)}")
        print(f"lag = {model.lag}, R^2 = {model.r_squared:.6f}")
        print(f"p = {fmt(model.p)}, rho = {fmt(model.rho)}")
        print("z path: " + ", ".join(f"{v:.4f}" for v in z))

    _emit(args, [("json", "macro_model.json", lambda: _json_text({
        **_fields(model, "betas", "lag", "p", "rho", "r_squared",
                  "residual_variance"), "z_path": z.tolist()}))], show)
    return 0


def _cmd_diagnose(args, path) -> int:
    report = detect_spurious_dynamics(path, band=args.band)

    def show():
        print(f"classification: {report.classification}")
        print(f"min {_pct(report.min_pd)} at t={report.min_period}, "
              f"max {_pct(report.max_pd)} at t={report.max_period}, "
              f"terminal {_pct(report.terminal_pd)}")

    _emit(args, [("json", "diagnosis.json",
                  lambda: _json_text(_spurious_dict(report)))], show)
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
        return args.handler(args, *(
            parse(_read(getattr(args, key)))
            for key, (_, parse) in _INPUTS.items() if key in args.inputs))
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
