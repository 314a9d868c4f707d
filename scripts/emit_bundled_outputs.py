"""Write every output the command line gives on the bundled 8-grade data.

Runs each subcommand in one process through ``ttcstress.cli.cli_dispatch``:
`validate` and `propagate` (z = 0, z = -1 at rho = 0.2, and the bundled
scenario) on the four books, plus `ttc`, `stress-matrix`, `fit-macro` and
`diagnose`.  Each of these runs once without options and once per
`--format` (none, text, csv, json, svg) with `--out-dir`, so that the
formats a command does not emit are recorded as the usage errors they are.
The `--help` of the program and of each subcommand and four usage errors
(`--tol` given to `validate` and to `ttc`, `propagate --z -1` without
`--rho`, and `propagate --rho nan`) run too, and last a `diagnose` of the
path that the scenario run of the seasoned book wrote, to compare its
classification and extrema with that run's.  Every call gets a directory
OUT_DIR/<case>/<variant>/ holding its stdout.txt, stderr.txt, exit_code.txt
and, with `--out-dir`, the emitted files under out/.

An A/B byte-identity check of two versions of the package is two runs, one
per version on the import path, and a comparison; `compare_outputs.py`
names the size of each numeric difference that `diff -r` finds:

    PYTHONPATH=A/src python scripts/emit_bundled_outputs.py out_a
    PYTHONPATH=B/src python scripts/emit_bundled_outputs.py out_b
    diff -r out_a out_b
    python scripts/compare_outputs.py out_a out_b

Usage: python scripts/emit_bundled_outputs.py OUT_DIR
"""
from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

from ttcstress.cli import cli_dispatch

DATA = Path(__file__).resolve().parent.parent / "data"
BOOKS = ("midgrade", "barbell", "speculative_tilt", "seasoned")
FORMATS = (None, "text", "csv", "json", "svg")


def cases() -> list[tuple[str, list[str]]]:
    """(case name, argv) of every subcommand run on the bundled data."""
    matrix = ["--matrix", str(DATA / "transition_matrix.csv")]
    orig = ["--origination", str(DATA / "origination.csv")]
    scenario = ["--scenario", str(DATA / "scenario.csv"), "--lag", "1"]
    out = []
    for book in BOOKS:
        books = [*matrix, "--portfolio", str(DATA / f"portfolio_{book}.csv"),
                 *orig]
        out += [
            (f"validate-{book}", ["validate", *books]),
            (f"propagate-{book}-z0", ["propagate", *books]),
            (f"propagate-{book}-z-1",
             ["propagate", *books, "--z", "-1", "--rho", "0.2"]),
            (f"propagate-{book}-scenario",
             ["propagate", *books, *scenario, "--rho", "0.05"]),
        ]
    return out + [
        ("ttc", ["ttc", *matrix, *orig]),
        ("stress-matrix", ["stress-matrix", *matrix, "--rho", "0.2",
                           "--z", "-1"]),
        ("fit-macro", ["fit-macro", *scenario]),
        # the path.csv that the propagate-barbell-z0 case writes first
        ("diagnose", ["diagnose", "--path",
                      "../../propagate-barbell-z0/default/out/path.csv"]),
    ]


def calls() -> list[tuple[str, list[str]]]:
    """(relative directory, argv) of every call, in the order they run."""
    out = [("help/top", ["--help"])] + [
        (f"help/{name}", [name, "--help"])
        for name in ("validate", "ttc", "propagate", "stress-matrix",
                     "fit-macro", "diagnose")]
    out += [("usage-error/validate-tol", cases()[0][1] + ["--tol", "1"]),
            ("usage-error/ttc-tol", dict(cases())["ttc"] + ["--tol", "1"]),
            ("usage-error/propagate-z-without-rho",
             dict(cases())["propagate-midgrade-z0"] + ["--z", "-1"]),
            ("usage-error/propagate-rho-nan",
             dict(cases())["propagate-midgrade-z0"] + ["--rho", "nan"])]
    for name, argv in cases():
        out.append((f"{name}/bare", argv))
        for fmt in FORMATS:
            extra = ["--out-dir", "out"] + (["--format", fmt] if fmt else [])
            out.append((f"{name}/{fmt or 'default'}", argv + extra))
    return out + [("diagnose-seasoned-scenario/default", [
        "diagnose", "--path",
        "../../propagate-seasoned-scenario/default/out/path.csv",
        "--out-dir", "out"])]


def run(out_dir: Path) -> None:
    """Run every call with its own directory as the working directory, so
    that the relative --out-dir, and any path printed, read the same in
    every OUT_DIR."""
    for rel, argv in calls():
        target = out_dir / rel
        target.mkdir(parents=True, exist_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()  # contextlib.chdir needs Python 3.11
        os.chdir(target)
        try:
            with (contextlib.redirect_stdout(stdout),
                  contextlib.redirect_stderr(stderr)):
                code = cli_dispatch(argv)
        finally:
            os.chdir(cwd)
        for name, text in (("stdout.txt", stdout.getvalue()),
                           ("stderr.txt", stderr.getvalue()),
                           ("exit_code.txt", f"{code}\n")):
            (target / name).write_text(text, encoding="utf-8", newline="\n")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    run(Path(argv[0]).resolve())
    return 0


if __name__ == "__main__":
    # the help text wraps at the terminal width; fix it for every OUT_DIR
    os.environ["COLUMNS"] = "80"
    sys.exit(main(sys.argv[1:]))
