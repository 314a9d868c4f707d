"""The cli-dispatch workload: the ttcstress command line on the bundled
8-grade data, with output checks that need nothing but the standard library.

One op is one ``ttcstress.cli.cli_dispatch(argv)`` call in the worker, with
stdout and stderr captured; the ops go round robin over a fixed list that
covers all six subcommands.  Interpreter start-up and ``import ttcstress``,
the bulk of what a CLI user waits for, land in the workload's setup_s (a
fresh process each time) and in the traced run's import metrics.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import resource
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

MATRIX = "data/transition_matrix.csv"
ORIG = "data/origination.csv"
CLASSES = ("monotone-convergent", "spurious-recession", "spurious-boom", "mixed")
TRACE_ROUNDS = 4


def _book(name: str) -> str:
    return f"data/portfolio_{name}.csv"


def _ops(work: Path) -> list[dict]:
    """(name, argv, expected exit code, stdout kind, files written)."""
    def validate(book, out=None):
        argv = ["validate", "--matrix", MATRIX, "--portfolio", _book(book),
                "--origination", ORIG]
        return argv + (["--out-dir", str(out)] if out else [])

    def propagate(book, *extra):
        return ["propagate", "--matrix", MATRIX, "--portfolio", _book(book),
                "--origination", ORIG, *extra]

    val_dir, prop_dir = work / "validate", work / "propagate"
    return [
        dict(name="validate-midgrade", argv=validate("midgrade", val_dir),
             code=1, out="validate",
             files={"report.json": "json", "path.csv": "path",
                    "chart.svg": "svg"}, dir=val_dir),
        dict(name="validate-barbell", argv=validate("barbell"), code=1,
             out="validate"),
        dict(name="validate-seasoned", argv=validate("seasoned"), code=0,
             out="validate"),
        dict(name="validate-speculative_tilt",
             argv=validate("speculative_tilt"), code=1, out="validate"),
        dict(name="ttc", argv=["ttc", "--matrix", MATRIX, "--origination", ORIG],
             code=0, out="ttc"),
        dict(name="propagate-z0",
             argv=propagate("barbell", "--z", "0", "--out-dir", str(prop_dir)),
             code=1, out="classification",
             files={"path.csv": "path", "chart.svg": "svg", "path.json": "json"},
             dir=prop_dir),
        dict(name="propagate-stressed",
             argv=propagate("midgrade", "--z", "-1", "--rho", "0.2"),
             code=1, out="classification"),
        dict(name="propagate-scenario",
             argv=propagate("midgrade", "--scenario", "data/scenario.csv",
                            "--lag", "1", "--rho", "0.05"),
             code=1, out="classification"),
        dict(name="stress-matrix",
             argv=["stress-matrix", "--matrix", MATRIX, "--rho", "0.2",
                   "--z", "-1"], code=0, out="matrix"),
        dict(name="fit-macro",
             argv=["fit-macro", "--scenario", "data/scenario.csv", "--lag", "1"],
             code=0, out="fit-macro"),
        dict(name="diagnose",
             argv=["diagnose", "--path", str(work / "setup" / "path.csv")],
             code=1, out="classification"),
    ]


# --- output checks ---------------------------------------------------------

def _all_finite(doc) -> bool:
    if isinstance(doc, dict):
        return all(_all_finite(v) for v in doc.values())
    if isinstance(doc, list):
        return all(_all_finite(v) for v in doc)
    if isinstance(doc, float):
        return math.isfinite(doc)
    return True


def _floats(cells) -> list[float]:
    values = [float(c) for c in cells]
    if not all(math.isfinite(v) for v in values):
        raise ValueError("non-finite number")
    return values


def _check_matrix_csv(text: str) -> str | None:
    rows = [_floats(r) for r in csv.reader(io.StringIO(text)) if r]
    if len(rows) < 2 or any(len(r) != len(rows) for r in rows):
        return "matrix output is not square"
    for i, row in enumerate(rows):
        if min(row) < 0.0 or abs(sum(row) - 1.0) > 1e-9:
            return f"matrix row {i + 1} is not a probability row"
    return None


def _check_path_csv(text: str) -> str | None:
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if rows[0][:4] != ["period", "z", "avg_pd", "default_flow"] or len(rows) < 2:
        return "path.csv has no header or no rows"
    for row in rows[1:]:
        values = _floats(row)
        if abs(sum(values[4:]) - 1.0) > 1e-9 or min(values[4:]) < 0.0:
            return f"path.csv period {row[0]} does not conserve mass"
    return None


def _check_file(kind: str, text: str) -> str | None:
    if kind == "json":
        return None if _all_finite(json.loads(text)) else "non-finite JSON value"
    if kind == "path":
        return _check_path_csv(text)
    if text.lstrip().startswith("<?xml") and text.rstrip().endswith("</svg>"):
        return None
    return "chart.svg is not a complete SVG document"


def _line(stdout: str, prefix: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise ValueError(f"no line starting with {prefix!r}")


def _check_stdout(kind: str, code: int, stdout: str) -> str | None:
    if kind == "matrix":
        return _check_matrix_csv(stdout)
    if kind == "validate":
        verdict = _line(stdout, "verdict:")
        if (verdict == "pass") != (code == 0):
            return f"verdict {verdict!r} disagrees with exit code {code}"
    if kind in ("validate", "ttc"):
        weights = _floats(re.findall(r"[-\d.]+", _line(stdout, "TTC portfolio:")))
        if abs(sum(weights) - 1.0) > 1e-3:
            return "TTC portfolio does not sum to one"
    if kind == "classification":
        cls = _line(stdout, "classification:")
        if cls not in CLASSES or (cls == CLASSES[0]) != (code == 0):
            return f"classification {cls!r} disagrees with exit code {code}"
    if kind == "fit-macro":
        z = _floats(_line(stdout, "z path:").split(","))
        if len(z) != 23:
            return f"z path has {len(z)} entries, expected 23"
    return None


def check(op: dict, result) -> str | None:
    """None if the op's exit code and outputs are right, else the reason."""
    code, stdout, stderr = result
    if code != op["code"]:
        return (f"{op['name']}: exit code {code}, expected {op['code']}: "
                f"{stderr.strip()[-200:]}")
    try:
        err = _check_stdout(op["out"], code, stdout)
        for name, kind in op.get("files", {}).items():
            err = err or _check_file(kind, (op["dir"] / name).read_text())
    except (OSError, ValueError, IndexError) as exc:
        err = f"unreadable output: {exc}"
    return f"{op['name']}: {err}" if err else None


def matrix_rows(root: Path) -> list[list[float]]:
    with open(root / MATRIX, newline="") as fh:
        return [_floats(r) for r in csv.reader(fh) if r]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI invocation."""
    import ttcstress.cli  # looked up per call, so a tracer's wrapper is used
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = ttcstress.cli.cli_dispatch(argv)
    return code, out.getvalue(), err.getvalue()


class CliDispatch:
    """Set-up imports the CLI, writes the diagnose input and runs each
    subcommand once, so bytecode compilation, lazy imports and a cold page
    cache land in setup_s.  Run from the repository root."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.work = root / ".bench_work" / f"cli-{os.getpid()}"
        self.ops = _ops(self.work)
        self.start = seed % len(self.ops)  # the seed picks where the round starts
        self.inputs = len(self.ops)
        self.trace_ops = TRACE_ROUNDS * self.inputs
        # the set-up propagate also warms up its subcommand
        run_cli(["propagate", "--matrix", MATRIX, "--portfolio", _book("barbell"),
                 "--origination", ORIG, "--z", "0",
                 "--out-dir", str(self.work / "setup")])
        warmed = {"propagate"}
        for op in self.ops:
            if op["argv"][0] not in warmed:
                warmed.add(op["argv"][0])
                run_cli(op["argv"])

    def _at(self, i: int) -> dict:
        return self.ops[(self.start + i) % len(self.ops)]

    def op(self, i: int):
        return run_cli(self._at(i)["argv"])

    def before(self, i: int) -> None:
        """Remove the op's previous output files, so its check reads fresh ones."""
        op = self._at(i)
        if "dir" in op:
            shutil.rmtree(op["dir"], ignore_errors=True)

    def check(self, i: int, result) -> str | None:
        return check(self._at(i), result)

    def facts(self) -> dict:
        rows = matrix_rows(self.root)
        # rows whose sums miss one by more than 1e-12 are rescaled when parsed
        repaired = [i + 1 for i, r in enumerate(rows)
                    if abs(math.fsum(r) - 1.0) > 1e-12]
        reads = [op for op in self.ops if MATRIX in op["argv"]]
        return {"n": len(rows), "ops_in_round": len(self.ops),
                "repaired_matrix_rows": repaired,
                "share_of_ops_with_repaired_matrix":
                    len(reads) / len(self.ops) if repaired else 0.0}

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:  # another worker still uses it
            pass
