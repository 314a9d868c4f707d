"""Time each stage of a validation and of a stressed projection, in
microseconds, for this tree or for it and another tree side by side.

    python scripts/stage_times.py [--repeat N] [--against TREE]

Prints three tables.  The first two time ``run_validation(horizon=50)``
and, one at a time, the stages it is made of, on two sets of inputs: the 8
21-grade systems of the ``validate-21`` workload at seed 1 (drawn by that
workload's own ``bench/inproc.py`` class, each with its book) and the
bundled 8-grade data with its four books.  The third times
``project_path`` at the ``stress-fan`` workload's rho and the kernels it
is made of, on that workload's seed-1 system and the z paths of its 16
scenarios (drawn by its own class, each z path by its own op): the Phi
call, the rest of ``_stressed_probs``, ``_step_stack`` and
``_propagate``.  Its title gives the Phi elements a path takes: stressed
periods times the Phi values of the matrix's tail layout.  Every round
calls each stage once on each input, so the stages interleave; a stage's
figure is its fastest call on an input, averaged over the inputs.  Before
each call of a validation stage, outside the timed call, the book, matrix
and origination vector are built anew, as the ``validate-21`` workload
builds them before every op: a matrix keeps the unstressed step matrix it
was given, so reused objects would time every stage on a kept step.  The
stages that the timed one follows inside ``run_validation`` run on those
objects first, untimed.  The stressed table keeps one matrix for every
round, as the ``stress-fan`` workload keeps one for every op.  The
last row of a table is what its first row spends outside the stages
listed.  BLAS runs on one thread unless the environment says otherwise.

``--against TREE`` also imports ``TREE/src/ttcstress``, under another
module name, into the same process, so that the host's drift between
processes does not fall between the two trees.  Each tree builds its own
matrices, books and origination vectors from the same raw arrays, CSV
texts and z paths, and times them with its own functions; each round
calls every stage on both trees in turn, the order swapped every other
round.  The tables then give TREE's column, this tree's and this tree's
difference from TREE.

The benchmark's tracer wraps public functions only, so the private
``_ttc_result`` shows there as ``run_validation``'s self time, and every
kernel of the stressed projection as ``project_path``'s; these tables show
them, and every stage's own time, apart.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import importlib.util
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import inproc  # noqa: E402

HORIZON = 50
SEED = 1
AGAINST = "ttcstress_against"


class Side:
    """One tree's ``ttcstress`` package, imported as ``name``, and the
    private kernels that the tables time, each from that tree's modules."""

    def __init__(self, name: str):
        def module(sub):
            return importlib.import_module(f"{name}.{sub}")

        self.ts = importlib.import_module(name)
        self.ttc_result = module("ttc")._ttc_result
        self.propagate = module("propagation")._propagate
        self.step_stack = module("propagation")._step_stack
        self.shifted_quantile = module("transition")._shifted_quantile
        self.stressed_probs = module("transition")._stressed_probs
        self.cdf = module("normal").std_normal_cdf


def load_against(tree: Path) -> Side:
    """Import ``tree/src/ttcstress`` as the package AGAINST."""
    package = tree / "src" / "ttcstress"
    spec = importlib.util.spec_from_file_location(
        AGAINST, package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[AGAINST] = module
    spec.loader.exec_module(module)
    return Side(AGAINST)


def validate21_raw() -> list[tuple]:
    """(book, matrix, origination) arrays of each validate-21 system at
    SEED, as the workload draws them before an op."""
    workload = inproc.Validate21(ROOT, SEED)
    raw = []
    for k in range(inproc.SYSTEMS):
        workload.before(k)
        _, probs, orig, book, *_ = workload.case
        raw.append((book, probs, orig))
    return raw


def from_arrays(side: Side, book, probs, orig, *rest) -> tuple:
    """``side``'s book, matrix and origination vector, as the workloads
    build them, then ``rest`` as it is."""
    ts = side.ts
    return (ts.Portfolio(book), ts.TransitionMatrix(probs),
            ts.OriginationVector(orig), *rest)


def bundled_raw() -> list[tuple]:
    """(book, matrix, origination) CSV texts of the bundled data, per book."""
    data = ROOT / "data"
    matrix = (data / "transition_matrix.csv").read_text()
    orig = (data / "origination.csv").read_text()
    return [((data / f"portfolio_{name}.csv").read_text(), matrix, orig)
            for name in ("midgrade", "barbell", "speculative_tilt",
                         "seasoned")]


def from_texts(side: Side, book, matrix, orig) -> tuple:
    """``side``'s book, matrix and origination vector, parsed."""
    ts = side.ts
    return (ts.parse_vector_csv(book, "portfolio"),
            ts.parse_matrix_csv(matrix),
            ts.parse_vector_csv(orig, "origination"))


def stress_fan_raw() -> list[tuple]:
    """(book, matrix, origination, z path) arrays of each stress-fan
    scenario at SEED, the z path as the workload's op computes it."""
    workload = inproc.StressFan(ROOT, SEED)
    probs, orig, book = workload.raw
    cases = []
    for k in range(inproc.FAN_SCENARIOS):
        workload.before(k)
        cases.append((book, probs, orig, workload.op(k)[0]))
    return cases


def stages(side: Side, build) -> dict:
    """Each stage of a validation as a set-up with no arguments that returns
    the call to time.  Every set-up takes a new book, matrix and origination
    vector from ``build``, as the validate-21 workload builds them before
    every op, so no call finds a step matrix that an earlier call left on
    its matrix.  A set-up runs, untimed, the stages its own reads from
    inside ``run_validation``: the TTC solve and the projection start on a
    matrix that the Perron check has given its step matrix."""
    ts = side.ts

    def checked():
        book, tm, ov = build()
        return book, tm, ov, ts.verify_perron_structure(tm, ov)

    def validation():
        book, tm, ov = build()
        return lambda: ts.run_validation(book, tm, ov, horizon=HORIZON)

    def primitivity():
        tm = build()[1]
        return lambda: ts.is_primitive(tm.performing_block)

    def perron():
        _, tm, ov = build()
        return lambda: ts.verify_perron_structure(tm, ov)

    def ttc_result():
        _, tm, ov, report = checked()
        return lambda: side.ttc_result(tm, ov, report)

    def comparison():
        book, tm, ov, report = checked()
        w_ttc = side.ttc_result(tm, ov, report).w_ttc
        return lambda: ts.compare_portfolios(book, w_ttc, tm)

    def projection():
        book, tm, ov, _ = checked()
        return lambda: ts.project_path(book, tm, ov, 0.0, np.zeros(HORIZON))

    def classification():
        path = projection()()
        return lambda: ts.detect_spurious_dynamics(path)

    return {"run_validation(horizon=50)": validation,
            "is_primitive": primitivity,
            "verify_perron_structure": perron,
            "_ttc_result": ttc_result,
            "compare_portfolios": comparison,
            "project_path(z = 0)": projection,
            "detect_spurious_dynamics": classification}


def stress_stages(side: Side, book, tm, ov, z) -> dict:
    """The stressed projection and its kernels, as set-ups that return the
    same call every round: one matrix serves every round, as in the
    stress-fan workload.  ``_stressed_probs`` is split into its Phi call
    and the rest after timing."""
    rho, orig = inproc.FAN_RHO, ov.weights
    x = side.shifted_quantile(tm._tail_layout[0], rho, z[:, None])
    probs = side.stressed_probs(tm, rho, z)
    steps = side.step_stack(probs, orig)
    buf = np.empty((z.size, steps.shape[-1]))
    calls = {
        f"project_path(rho={rho})":
            lambda: side.ts.project_path(book, tm, ov, rho, z),
        "std_normal_cdf": lambda: side.cdf(x),
        "_stressed_probs": lambda: side.stressed_probs(tm, rho, z),
        "_step_stack": lambda: side.step_stack(probs, orig),
        "_propagate": lambda: side.propagate(book.weights, steps, buf),
    }
    return {name: (lambda call=call: call) for name, call in calls.items()}


def phi_elements(cases: list[tuple]) -> float:
    """Mean over the stress-fan ``cases`` of the Phi elements a path
    takes: its stressed periods times its matrix's Phi values."""
    return float(np.mean([z.size * tm._tail_layout[0].size
                          for _, tm, _, z in cases]))


def stage_minima(calls: list[list[dict]], repeat: int) -> list[dict]:
    """Per side, the mean over its inputs of each stage's fastest call, in
    microseconds.  ``calls[s][c]`` maps each stage to a set-up, on input c
    of side s, that returns the call to time; a round sets up and calls
    each stage of each input on every side in turn, in reverse order every
    other round."""
    best = [[dict.fromkeys(per_case, float("inf")) for per_case in side]
            for side in calls]
    sides = list(range(len(calls)))
    clock = time.perf_counter
    for r in range(repeat):
        order = sides if r % 2 == 0 else sides[::-1]
        for c, per_case in enumerate(calls[0]):
            for name in per_case:
                for s in order:
                    call = calls[s][c][name]()
                    t0 = clock()
                    call()
                    fastest = best[s][c]
                    fastest[name] = min(fastest[name], clock() - t0)
    return [{name: 1e6 * float(np.mean([b[name] for b in side]))
             for name in side[0]} for side in best]


def print_table(title: str, columns: list[dict]) -> None:
    """One column of figures, or TREE's, this tree's and their difference."""
    names = list(columns[0])
    rest = [col[names[0]] - sum(col[name] for name in names[1:])
            for col in columns]
    rows = [[col[name] for col in columns] for name in names] + [rest]
    labels = ([names[0]] + [f"-> {name}" for name in names[1:]]
              + [f"-> rest of {names[0].split('(')[0]}"])
    heads = (["us"] if len(columns) == 1
             else ["against us", "this us", "difference"])
    print(f"{title}\n| stage | {' | '.join(heads)} |")
    print(f"|---{'|---' * len(heads)}|")
    for label, figures in zip(labels, rows):
        cells = [f"{us:.1f}" for us in figures]
        if len(figures) == 2:
            cells.append(f"{figures[1] - figures[0]:+.1f}")
        print(f"| {label} | {' | '.join(cells)} |")
    print()


def split_phi(figures: dict) -> dict:
    """The stressed table's figures with ``_stressed_probs`` less its Phi
    call in its place."""
    total, phi, probs, *kernels = figures.items()
    return dict([total, phi, ("rest of _stressed_probs", probs[1] - phi[1]),
                 *kernels])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=400,
                        help="calls of each stage per system (default 400)")
    parser.add_argument("--against", type=Path, metavar="TREE",
                        help="also time TREE/src/ttcstress, in this process")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    if args.against and not (args.against / "src" / "ttcstress"
                             / "__init__.py").is_file():
        parser.error(f"--against: no src/ttcstress package in {args.against}")
    sides = [Side("ttcstress")]
    if args.against:
        sides.insert(0, load_against(args.against))
    calls = f"minimum of {args.repeat} interleaved calls"
    for title, raw, build in (
            (f"validate-21 systems, seed {SEED}", validate21_raw(),
             from_arrays),
            ("bundled 8-grade data, four books", bundled_raw(), from_texts)):
        print_table(f"{title}, {calls}", stage_minima(
            [[stages(side, functools.partial(build, side, *case))
              for case in raw] for side in sides], args.repeat))
    raw = stress_fan_raw()
    cases = [[from_arrays(side, *case) for case in raw] for side in sides]
    elements = [phi_elements(c) for c in cases]
    count = f"{elements[-1]:.0f}" + (f" (against {elements[0]:.0f})"
                                     if args.against else "")
    stress = stage_minima([[stress_stages(side, *case) for case in c]
                           for side, c in zip(sides, cases)], args.repeat)
    print_table(f"stress-fan system and scenarios, seed {SEED}, "
                f"{count} Phi elements per path, {calls}",
                [split_phi(figures) for figures in stress])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
