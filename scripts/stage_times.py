"""Time each stage of a validation and of a stressed projection, in
microseconds.

    python scripts/stage_times.py [--repeat N]

Prints three tables.  The first two time ``run_validation(horizon=50)``
and, one at a time, the stages it is made of, on two sets of inputs: the 8
21-grade systems of the ``validate-21`` workload at seed 1 (built by that
workload's own ``bench/inproc.py`` class, each with its book) and the
bundled 8-grade data with its four books.  The third times
``project_path`` at the ``stress-fan`` workload's rho and the kernels it
is made of, on that workload's seed-1 system and the z paths of its 16
scenarios (built by its own class, each z path by its own op): the Phi
call, the rest of ``_stressed_probs``, ``_step_stack`` and
``_propagate``.  Every round calls each stage once on each input, so the
stages interleave; a stage's figure is its fastest call on an input,
averaged over the inputs.  The last row of a table is what its first row
spends outside the stages listed.  BLAS runs on one thread unless the
environment says otherwise.

The benchmark's tracer wraps public functions only, so the private
``_ttc_result`` shows there as ``run_validation``'s self time, and every
kernel of the stressed projection as ``project_path``'s; these tables show
them, and every stage's own time, apart.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import ttcstress as ts  # noqa: E402
from ttcstress.io_formats import parse_matrix_csv, parse_vector_csv  # noqa: E402
from ttcstress.normal import std_normal_cdf  # noqa: E402
from ttcstress.propagation import _propagate, _step_stack  # noqa: E402
from ttcstress.transition import _shifted_quantile, _stressed_probs  # noqa: E402
from ttcstress.ttc import _ttc_result  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import inproc  # noqa: E402

HORIZON = 50
SEED = 1


def validate21_cases() -> list[tuple]:
    """(book, matrix, origination) of each validate-21 system at SEED, as
    the workload builds them before an op."""
    workload = inproc.Validate21(ROOT, SEED)
    cases = []
    for k in range(inproc.SYSTEMS):
        workload.before(k)
        *_, tm, ov, book = workload.case
        cases.append((book, tm, ov))
    return cases


def bundled_cases() -> list[tuple]:
    data = ROOT / "data"
    tm = parse_matrix_csv((data / "transition_matrix.csv").read_text())
    ov = parse_vector_csv((data / "origination.csv").read_text(),
                          "origination")
    return [(parse_vector_csv((data / f"portfolio_{name}.csv").read_text(),
                              "portfolio"), tm, ov)
            for name in ("midgrade", "barbell", "speculative_tilt",
                         "seasoned")]


def stages(book, tm, ov) -> dict:
    """Each stage as a call with no arguments, on inputs built once."""
    perron = ts.verify_perron_structure(tm, ov)
    w_ttc = _ttc_result(tm, ov, perron).w_ttc
    path = ts.project_path(book, tm, ov, 0.0, np.zeros(HORIZON))
    return {
        "run_validation(horizon=50)":
            lambda: ts.run_validation(book, tm, ov, horizon=HORIZON),
        "is_primitive": lambda: ts.is_primitive(tm.performing_block),
        "verify_perron_structure":
            lambda: ts.verify_perron_structure(tm, ov),
        "_ttc_result": lambda: _ttc_result(tm, ov, perron),
        "compare_portfolios": lambda: ts.compare_portfolios(book, w_ttc, tm),
        "project_path(z = 0)":
            lambda: ts.project_path(book, tm, ov, 0.0, np.zeros(HORIZON)),
        "detect_spurious_dynamics":
            lambda: ts.detect_spurious_dynamics(path),
    }


def stress_fan_cases() -> list[tuple]:
    """(book, matrix, origination, z path) of each stress-fan scenario at
    SEED, the z path as the workload's op computes it."""
    workload = inproc.StressFan(ROOT, SEED)
    cases = []
    for k in range(inproc.FAN_SCENARIOS):
        workload.before(k)
        z = workload.op(k)[0]
        cases.append((workload.book, workload.tm, workload.orig, z))
    return cases


def stress_stages(book, tm, ov, z) -> dict:
    """The stressed projection and its kernels, as calls with no
    arguments; ``_stressed_probs`` is split into its Phi call and the
    rest after timing."""
    rho, orig = inproc.FAN_RHO, ov.weights
    x = _shifted_quantile(tm._tail_layout[0], rho, z[:, None])
    probs = _stressed_probs(tm, rho, z)
    steps = _step_stack(probs, orig)
    buf = np.empty((z.size, steps.shape[-1]))
    return {
        f"project_path(rho={rho})":
            lambda: ts.project_path(book, tm, ov, rho, z),
        "std_normal_cdf": lambda: std_normal_cdf(x),
        "_stressed_probs": lambda: _stressed_probs(tm, rho, z),
        "_step_stack": lambda: _step_stack(probs, orig),
        "_propagate": lambda: _propagate(book.weights, steps, buf),
    }


def stage_minima(cases: list[tuple], repeat: int,
                 stages=stages) -> dict[str, float]:
    """Mean over ``cases`` of each stage's fastest call, in microseconds."""
    calls = [stages(*case) for case in cases]
    best = [dict.fromkeys(c, float("inf")) for c in calls]
    clock = time.perf_counter
    for _ in range(repeat):
        for per_case, fastest in zip(calls, best):
            for name, call in per_case.items():
                t0 = clock()
                call()
                fastest[name] = min(fastest[name], clock() - t0)
    return {name: 1e6 * float(np.mean([b[name] for b in best]))
            for name in best[0]}


def print_table(title: str, figures: dict[str, float]) -> None:
    total, *parts = figures.items()
    print(f"{title}\n| stage | us |\n|---|---|")
    print(f"| {total[0]} | {total[1]:.1f} |")
    for name, us in parts:
        print(f"| -> {name} | {us:.1f} |")
    rest = total[1] - sum(us for _, us in parts)
    print(f"| -> rest of {total[0].split('(')[0]} | {rest:.1f} |\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=400,
                        help="calls of each stage per system (default 400)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    print_table(f"validate-21 systems, seed {SEED}, minimum of "
                f"{args.repeat} interleaved calls",
                stage_minima(validate21_cases(), args.repeat))
    print_table(f"bundled 8-grade data, four books, minimum of "
                f"{args.repeat} interleaved calls",
                stage_minima(bundled_cases(), args.repeat))
    stress = stage_minima(stress_fan_cases(), args.repeat, stress_stages)
    total, phi, probs, *kernels = stress.items()
    print_table(f"stress-fan system and scenarios, seed {SEED}, minimum of "
                f"{args.repeat} interleaved calls",
                dict([total, phi, ("rest of _stressed_probs",
                                   probs[1] - phi[1]), *kernels]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
