"""One workload in one fresh process.

Usage: python worker.py WORKLOAD SEED SECONDS MODE, MODE one of
  setup  set up, report readiness and exit;
  run    set up, then time ops for SECONDS;
  trace  as run, then run a fixed number of ops once untraced and once with
         the tracer installed.

Prints "ready" once set-up is done (the parent times set-up up to that line)
and one JSON line with the results at the end.
"""
from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_ERRORS = 5


def timed_loop(op, check, seconds: float, max_ops: int | None = None,
               before=None) -> dict:
    """Closed loop: run op(i) until ``seconds`` pass (or ``max_ops`` ran).

    Only op(i) is timed; ``before(i)`` and ``check(i, result)`` run outside
    the timed region.  An op fails if it raises or its check returns a reason.
    """
    times, errors, failed = [], [], 0
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline and (max_ops is None or i < max_ops):
        if before is not None:
            before(i)
        t0 = time.perf_counter()
        try:
            result = op(i)
        except Exception as exc:  # a failing op is counted, not fatal
            times.append(time.perf_counter() - t0)
            reason = f"op raised {exc!r}"
        else:
            times.append(time.perf_counter() - t0)
            reason = check(i, result)
        if reason is not None:
            failed += 1
            if len(errors) < MAX_ERRORS:
                errors.append(reason)
        i += 1
    return {"times": times, "attempted": i, "failed": failed, "errors": errors}


MODE_GAP = 1.25  # a set-up this much slower than the fastest ran in the
                 # machine's slow mode


def fast_mode(samples: list[float]) -> list[float]:
    """The samples within MODE_GAP of the smallest, smallest first."""
    ordered = sorted(samples)
    return [x for x in ordered if x <= MODE_GAP * ordered[0]]


def summarize(times: list[float], inputs: int) -> dict:
    """Op-time statistics; ops i and i + inputs run the same input.

    On a shared machine everything runs ~1.6x slower for seconds or
    minutes at a time, so a plain median flips with how much of a run fell
    in that mode.  ops_per_s and p50 are taken over each input's best time
    in the run, which needs one pass in the fast mode per input; a cost
    that only some repeats of an input pay drops out of them.  p90 is
    taken over every op, so such costs, and the slow mode, show there.
    The plain ops_per_s and p50 over every op are kept for the report.
    """
    best: dict[int, float] = {}
    for i, t in enumerate(times):
        best[i % inputs] = min(t, best.get(i % inputs, t))
    best_ms = [t * 1e3 for t in best.values()]
    ms = [t * 1e3 for t in times]
    p90 = statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0]
    return {"ops": len(times), "inputs": len(best),
            "ops_per_s": len(best_ms) * 1e3 / sum(best_ms),
            "p50": statistics.median(best_ms), "p90": p90,
            "raw_ops_per_s": len(times) / sum(times),
            "raw_p50": statistics.median(ms)}


def make_workload(name: str, seed: int):
    if name == "cli-dispatch":
        from cli_ops import CliDispatch
        return CliDispatch(ROOT, seed)
    import inproc
    if name == "validate-21":
        return inproc.Validate21(ROOT, seed)
    if name == "stress-fan":
        return inproc.StressFan(ROOT, seed)
    raise ValueError(f"unknown workload {name!r}")


def _traced(wl) -> tuple[dict, list, dict]:
    """Run wl.trace_ops ops twice each, untraced and then traced.

    Returns (loop of the traced ops, untraced op times, span aggregate).
    The pairs give the tracing overhead on the same inputs, close in time.
    """
    from tracer import Tracer
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []

    def op(i):
        t0 = time.perf_counter()
        wl.op(i)
        plain.append(time.perf_counter() - t0)
        tracer.install()
        try:
            t0 = time.perf_counter()
            result = wl.op(i)
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        return result

    loop = timed_loop(op, wl.check, float("inf"), wl.trace_ops, wl.before)
    loop["times"] = traced
    return loop, plain, tracer.aggregate()


def main(argv: list[str]) -> int:
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    os.chdir(ROOT)
    wl = make_workload(name, seed)
    try:
        print("ready", flush=True)
        if mode == "setup":
            return 0
        loop = timed_loop(wl.op, wl.check, seconds, before=wl.before)
        out = {"stats": summarize(loop["times"], wl.inputs),
               "attempted": loop["attempted"], "failed": loop["failed"],
               "errors": loop["errors"]}
        if mode == "trace":
            traced, plain, layers = _traced(wl)
            out["attempted"] += traced["attempted"]
            out["failed"] += traced["failed"]
            out["errors"] += traced["errors"]
            out["traced_ops"] = traced["attempted"]
            out["overhead_ratio"] = sum(traced["times"]) / sum(plain)
            out["layers"] = layers
        out["peak_rss_mb"] = wl.peak_rss_kb() / 1024.0
        out["facts"] = wl.facts()
    finally:
        wl.close()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
