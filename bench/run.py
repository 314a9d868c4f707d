"""ttcstress benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 bench/run.py --workload validate-21 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Workloads (closed loop, one client, one process doing the work):
  cli-dispatch the six CLI subcommands on the bundled 8-grade data, in process
  validate-21  run_validation over seeded realistic 21-grade systems
  stress-fan   macro-scenario fan: z path, stressed projection, classification

Each workload runs in fresh worker processes with single-threaded BLAS.
Every input recurs many times in a run.  ops_per_s and op_ms.p50 are taken
over each input's best time, op_ms.p90 over every op (see
worker.summarize); the plain ops_per_s and p50 over every op are printed as
raw_* lines for reference.
setup_s is the median of the fast-mode set-ups among SETUP_REPEATS fresh
processes, half before and half after the timed run.
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run that follows the
untraced one.  Every op's output is checked against the benchmark's own
oracles; the exit code is 1 if any op failed, 2 if the benchmark could not run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from worker import fast_mode

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-dispatch", "validate-21", "stress-fan")
SETUP_REPEATS = 15
IMPORT_REPEATS = 5
TIME_LIMIT_S = 170
BLAS_THREADS = "1"

END_TO_END = {"ops_per_s": "1/s", "op_ms.p50": "ms", "op_ms.p90": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = (
    "import.total_ms", "import.numpy_ms", "import.scipy_ms",
    "cli.cli_dispatch.self_ms",
    "io_formats.parse_matrix_csv.calls", "io_formats.parse_matrix_csv.self_ms",
    "io_formats.parse_vector_csv.self_ms",
    "io_formats.emit_path_csv.self_ms", "io_formats.emit_path_csv.bytes",
    "charts.emit_svg_chart.self_ms", "charts.emit_svg_chart.bytes",
    "ttc.solve_ttc_iterative.calls", "ttc.solve_ttc_iterative.self_ms",
    "ttc.solve_ttc_iterative.iterations",
    "ttc.verify_perron_structure.self_ms",
    "ttc.is_primitive.calls", "ttc.is_primitive.self_ms",
    "ttc.solve_ttc_direct.calls", "ttc.solve_ttc_direct.self_ms",
    "ttc.build_m_p.calls",
    "diagnostics.run_validation.self_ms", "diagnostics.compare_portfolios.self_ms",
    "diagnostics.classify_pd_path.calls", "diagnostics.classify_pd_path.self_ms",
    "propagation.project_path.calls", "propagation.project_path.self_ms",
    "propagation.project_path.periods", "propagation.average_pd.calls",
    "transition.stress_transition_matrix.calls",
    "transition.stress_transition_matrix.self_ms",
    "transition.TransitionMatrix.init.calls",
    "transition.TransitionMatrix.init.self_ms",
    "transition.validate_transition_matrix.calls",
    "normal.std_normal_inv_cdf.calls", "normal.std_normal_inv_cdf.self_ms",
    "normal.std_normal_inv_cdf.elements",
    "normal.std_normal_cdf.calls", "normal.std_normal_cdf.self_ms",
    "normal.std_normal_cdf.elements",
    "macro.economy_state_path.calls", "macro.economy_state_path.self_ms",
    "macro.economy_state.calls", "macro.fit_macro_model.self_ms",
    "trace.overhead_ratio",
)


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_worker(workload: str, seed: int, seconds: float, mode: str,
               deadline: float) -> dict:
    """Run worker.py; its set-up time is the wall time until it says ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed),
         str(seconds), mode], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"{workload} worker ({mode}) exited with code {code}")
    result = json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else {}
    result["setup_s"] = setup_s
    return result


def _import_tree(stderr: str) -> dict:
    """Cumulative import ms of ttcstress and of the outermost numpy and
    scipy imports, from ``-X importtime`` output (printed children first)."""
    out = {"total": 0.0, "numpy": 0.0, "scipy": 0.0}
    stack: list[str] = []
    lines = [l for l in stderr.splitlines() if l.startswith("import time:")]
    for line in reversed(lines[1:] if "cumulative" in lines[0] else lines):
        _, cum, name = line.split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        del stack[depth:]
        top = name.split(".")[0]
        if top in ("numpy", "scipy") and not any(
                a.split(".")[0] in ("numpy", "scipy") for a in stack):
            out[top] += int(cum) / 1e3
        elif name == "ttcstress":
            out["total"] = int(cum) / 1e3
        stack.append(name)
    return out


def import_times() -> dict:
    """Median over IMPORT_REPEATS fresh interpreters of `import ttcstress`."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import ttcstress"], cwd=ROOT, env=child_env(),
                              capture_output=True,
                              text=True, timeout=60, check=True)
        runs.append(_import_tree(proc.stderr))
    return {f"import.{k}_ms": statistics.median(r[k] for r in runs)
            for k in ("total", "numpy", "scipy")}


def layer_metrics(r: dict) -> dict:
    """Per-layer metrics: span totals divided by the traced op count."""
    ops = r["traced_ops"]
    imports = import_times()
    out = {}
    for name in PER_LAYER:
        if name.startswith("import."):
            out[name] = (imports[name], "ms")
        elif name == "trace.overhead_ratio":
            out[name] = (r["overhead_ratio"], "ratio")
        else:
            span, field = name.rsplit(".", 1)
            value = r["layers"].get(span, {}).get(field, 0) / ops
            out[name] = (value, "ms/op" if field == "self_ms" else f"{field}/op")
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            deadline: float) -> tuple[dict, dict]:
    """(metrics {name: (value, unit)}, worker result) for one workload."""
    if trace:
        r = run_worker(workload, seed, seconds, "trace", deadline)
        return layer_metrics(r), r

    def set_up(count):
        return [run_worker(workload, seed, seconds, "setup", deadline)["setup_s"]
                for _ in range(count)]

    before = set_up((SETUP_REPEATS - 1) // 2)
    r = run_worker(workload, seed, seconds, "run", deadline)
    setups = fast_mode(before + [r["setup_s"]]
                       + set_up(SETUP_REPEATS - 1 - len(before)))
    r["fast_setups"] = len(setups)
    s = r["stats"]
    values = {"ops_per_s": s["ops_per_s"], "op_ms.p50": s["p50"],
              "op_ms.p90": s["p90"], "setup_s": statistics.median(setups),
              "peak_rss_mb": r["peak_rss_mb"]}
    return {k: (v, END_TO_END[k]) for k, v in values.items()}, r


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"seed": seed, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "blas_threads": BLAS_THREADS,
            "git_sha": sha, "src_sha256": digest.hexdigest()}


def report(workload: str, metrics: dict, r: dict) -> None:
    """Human-readable lines: every metric with unit and sample count."""
    st = r["stats"]
    rows = [(name, value, unit,
             f"{r['fast_setups']} of {SETUP_REPEATS} set-ups" if name == "setup_s"
             else "1 worker" if name == "peak_rss_mb"
             else f"{IMPORT_REPEATS} interpreters" if name.startswith("import.")
             else f"{r['traced_ops']} traced ops" if "traced_ops" in r
             else f"{st['ops']} ops" if name == "op_ms.p90"
             else f"best of {st['ops']} ops over {st['inputs']} inputs")
            for name, (value, unit) in metrics.items()]
    rows += [("raw_ops_per_s", st["raw_ops_per_s"], "1/s", f"{st['ops']} ops"),
             ("raw_op_ms.p50", st["raw_p50"], "ms", f"{st['ops']} ops"),
             ("failed_ratio", r["failed"] / r["attempted"], "ratio",
              f"{r['attempted']} ops")]
    for name, value, unit, count in rows:
        print(f"{workload:12s} {name:45s} {value:14.6g} {unit:13s} n={count}")
    print(f"{workload:12s} facts {json.dumps(r['facts'])}")
    for err in r["errors"]:
        print(f"{workload:12s} FAILED {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in ("src/ttcstress/__init__.py", "data/transition_matrix.csv",
                   "data/scenario.csv"):
        if not (ROOT / needed).is_file():
            print(f"bench: {needed} not found under {ROOT}; run from a "
                  "checkout of the repository", file=sys.stderr)
            return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    print("provenance " + json.dumps(provenance(args.seed)))
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            m, r = measure(name, args.seed, args.seconds, bool(args.trace),
                           deadline)
            report(name, m, r)
            attempted += r["attempted"]
            failed += r["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": u}
                            for k, (v, u) in m.items()})
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
