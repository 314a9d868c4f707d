"""A/B benchmark of two checkouts: each tree's own ``bench/run.py``, run in
alternating order, one pair of runs per seed.

    python scripts/ab_bench.py PARENT_TREE CHANGE_TREE --workload stress-fan \
        --pairs 10 --seed 7201 --out BENCH.json

Every run lasts the ``run_seconds`` that ``BENCHMARK.json`` sets, and the
workload must be one that it declares.  Pair i runs both trees on seed
S + i, the parent first in even pairs and the change first in odd ones, so
that a drift of the host over time falls on both sides alike.  For every end-to-end metric of ``BENCHMARK.json`` it
prints each side's median and quartiles, the change in the median, and the
pairs in which the change was better.  The JSON file holds the summary and,
for every run, the provenance line (git SHA, sha256 of ``src/``, versions,
CPUs) and the last line of ``bench/run.py``'s output.  A run of a tree whose
``src/`` differs from its git HEAD records ``git_sha`` as null: that commit
is not what ran, and ``src_sha256`` names what did.

Exit code 0 when every run completed, 1 if any op failed on either side,
2 if a run could not complete.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(tree: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """(provenance, result) of one untraced ``bench/run.py`` run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"bench/run.py in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    provenance = next((json.loads(line.split(" ", 1)[1]) for line in lines
                       if line.startswith("provenance ")), None)
    return provenance, json.loads(lines[-1])


def src_differs_from_head(tree: Path) -> bool:
    """Whether ``git status`` lists any change under ``tree/src``."""
    proc = subprocess.run(["git", "-C", str(tree), "status", "--porcelain",
                           "--", "src"], capture_output=True, text=True)
    return bool(proc.stdout.strip())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of ``values``, with the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """Per end-to-end metric: each side's quartiles, the relative change of
    the median and the pairs the change won (strictly better)."""
    out = {}
    for spec in metrics:
        name = spec["name"]
        values = {side: [r["result"]["metrics"][name]["value"]
                         for r in runs[side]] for side in SIDES}
        higher = spec["better"] == "higher"
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(values["parent"], values["change"]))
        stats = {side: dict(zip(("q1", "median", "q3"),
                                quartiles(values[side]))) for side in SIDES}
        base = stats["parent"]["median"]
        out[name] = {
            "unit": spec["unit"], "better": spec["better"],
            **stats,
            "change_pct": (100.0 * (stats["change"]["median"] - base) / base
                           if base else None),
            "wins": wins, "pairs": len(values["parent"]),
            "values": values,
        }
    return out


def report(workload: str, summary: dict) -> None:
    print(f"{workload}: parent median [q1, q3] -> change median [q1, q3], "
          "change in the median, pairs the change won")
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        pct = "n/a" if s["change_pct"] is None else f"{s['change_pct']:+.1f}%"
        print(f"  {name:12s} {p['median']:10.4g} [{p['q1']:.4g}, "
              f"{p['q3']:.4g}] -> {c['median']:10.4g} [{c['q1']:.4g}, "
              f"{c['q3']:.4g}] {s['unit']:3s} {pct:>8s}  "
              f"{s['wins']}/{s['pairs']} ({s['better']} is better)")


def main(argv=None, runner=run_bench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in SIDES}
    try:
        for i in range(args.pairs):
            seed = args.seed + i
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                provenance, result = runner(trees[side], args.workload, seed)
                if provenance and src_differs_from_head(trees[side]):
                    provenance = {**provenance, "git_sha": None}
                runs[side].append({"seed": seed, "provenance": provenance,
                                   "result": result})
                print(f"pair {i + 1}/{args.pairs} {side:6s} seed {seed}: "
                      f"{json.dumps(result['metrics'])}", flush=True)
    except RuntimeError as exc:
        print(f"ab_bench: {exc}", file=sys.stderr)
        return 2
    summary = summarize(runs, SPEC["end_to_end"])
    report(args.workload, summary)
    failed = sum(r["result"]["failed"] for side in SIDES for r in runs[side])
    print(f"failed ops: {failed}")
    if args.out is not None:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc[args.workload] = {
            "pairs": args.pairs, "first_seed": args.seed,
            "seconds": SPEC["run_seconds"], "summary": summary, "runs": runs,
        }
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
