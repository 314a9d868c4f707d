"""Smoke test of scripts/stage_times.py: a short run prints the two
validation tables, each with every stage of ``run_validation`` and a
positive time, and the stressed-projection table with each of its kernels."""
import os
import subprocess
import sys
from pathlib import Path

import ttcstress as ts

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "stage_times.py"
STAGES = ("run_validation(horizon=50)", "-> is_primitive",
          "-> verify_perron_structure", "-> _ttc_result",
          "-> compare_portfolios", "-> project_path(z = 0)",
          "-> detect_spurious_dynamics", "-> rest of run_validation")
STRESS_STAGES = ("project_path(rho=0.2)", "-> std_normal_cdf",
                 "-> rest of _stressed_probs", "-> _step_stack",
                 "-> _propagate", "-> rest of project_path")


def run(*args) -> subprocess.CompletedProcess:
    src = str(Path(ts.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})


def test_prints_every_stage_for_both_input_sets():
    proc = run("--repeat", "2")
    assert proc.returncode == 0, proc.stderr
    tables = proc.stdout.strip().split("\n\n")
    assert [t.splitlines()[0].split(",")[0] for t in tables] == [
        "validate-21 systems", "bundled 8-grade data",
        "stress-fan system and scenarios"]
    for table, stages in zip(tables, (STAGES, STAGES, STRESS_STAGES)):
        rows = [line.strip("|").split("|") for line in table.splitlines()[3:]]
        assert tuple(name.strip() for name, _ in rows) == stages
        assert all(float(us) > 0.0 for _, us in rows[:-1])


def test_rejects_a_repeat_count_below_one():
    proc = run("--repeat", "0")
    assert proc.returncode == 2
    assert "--repeat must be >= 1" in proc.stderr
