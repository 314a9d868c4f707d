"""Smoke test of scripts/stage_times.py: a short run prints the two
validation tables, each with every stage of ``run_validation`` and a
positive time, and the stressed-projection table with each of its kernels;
with ``--against`` each table has both trees' columns and their
difference."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_against_the_same_tree_prints_both_columns():
    tree = str(SCRIPT.parent.parent)
    proc = run("--repeat", "2", "--against", tree)
    assert proc.returncode == 0, proc.stderr
    tables = proc.stdout.strip().split("\n\n")
    assert len(tables) == 3
    title = tables[2].splitlines()[0]
    elements = title.split(", ")[2]
    this, against = elements.removesuffix(" Phi elements per path").split(
        " (against ")
    assert int(this) == int(against.rstrip(")")) > 0
    for table, stages in zip(tables, (STAGES, STAGES, STRESS_STAGES)):
        head = table.splitlines()[1]
        assert head == "| stage | against us | this us | difference |"
        rows = [line.strip("|").split("|") for line in table.splitlines()[3:]]
        assert tuple(row[0].strip() for row in rows) == stages
        for _, against_us, this_us, diff in rows[:-1]:
            assert float(against_us) > 0.0 and float(this_us) > 0.0
            assert float(diff) == pytest.approx(
                float(this_us) - float(against_us), abs=0.11)


def test_rejects_a_tree_without_the_package(tmp_path):
    proc = run("--repeat", "1", "--against", str(tmp_path))
    assert proc.returncode == 2
    assert "no src/ttcstress package" in proc.stderr


def test_rejects_a_repeat_count_below_one():
    proc = run("--repeat", "0")
    assert proc.returncode == 2
    assert "--repeat must be >= 1" in proc.stderr
