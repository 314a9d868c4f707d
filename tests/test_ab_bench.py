import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_bench.py"
spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)


class StubRunner:
    """Stands in for bench/run.py: the change is 20% faster on every seed
    but seed 3, and records the order of the runs."""

    def __init__(self):
        self.calls = []

    def __call__(self, tree, workload, seed):
        side = tree.name
        self.calls.append((side, workload, seed))
        ops = 1000.0 + 10.0 * seed
        if side == "change" and seed != 3:
            ops *= 1.2
        metrics = {"ops_per_s": ops, "op_ms.p50": 1000.0 / ops,
                   "op_ms.p90": 2000.0 / ops, "setup_s": 0.5,
                   "peak_rss_mb": 58.0}
        result = {"correct": True, "attempted": 100, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "x"}
                              for k, v in metrics.items()}}
        return {"git_sha": side, "src_sha256": side * 2}, result


def test_alternating_pairs_summary_and_json(tmp_path, capsys):
    (tmp_path / "parent").mkdir()
    (tmp_path / "change").mkdir()
    out = tmp_path / "BENCH.json"
    runner = StubRunner()
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"),
            "--workload", "stress-fan", "--pairs", "4", "--seed", "1",
            "--out", str(out)]
    assert ab_bench.main(argv, runner=runner) == 0
    assert [(side, seed) for side, _, seed in runner.calls] == [
        ("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
        ("parent", 3), ("change", 3), ("change", 4), ("parent", 4)]
    assert {w for _, w, _ in runner.calls} == {"stress-fan"}

    text = capsys.readouterr().out
    assert "ops_per_s" in text and "3/4 (higher is better)" in text
    assert "failed ops: 0" in text

    doc = json.loads(out.read_text())
    fan = doc["stress-fan"]
    assert fan["seconds"] == ab_bench.SPEC["run_seconds"]
    ops = fan["summary"]["ops_per_s"]
    assert ops["wins"] == 3 and ops["pairs"] == 4
    assert ops["parent"]["median"] == 1025.0
    assert ops["values"]["change"] == [1212.0, 1224.0, 1030.0, 1248.0]
    assert fan["summary"]["op_ms.p50"]["wins"] == 3
    assert fan["summary"]["setup_s"]["wins"] == 0
    assert [r["provenance"]["git_sha"] for r in fan["runs"]["change"]] == [
        "change"] * 4
    assert [r["seed"] for r in fan["runs"]["parent"]] == [1, 2, 3, 4]

    # a second workload is added to the same file
    argv[3] = "validate-21"
    assert ab_bench.main(argv, runner=StubRunner()) == 0
    assert set(json.loads(out.read_text())) == {"stress-fan", "validate-21"}


def test_failed_ops_and_broken_runs_set_the_exit_code(tmp_path, capsys):
    (tmp_path / "parent").mkdir()
    (tmp_path / "change").mkdir()
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"),
            "--workload", "stress-fan", "--pairs", "1"]

    def failing(tree, workload, seed):
        provenance, result = StubRunner()(tree, workload, seed)
        result["failed"] = 1
        return provenance, result

    def broken(tree, workload, seed):
        raise RuntimeError("bench/run.py exited 2")

    assert ab_bench.main(argv, runner=failing) == 1
    assert ab_bench.main(argv, runner=broken) == 2
    assert "ab_bench: bench/run.py exited 2" in capsys.readouterr().err


@pytest.mark.parametrize("workload", ["all", "stres-fan"])
def test_undeclared_workload_is_a_usage_error(tmp_path, capsys, workload):
    runner = StubRunner()
    argv = [str(tmp_path), str(tmp_path), "--workload", workload]
    with pytest.raises(SystemExit) as exc:
        ab_bench.main(argv, runner=runner)
    assert exc.value.code == 2 and runner.calls == []
    assert "invalid choice" in capsys.readouterr().err


def test_run_length_is_not_an_option(tmp_path, capsys):
    argv = [str(tmp_path), str(tmp_path), "--workload", "stress-fan",
            "--seconds", "5"]
    with pytest.raises(SystemExit) as exc:
        ab_bench.main(argv, runner=StubRunner())
    assert exc.value.code == 2


def git_tree(path: Path, edit: bool) -> Path:
    """A git repository with one committed file under src/, edited after
    the commit if ``edit``."""
    (path / "src").mkdir(parents=True)
    (path / "src" / "mod.py").write_text("x = 1\n")
    git = ["git", "-C", str(path), "-c", "user.name=ab", "-c",
           "user.email=ab@example.invalid"]
    for args in (["init", "-q"], ["add", "src"], ["commit", "-q", "-m", "a"]):
        subprocess.run(git + args, check=True, capture_output=True)
    if edit:
        (path / "src" / "mod.py").write_text("x = 2\n")
    return path


def test_sha_of_a_tree_with_edited_src_is_not_recorded(tmp_path):
    parent = git_tree(tmp_path / "parent", edit=False)
    change = git_tree(tmp_path / "change", edit=True)
    out = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--workload", "stress-fan",
            "--pairs", "2", "--out", str(out)]
    assert ab_bench.main(argv, runner=StubRunner()) == 0
    runs = json.loads(out.read_text())["stress-fan"]["runs"]
    assert [r["provenance"]["git_sha"] for r in runs["parent"]] == [
        "parent"] * 2
    assert [r["provenance"]["git_sha"] for r in runs["change"]] == [None] * 2
    assert [r["provenance"]["src_sha256"] for r in runs["change"]] == [
        "changechange"] * 2
