import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def write_dirs(tmp_path, a: dict, b: dict):
    for side, files in (("a", a), ("b", b)):
        for name, text in files.items():
            target = tmp_path / side / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
    return [str(tmp_path / "a"), str(tmp_path / "b")]


@pytest.mark.parametrize("b_text, code, needle", [
    ("t,0.5\n1,0.25\n", 0, "byte-identical (2): chart.svg, path.csv"),
    ("t,0.5\n1,0.2500000000000001\n", 0,
     "path.csv: largest numeric delta 1.110e-16"),
    ("t,0.5\n1,0.2500001\n", 1, "path.csv: largest numeric delta 1.000e-07"),
    ("t,0.5\n1,nan\n", 1, "path.csv: largest numeric delta inf"),
    ("t,0.5\n2,0.25,x\n", 1, "path.csv: non-numeric change"),
    ("t,0.5\n1,0.25,3\n", 1, "path.csv: non-numeric change: 3 numbers against 4"),
])
def test_reports_identical_files_and_deltas(tmp_path, capsys, b_text, code,
                                            needle):
    argv = write_dirs(tmp_path,
                      {"path.csv": "t,0.5\n1,0.25\n", "chart.svg": "<svg/>"},
                      {"path.csv": b_text, "chart.svg": "<svg/>"})
    assert compare_outputs.main(argv) == code
    assert needle in capsys.readouterr().out


def test_file_in_one_directory_only_fails(tmp_path, capsys):
    argv = write_dirs(tmp_path, {"report.json": "{}"},
                      {"report.json": "{}", "extra.json": "{}"})
    assert compare_outputs.main(argv) == 1
    assert "extra.json: only in" in capsys.readouterr().out


def test_json_keys_count_as_text(tmp_path, capsys):
    argv = write_dirs(tmp_path, {"r.json": '{"verdict": "pass", "x": 1e-05}'},
                      {"r.json": '{"verdict": "warn", "x": 1e-05}'})
    assert compare_outputs.main(argv) == 1
    assert '"verdict": "pass"' in capsys.readouterr().out
