"""Smoke test of scripts/emit_bundled_outputs.py: two runs write the same
bytes to every expected file, and scripts/compare_outputs.py agrees."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import ttcstress as ts

from conftest import CLI_FILES

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_outputs = load("compare_outputs")
emit_bundled_outputs = load("emit_bundled_outputs")


def test_bundled_outputs_reproduce_byte_for_byte(tmp_path, capsys):
    src = str(Path(ts.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    for side in ("a", "b"):
        proc = subprocess.run([sys.executable,
                               str(SCRIPTS / "emit_bundled_outputs.py"),
                               str(tmp_path / side)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert "only in" not in capsys.readouterr().out
    root = tmp_path / "a"
    found = {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}
    # compare_outputs passes numbers that differ by up to 1e-12; bytes may not
    assert [rel for rel in sorted(found) if (root / rel).read_bytes()
            != (tmp_path / "b" / rel).read_bytes()] == []

    expected, refused = set(), set()
    for rel, argv in emit_bundled_outputs.calls():
        expected |= {f"{rel}/{name}"
                     for name in ("stdout.txt", "stderr.txt", "exit_code.txt")}
        if "--out-dir" in argv:
            variant = rel.rsplit("/", 1)[1]
            files = CLI_FILES[argv[0]]
            if variant in ("default", "text"):
                names = files.values()
            elif variant in files:
                names = [files[variant]]
            else:
                names = []
                refused.add(rel)
            expected |= {f"{rel}/out/{name}" for name in names}
    assert found == expected
    for name in CLI_FILES:  # every subcommand's help is recorded
        assert (root / "help" / name / "exit_code.txt").read_text() == "0\n"
    codes = {rel: (root / rel / "exit_code.txt").read_text()
             for rel in ("help/top", "usage-error/validate-tol",
                         "diagnose/json", "propagate-seasoned-z0/bare")}
    assert codes == {"help/top": "0\n", "usage-error/validate-tol": "3\n",
                     "diagnose/json": "1\n",
                     "propagate-seasoned-z0/bare": "0\n"}
    assert len(refused) == 8
    for rel in refused:
        assert (root / rel / "exit_code.txt").read_text() == "3\n"
        assert "invalid choice" in (root / rel / "stderr.txt").read_text()
    ttc_tol = root / "usage-error" / "ttc-tol"
    assert (ttc_tol / "exit_code.txt").read_text() == "3\n"
    assert "--tol" in (ttc_tol / "stderr.txt").read_text()
