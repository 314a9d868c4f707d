import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ttcstress as ts
from ttcstress import cli
from ttcstress.cli import build_parser, cli_dispatch

from conftest import CLI_FILES, DATA, bench_systems

MATRIX = str(DATA / "transition_matrix.csv")
ORIGINATION = str(DATA / "origination.csv")
MIDGRADE = str(DATA / "portfolio_midgrade.csv")
BARBELL = str(DATA / "portfolio_barbell.csv")
SEASONED = str(DATA / "portfolio_seasoned.csv")
TILT = str(DATA / "portfolio_speculative_tilt.csv")
SCENARIO = str(DATA / "scenario.csv")


def run(*argv, capsys):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_counterexample(tmp_path):
    tm = tmp_path / "t3.csv"
    tm.write_text("0,1,0\n1,0,0\n0,0,1\n")
    o = tmp_path / "o3.csv"
    o.write_text("0.5,0.5,0\n")
    p = tmp_path / "p3.csv"
    p.write_text("1,0,0\n")
    return str(tm), str(p), str(o)


class TestTtcCommand:
    def test_prints_portfolio_and_pd(self, capsys):
        code, out, _ = run("ttc", "--matrix", MATRIX,
                           "--origination", ORIGINATION, capsys=capsys)
        assert code == 0
        assert "TTC PD 1.198%" in out
        assert "0.1423" in out

    def test_counterexample_exits_2(self, tmp_path, capsys):
        tm, _, o = write_counterexample(tmp_path)
        code, _, err = run("ttc", "--matrix", tm, "--origination", o,
                           capsys=capsys)
        assert code == 2
        assert "not primitive" in err

    def test_json_format(self, capsys):
        import json
        code, out, _ = run("ttc", "--matrix", MATRIX, "--origination",
                           ORIGINATION, "--format", "json", capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["ttc_pd"] == pytest.approx(0.01198, abs=5e-5)
        assert len(doc["w_ttc"]) == 8


class TestValidateCommand:
    def test_midgrade_warns(self, capsys):
        code, out, _ = run("validate", "--matrix", MATRIX, "--portfolio",
                           MIDGRADE, "--origination", ORIGINATION,
                           capsys=capsys)
        assert code == 1
        assert "warn: spurious-recession" in out
        assert "\x1b[" not in out  # not a tty, so no color codes

    def test_counterexample_fails(self, tmp_path, capsys):
        tm, p, o = write_counterexample(tmp_path)
        code, out, _ = run("validate", "--matrix", tm, "--portfolio", p,
                           "--origination", o, capsys=capsys)
        assert code == 2
        assert "fail: not primitive" in out

    def test_report_json_names_the_defect(self, tmp_path, capsys):
        tm, p, o = write_counterexample(tmp_path)
        code, out, _ = run("validate", "--matrix", tm, "--portfolio", p,
                           "--origination", o, "--format", "json",
                           capsys=capsys)
        assert code == 2
        assert json.loads(out) == {
            "verdict": "fail: not primitive", "primitive": False,
            "defect": "the grades cycle with period 2"}

    def test_size_mismatch_is_an_input_error_not_a_verdict(self, tmp_path,
                                                           capsys):
        # the 3-grade matrix cycles with period 2, but its size disagrees
        # with the 8-grade book and origination first, as in `ttc`
        tm, _, _ = write_counterexample(tmp_path)
        code, out, err = run("validate", "--matrix", tm, "--portfolio",
                             MIDGRADE, "--origination", ORIGINATION,
                             capsys=capsys)
        assert (code, out) == (3, "")
        assert err == ("ttcstress: input error [dimension-mismatch]: "
                       "current (8), matrix (3) and origination (8) sizes "
                       "must agree\n")

    # rows within 1e-12 of unit sum, which the parser keeps as given
    EDGE_SYSTEMS = [
        ("0.491900000001,0.1858,0.3223\n0.5329000000009999,0.0303,0.4368\n"
         "0,0,1\n", "0.48,0.52,0\n", "0.84,0.16,0\n"),
        ("0.38770000000099986,0.2545,0.3578\n"
         "0.49890000000099993,0.0797,0.4214\n0,0,1\n", "0.13,0.87,0\n",
         "0.34,0.66,0\n"),
    ]

    @pytest.mark.parametrize("matrix, orig, book", EDGE_SYSTEMS)
    def test_rows_at_the_sum_bound_pass(self, matrix, orig, book, tmp_path,
                                        capsys):
        paths = []
        for name, text in (("m.csv", matrix), ("o.csv", orig),
                           ("b.csv", book)):
            (tmp_path / name).write_text(text)
            paths.append(str(tmp_path / name))
        assert ts.parse_matrix_csv(matrix).published is None
        m, o, b = paths
        code, out, err = run("validate", "--matrix", m, "--portfolio", b,
                             "--origination", o, capsys=capsys)
        assert (code, err) == (0, "")
        assert out.startswith("verdict: pass\n")
        code, _, err = run("ttc", "--matrix", m, "--origination", o,
                           capsys=capsys)
        assert (code, err) == (0, "")

    def test_barbell_names_its_first_entry_into_the_band(self, capsys):
        argv = ("validate", "--matrix", MATRIX, "--portfolio", BARBELL,
                "--origination", ORIGINATION)
        _, out, _ = run(*argv, capsys=capsys)
        _, doc, _ = run(*argv, "--format", "json", capsys=capsys)
        s = json.loads(doc)["spurious"]
        t, pds = s["first_crossing"], np.array(s["pd_path"])
        outside = np.abs(pds - s["terminal_pd"]) > s["band"] * s["terminal_pd"]
        assert t == 8 and not outside[t] and outside[t:].any()
        assert f"first within band at t={t})" in out
        assert "settles" not in out

    def test_out_dir_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "report"
        code, _, _ = run("validate", "--matrix", MATRIX, "--portfolio",
                         BARBELL, "--origination", ORIGINATION,
                         "--out-dir", str(out_dir), capsys=capsys)
        assert code == 1
        assert (out_dir / "report.json").exists()
        assert (out_dir / "path.csv").exists()
        assert (out_dir / "chart.svg").exists()


class TestPropagateCommand:
    def test_barbell_emits_files_and_warns(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, out, _ = run("propagate", "--matrix", MATRIX, "--portfolio",
                           BARBELL, "--origination", ORIGINATION,
                           "--z", "0", "--horizon", "50",
                           "--out-dir", str(out_dir), capsys=capsys)
        assert code == 1
        assert "spurious-boom" in out
        csv_text = (out_dir / "path.csv").read_text()
        assert len(csv_text.strip().split("\n")) == 52
        assert (out_dir / "chart.svg").exists()

    def test_seasoned_book_exits_clean(self, tmp_path, capsys):
        code, out, _ = run("propagate", "--matrix", MATRIX, "--portfolio",
                           SEASONED, "--origination", ORIGINATION,
                           "--horizon", "50", capsys=capsys)
        assert code == 0
        assert "monotone-convergent" in out

    def test_scenario_driven_run(self, tmp_path, capsys):
        out_dir = tmp_path / "scen"
        code, out, _ = run("propagate", "--matrix", MATRIX, "--portfolio",
                           MIDGRADE, "--origination", ORIGINATION,
                           "--scenario", SCENARIO, "--lag", "1",
                           "--rho", "0.05", "--out-dir", str(out_dir),
                           capsys=capsys)
        assert code in (0, 1)
        table = ts.parse_path_csv((out_dir / "path.csv").read_text())
        assert table.periods == 23  # 24 periods, lag 1
        assert np.abs(table.z).max() > 0.0

    def test_scenario_stresses_at_the_fitted_rho_without_rho(self, capsys):
        scenario = ("propagate", "--matrix", MATRIX, "--portfolio", MIDGRADE,
                    "--origination", ORIGINATION, "--scenario", SCENARIO,
                    "--lag", "1")
        model = ts.fit_macro_model(
            *ts.parse_scenario_csv(Path(SCENARIO).read_text()), lag=1)
        paths = [run(*scenario, *rho, "--format", "csv", capsys=capsys)[1]
                 for rho in ((), ("--rho", repr(model.rho)), ("--rho", "0"))]
        assert paths[0] == paths[1] != paths[2]
        _, out, _ = run(*scenario, capsys=capsys)
        assert (f"stressed at rho = {model.rho!r} (fitted on the scenario)"
                in out.splitlines())

    def test_nonzero_z_without_rho_is_input_error(self, capsys):
        book = ("propagate", "--matrix", MATRIX, "--portfolio", MIDGRADE,
                "--origination", ORIGINATION)
        code, out, err = run(*book, "--z", "-1", capsys=capsys)
        assert (code, out) == (3, "")
        assert "--z -1.0 needs --rho" in err
        assert "no period is stressed" in err
        paths = [run(*book, *extra, "--format", "csv", capsys=capsys)
                 for extra in ((), ("--z", "0"), ("--z", "-1", "--rho", "0"))]
        assert paths[0][0] != 3
        assert paths[0][1:] == paths[1][1:]
        assert paths[0][1] == paths[2][1].replace("-1.0,", "0.0,")

    @pytest.mark.parametrize("lag", ["3", "0", "-2"])
    def test_lag_without_scenario_is_input_error(self, lag, capsys):
        code, out, err = run("propagate", "--matrix", MATRIX, "--portfolio",
                             MIDGRADE, "--origination", ORIGINATION, "--lag",
                             lag, "--z", "-1", "--rho", "0.2", capsys=capsys)
        assert (code, out) == (3, "")
        assert f"--lag {lag} needs --scenario" in err

    @pytest.mark.parametrize("extra", [
        ("--rho", "nan", "--format", "json"),
        ("--rho", "1.5", "--z", "0"),
        ("--rho", "-0.5"),
    ], ids=["nan-json", "above-one-z-0", "negative"])
    def test_out_of_range_rho_is_input_error_unstressed_too(self, extra,
                                                            capsys):
        code, out, err = run("propagate", "--matrix", MATRIX, "--portfolio",
                             MIDGRADE, "--origination", ORIGINATION, *extra,
                             capsys=capsys)
        assert (code, out) == (3, "")
        assert "input error [invalid-argument]" in err
        assert "asset correlation must lie in [0, 1)" in err

    def test_unstressed_runs_keep_their_path_json(self, tmp_path, capsys):
        # --rho 0 and --z 0 stress nothing: the default run's path.json,
        # but for the rho source --rho names
        texts = {}
        for name, extra in (("default", ()), ("z-0", ("--z", "0")),
                            ("rho-0", ("--rho", "0"))):
            out_dir = tmp_path / name
            code, _, _ = run("propagate", "--matrix", MATRIX, "--portfolio",
                             MIDGRADE, "--origination", ORIGINATION, *extra,
                             "--out-dir", str(out_dir), capsys=capsys)
            assert code == 1
            texts[name] = (out_dir / "path.json").read_bytes()
        assert texts["default"].endswith(
            b'  "rho": 0.0,\n  "rho_source": "default"\n}\n')
        assert texts["z-0"] == texts["default"]
        assert texts["rho-0"] == texts["default"].replace(
            b'"rho_source": "default"', b'"rho_source": "--rho"')

    @pytest.mark.parametrize("extra, rho, source", [
        ((), 0.0, "default"),
        (("--z", "-1", "--rho", "0.2"), 0.2, "--rho"),
        (("--scenario", SCENARIO, "--lag", "1"), None,
         "fitted on the scenario"),
        (("--scenario", SCENARIO, "--lag", "1", "--rho", "0.05"), 0.05,
         "--rho"),
        (("--scenario", SCENARIO, "--lag", "1", "--rho", "0"), 0.0, "--rho"),
    ], ids=["no-flags", "z-1-rho", "scenario", "scenario-rho", "scenario-rho-0"])
    def test_summary_and_path_json_name_the_rho(self, extra, rho, source,
                                                capsys):
        if rho is None:
            rho = ts.fit_macro_model(
                *ts.parse_scenario_csv(Path(SCENARIO).read_text()),
                lag=1).rho
        argv = ("propagate", "--matrix", MATRIX, "--portfolio", MIDGRADE,
                "--origination", ORIGINATION, *extra)
        _, doc, _ = run(*argv, "--format", "json", capsys=capsys)
        doc = json.loads(doc)
        assert list(doc)[-2:] == ["rho", "rho_source"]
        assert (doc["rho"], doc["rho_source"]) == (rho, source)
        _, out, _ = run(*argv, capsys=capsys)
        stressed = [line for line in out.splitlines()
                    if line.startswith("stressed at")]
        assert stressed == ([f"stressed at rho = {rho!r} ({source})"]
                            if rho > 0.0 else [])

    @pytest.mark.parametrize("horizon, periods", [("10", 10), ("23", 23),
                                                  ("24", None), ("50", None)])
    def test_horizon_longer_than_scenario_is_input_error(self, horizon,
                                                         periods, capsys):
        code, out, err = run("propagate", "--matrix", MATRIX, "--portfolio",
                             MIDGRADE, "--origination", ORIGINATION,
                             "--scenario", SCENARIO, "--lag", "1",
                             "--horizon", horizon, "--format", "csv",
                             capsys=capsys)
        if periods is None:
            assert (code, out) == (3, "")
            assert (f"--horizon {horizon} is longer than the scenario's z "
                    "path of 23 periods") in err
        else:
            assert ts.parse_path_csv(out).periods == periods

    def test_z_and_scenario_conflict(self, capsys):
        code, _, err = run("propagate", "--matrix", MATRIX, "--portfolio",
                           MIDGRADE, "--origination", ORIGINATION,
                           "--z", "1", "--scenario", SCENARIO, capsys=capsys)
        assert code == 3
        assert "mutually exclusive" in err

    @pytest.mark.parametrize("header, message", [
        ("period,credit_index", "scenario file has no macro variable columns"),
        ("period,gdp_growth", "scenario file has no credit_index column"),
    ])
    def test_scenario_columns_named_as_in_fit_macro(self, header, message,
                                                    tmp_path, capsys):
        scenario = tmp_path / "s.csv"
        scenario.write_text(header + "\n2020,0.02\n2021,0.03\n2022,0.01\n")
        for argv in (("propagate", "--matrix", MATRIX, "--portfolio",
                      MIDGRADE, "--origination", ORIGINATION),
                     ("fit-macro",)):
            code, out, err = run(*argv, "--scenario", str(scenario),
                                 capsys=capsys)
            assert (code, out) == (3, "")
            assert err == f"ttcstress: input error [missing-column]: {message}\n"


class TestStressMatrixCommand:
    def test_zero_state_prints_input_matrix(self, capsys, matrix8):
        code, out, _ = run("stress-matrix", "--matrix", MATRIX, "--rho", "0.2",
                           "--z", "0", capsys=capsys)
        assert code == 0
        parsed = ts.parse_matrix_csv(out)
        assert np.array_equal(parsed.probs, matrix8.probs)

    def test_recession_state_increases_default_column(self, capsys, matrix8):
        code, out, _ = run("stress-matrix", "--matrix", MATRIX, "--rho", "0.2",
                           "--z", "-1", capsys=capsys)
        assert code == 0
        stressed = ts.parse_matrix_csv(out)
        assert (stressed.default_column[:-1] >= matrix8.default_column[:-1]).all()
        # grade 1 has zero default probability and must keep it; grade 4 rises
        assert stressed.default_column[0] == 0.0
        assert stressed.default_column[3] > matrix8.default_column[3]


class TestOverflowingStress:
    @pytest.mark.parametrize("argv", [
        ("propagate", "--portfolio", BARBELL, "--origination", ORIGINATION),
        ("stress-matrix",)])
    def test_no_warning_on_stderr(self, argv):
        # (Phi^-1 - sqrt(rho) z) / sqrt(1 - rho) overflows to inf here,
        # whose Phi is the intended limit
        proc = subprocess.run(
            [sys.executable, "-m", "ttcstress", *argv, "--matrix", MATRIX,
             "--z=-1e308", "--rho", "0.9999999999999999"],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")


class TestFitMacroCommand:
    def test_text_output(self, capsys):
        code, out, _ = run("fit-macro", "--scenario", SCENARIO, "--lag", "1",
                           capsys=capsys)
        assert code == 0
        assert "beta[gdp_growth]" in out
        assert "rho =" in out

    def test_json_output(self, capsys):
        import json
        code, out, _ = run("fit-macro", "--scenario", SCENARIO, "--lag", "1",
                           "--format", "json", capsys=capsys)
        doc = json.loads(out)
        assert len(doc["betas"]) == 3
        assert 0.0 <= doc["rho"] < 1.0
        assert len(doc["z_path"]) == 23

    def test_missing_credit_index_rejected(self, tmp_path, capsys):
        f = tmp_path / "macro_only.csv"
        f.write_text("period,gdp\n2020,1.0\n2021,2.0\n")
        code, _, err = run("fit-macro", "--scenario", str(f), capsys=capsys)
        assert code == 3
        assert "credit_index" in err


class TestDiagnoseCommand:
    def test_roundtrip_from_propagate(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        run("propagate", "--matrix", MATRIX, "--portfolio", BARBELL,
            "--origination", ORIGINATION, "--z", "0", "--horizon", "50",
            "--out-dir", str(out_dir), capsys=capsys)
        code, out, _ = run("diagnose", "--path", str(out_dir / "path.csv"),
                           capsys=capsys)
        assert code == 1
        assert "spurious-boom" in out

    def test_monotone_path_exits_zero(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        run("propagate", "--matrix", MATRIX, "--portfolio", SEASONED,
            "--origination", ORIGINATION, "--z", "0", "--horizon", "50",
            "--out-dir", str(out_dir), capsys=capsys)
        code, out, _ = run("diagnose", "--path", str(out_dir / "path.csv"),
                           capsys=capsys)
        assert code == 0
        assert "monotone-convergent" in out


    def test_non_finite_cell_is_an_input_error(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        run("propagate", "--matrix", MATRIX, "--portfolio", BARBELL,
            "--origination", ORIGINATION, "--z", "0", "--horizon", "2",
            "--out-dir", str(out_dir), capsys=capsys)
        lines = (out_dir / "path.csv").read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = "nan"
        lines[2] = ",".join(cells)
        (out_dir / "path.csv").write_text("\n".join(lines) + "\n")
        code, out, err = run("diagnose", "--path", str(out_dir / "path.csv"),
                             capsys=capsys)
        assert (code, out) == (3, "")
        assert err == ("ttcstress: input error [invalid-argument]: "
                       "non-finite cell 'nan' at row 3, column 2\n")

class TestDiagnoseAgreesWithPropagate:
    """``diagnose`` on a ``path.csv`` says what the ``propagate`` run that
    wrote it said, on every bundled propagate case."""

    @pytest.mark.parametrize("book", [MIDGRADE, BARBELL, TILT, SEASONED],
                             ids=["midgrade", "barbell", "speculative_tilt",
                                  "seasoned"])
    @pytest.mark.parametrize("stress", [
        (), ("--z", "-1", "--rho", "0.2"),
        ("--scenario", SCENARIO, "--lag", "1", "--rho", "0.05")],
        ids=["z0", "z-1", "scenario"])
    def test_same_classification_and_extrema(self, book, stress, tmp_path,
                                             capsys):
        said = []
        for argv in (("propagate", "--matrix", MATRIX, "--portfolio", book,
                      "--origination", ORIGINATION, *stress,
                      "--out-dir", str(tmp_path)),
                     ("diagnose", "--path", str(tmp_path / "path.csv"))):
            code, out, _ = run(*argv, capsys=capsys)
            said.append((code, re.search(r"^classification: (\S+)$", out,
                                         re.M).group(1),
                         re.search(r"^min \S+ at t=\d+, max \S+ at t=\d+",
                                   out, re.M).group(0)))
        assert said[0] == said[1]


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run("frobnicate", capsys=capsys)
        assert code == 3
        assert "usage:" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run("ttc", "--matrix", MATRIX, "--origination",
                           ORIGINATION, "--bogus", capsys=capsys)
        assert code == 3
        assert "usage:" in err

    def test_no_command_prints_usage(self, capsys):
        code, _, err = run(capsys=capsys)
        assert code == 3

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run("ttc", "--matrix", str(tmp_path / "nope.csv"),
                           "--origination", ORIGINATION, capsys=capsys)
        assert code == 3
        assert "input error" in err

    def test_out_dir_naming_a_file_is_an_io_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code, _, err = run("ttc", "--matrix", MATRIX, "--origination",
                           ORIGINATION, "--out-dir", str(taken), capsys=capsys)
        assert code == 3
        assert err.startswith("ttcstress: i/o error: ")

    def test_bad_vector_data_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.5,0.4\n")
        code, _, err = run("validate", "--matrix", MATRIX, "--portfolio",
                           str(bad), "--origination", ORIGINATION,
                           capsys=capsys)
        assert code == 3
        assert "weight-sum" in err

    def test_sums_are_printed_as_plain_numbers(self, tmp_path, capsys):
        book = tmp_path / "book.csv"
        book.write_text("0.5,0.4,0,0,0,0,0,0\n")
        matrix = tmp_path / "matrix.csv"
        matrix.write_text("0.5,0.6\n0,1\n")
        errors = []
        for m in (MATRIX, str(matrix)):
            code, _, err = run("validate", "--matrix", m, "--portfolio",
                               str(book), "--origination", ORIGINATION,
                               capsys=capsys)
            assert code == 3
            errors.append(err)
        assert errors == [
            "ttcstress: input error [weight-sum]: portfolio sums to 0.9, "
            "outside 1 +- 1e-06\n",
            "ttcstress: input error [row-sum]: row 1 sums to 1.1, "
            "outside 1 +- 0.0001\n"]

    def test_help_exits_zero(self, capsys):
        code, out, _ = run("--help", capsys=capsys)
        assert code == 0
        assert "COMMAND" in out

    def test_bad_cell_of_a_one_row_book_is_named_by_column(self, tmp_path,
                                                           capsys):
        book = tmp_path / "book.csv"
        book.write_text("0.5,0.3,x,0.2,0,0,0,0\n")
        code, _, err = run("validate", "--matrix", MATRIX, "--portfolio",
                           str(book), "--origination", ORIGINATION,
                           capsys=capsys)
        assert (code, err) == (3, "ttcstress: input error [non-numeric]: "
                               "non-numeric cell 'x' at row 1, column 3\n")


class TestInputOrder:
    """A command reports its first bad input in one order: matrix,
    portfolio, origination, then the options the command checks itself."""

    @pytest.mark.parametrize("argv, inputs, last", [
        (["validate"], ("matrix", "portfolio", "origination"), None),
        (["ttc"], ("matrix", "origination"), None),
        (["propagate", "--z", "-1"], ("matrix", "portfolio", "origination"),
         "needs --rho"),
        (["propagate", "--scenario", "{missing}/scenario.csv", "--z", "-1"],
         ("matrix", "portfolio", "origination"), "mutually exclusive"),
        (["propagate", "--scenario", "{missing}/scenario.csv"],
         ("matrix", "portfolio", "origination"),
         "cannot read {missing}/scenario.csv"),
        (["stress-matrix", "--rho", "0.2", "--z", "-1"], ("matrix",), None),
        (["diagnose"], ("path",), None),
    ])
    def test_each_valid_file_moves_the_error_to_the_next(
            self, argv, inputs, last, tmp_path, capsys):
        missing = tmp_path / "missing"
        valid = {"matrix": MATRIX, "portfolio": MIDGRADE,
                 "origination": ORIGINATION, "path": tmp_path / "path.csv"}
        valid["path"].write_text(ts.emit_path_csv(ts.project_path(
            ts.Portfolio([0.5, 0.5]), ts.TransitionMatrix([[0.9, 0.1], [0, 1]]),
            ts.OriginationVector([1.0, 0.0]), 0.0, [0.0])))
        argv = [a.format(missing=missing) for a in argv]
        for k in range(len(inputs) + 1):
            files = [valid[name] if i < k else f"{missing}/{name}.csv"
                     for i, name in enumerate(inputs)]
            code, _, err = run(*argv, *(a for name, f in zip(inputs, files)
                                        for a in (f"--{name}", str(f))),
                               capsys=capsys)
            if k < len(inputs):
                expected = f"cannot read {files[k]}"
            else:
                expected = last and last.format(missing=missing)
            if expected is None:  # every input valid: the command runs
                assert code != 3, err
            else:
                assert code == 3 and expected in err, (expected, err)


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path, capsys):
        outputs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _, _ = run("propagate", "--matrix", MATRIX, "--portfolio",
                             BARBELL, "--origination", ORIGINATION,
                             "--z", "0", "--horizon", "50",
                             "--out-dir", str(out_dir), capsys=capsys)
            assert code == 1
            outputs.append({
                "csv": (out_dir / "path.csv").read_bytes(),
                "svg": (out_dir / "chart.svg").read_bytes(),
                "json": (out_dir / "path.json").read_bytes(),
            })
        assert outputs[0] == outputs[1]

    def test_validate_json_deterministic(self, capsys):
        args = ("validate", "--matrix", MATRIX, "--portfolio", MIDGRADE,
                "--origination", ORIGINATION, "--format", "json")
        _, out1, _ = run(*args, capsys=capsys)
        _, out2, _ = run(*args, capsys=capsys)
        assert out1 == out2


class TestStdoutFormats:
    def test_propagate_csv_to_stdout(self, capsys):
        code, out, _ = run("propagate", "--matrix", MATRIX, "--portfolio",
                           BARBELL, "--origination", ORIGINATION,
                           "--z", "0", "--horizon", "50", "--format", "csv",
                           capsys=capsys)
        assert code == 1
        table = ts.parse_path_csv(out)
        assert table.periods == 50

    def test_propagate_svg_to_stdout(self, capsys):
        code, out, _ = run("propagate", "--matrix", MATRIX, "--portfolio",
                           BARBELL, "--origination", ORIGINATION,
                           "--z", "0", "--horizon", "50", "--format", "svg",
                           capsys=capsys)
        assert code == 1
        assert out.startswith("<?xml") and "</svg>" in out

    def test_propagate_json_to_stdout(self, capsys):
        import json
        code, out, _ = run("propagate", "--matrix", MATRIX, "--portfolio",
                           BARBELL, "--origination", ORIGINATION,
                           "--z", "0", "--horizon", "50", "--format", "json",
                           capsys=capsys)
        assert code == 1
        assert json.loads(out)["classification"] == "spurious-boom"


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "ttcstress", "ttc", "--matrix", MATRIX,
             "--origination", ORIGINATION],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "TTC PD 1.198%" in proc.stdout


class TestTwoGradeSystem:
    def test_minimal_system_end_to_end(self, tmp_path, capsys):
        tm = tmp_path / "t2.csv"
        tm.write_text("0.97,0.03\n0,1\n")
        p = tmp_path / "p2.csv"
        p.write_text("1,0\n")
        o = tmp_path / "o2.csv"
        o.write_text("1,0\n")
        code, out, _ = run("validate", "--matrix", str(tm), "--portfolio",
                           str(p), "--origination", str(o), capsys=capsys)
        assert code == 0
        assert "verdict: pass" in out


class TestShortHorizonClassification:
    def test_barbell_five_periods_is_still_monotone(self, capsys):
        # over 5 periods the PD path only decays toward its terminal value;
        # the spurious dip below the long-run level needs a longer horizon
        code, out, _ = run("propagate", "--matrix", MATRIX, "--portfolio",
                           BARBELL, "--origination", ORIGINATION,
                           "--z", "0", "--horizon", "5", capsys=capsys)
        assert code == 0
        assert "monotone-convergent" in out


class TestColorHandling:
    def test_no_color_env_suppresses_escape_codes(self, capsys, monkeypatch):
        import sys as _sys
        monkeypatch.setattr(_sys.stdout, "isatty", lambda: True, raising=False)
        monkeypatch.setenv("NO_COLOR", "1")
        code, out, _ = run("validate", "--matrix", MATRIX, "--portfolio",
                           MIDGRADE, "--origination", ORIGINATION,
                           capsys=capsys)
        assert code == 1
        assert "\x1b[" not in out

    def test_tty_without_no_color_gets_colored_verdict(self, capsys,
                                                       monkeypatch):
        import sys as _sys
        monkeypatch.setattr(_sys.stdout, "isatty", lambda: True, raising=False)
        monkeypatch.delenv("NO_COLOR", raising=False)
        code, out, _ = run("validate", "--matrix", MATRIX, "--portfolio",
                           MIDGRADE, "--origination", ORIGINATION,
                           capsys=capsys)
        assert code == 1
        assert "\x1b[33m" in out  # warning verdict in yellow


class TestNumericFlagValidation:
    def test_out_of_range_rho_is_input_error(self, capsys):
        code, _, err = run("propagate", "--matrix", MATRIX, "--portfolio",
                           MIDGRADE, "--origination", ORIGINATION,
                           "--z", "-1", "--rho", "1.5", capsys=capsys)
        assert code == 3
        assert "correlation" in err

    def test_zero_horizon_is_input_error(self, capsys):
        code, _, err = run("propagate", "--matrix", MATRIX, "--portfolio",
                           MIDGRADE, "--origination", ORIGINATION,
                           "--horizon", "0", capsys=capsys)
        assert code == 3

    @pytest.mark.parametrize("band", ["-0.1", "nan", "inf"])
    def test_negative_band_is_input_error(self, capsys, band):
        code, _, err = run("propagate", "--matrix", MATRIX, "--portfolio",
                           MIDGRADE, "--origination", ORIGINATION,
                           "--band", band, capsys=capsys)
        assert code == 3


class TestValidateDirectSolve:
    def test_json_gap_is_the_exact_lambda2(self, capsys):
        code, out, _ = run("validate", "--matrix", MATRIX, "--portfolio",
                           MIDGRADE, "--origination", ORIGINATION,
                           "--format", "json", capsys=capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["ttc"]["spectral_gap_estimate"] == doc["perron"]["lambda2"]
        assert doc["ttc"]["iterations"] == 0
        assert doc["ttc"]["final_step_delta"] <= 1e-14

    def test_perron_root_is_reported(self, capsys):
        argv = ("validate", "--matrix", MATRIX, "--portfolio", MIDGRADE,
                "--origination", ORIGINATION)
        _, out, _ = run(*argv, capsys=capsys)
        assert "Perron root 1.0000454, |lambda_2| = 0.9404" in out
        _, out, _ = run(*argv, "--format", "json", capsys=capsys)
        assert json.loads(out)["perron"]["root"] == pytest.approx(
            1.0000454, abs=5e-8)

    def test_text_names_the_direct_solve(self, capsys):
        _, out, _ = run("validate", "--matrix", MATRIX, "--portfolio",
                        MIDGRADE, "--origination", ORIGINATION, capsys=capsys)
        assert "TTC PD 1.198% (direct solve, one-step residual " in out

    def test_tol_is_not_a_validate_option(self, capsys):
        code, _, err = run("validate", "--matrix", MATRIX, "--portfolio",
                           MIDGRADE, "--origination", ORIGINATION,
                           "--tol", "1e-10", capsys=capsys)
        assert code == 3
        assert "--tol" in err


def published_table(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``probs`` in ten-thousandths with each performing row one tick (1e-4)
    off unit sum, up or down, wherever the parser's 1e-4 row-sum tolerance
    admits it in floating point, so the parsed matrix has published rates."""
    ticks = np.rint(probs * 1e4)
    for i in range(len(ticks) - 1):
        for step in rng.permutation([-1, 1]):
            row = ticks[i].copy()
            row[i] += step
            if abs((row / 1e4).sum() - 1.0) <= 1e-4:
                ticks[i] = row
                break
    return ticks / 1e4


def write_system(directory: Path, probs: np.ndarray, orig: np.ndarray):
    """(matrix, origination) CSV paths; shortest round-trip numbers, so the
    parser reads back the exact doubles."""
    matrix, origination = directory / "matrix.csv", directory / "orig.csv"
    matrix.write_text("".join(",".join(repr(float(v)) for v in row) + "\n"
                              for row in probs))
    origination.write_text(",".join(repr(float(v)) for v in orig) + "\n")
    return str(matrix), str(origination)


def ttc_docs(matrix: str, orig: str, capsys) -> tuple[dict, dict]:
    """``ttc --format json`` and the ``ttc`` part of ``validate --format
    json``, with the origination mix as the book."""
    code, out, _ = run("ttc", "--matrix", matrix, "--origination", orig,
                       "--format", "json", capsys=capsys)
    assert code == 0
    code, report, _ = run("validate", "--matrix", matrix, "--portfolio", orig,
                          "--origination", orig, "--format", "json",
                          capsys=capsys)
    assert code in (0, 1)
    return json.loads(out), json.loads(report)["ttc"]


class TestTtcDirectSolve:
    FIELDS = ("w_ttc", "ttc_pd", "final_step_delta", "spectral_gap_estimate")

    def test_bundled_json_is_validate_s_ttc(self, capsys):
        ttc, validated = ttc_docs(MATRIX, ORIGINATION, capsys)
        for field in self.FIELDS:
            assert ttc[field] == validated[field], field
        assert ttc["iterations"] == validated["iterations"] == 0
        assert set(ttc) == {*self.FIELDS, "iterations"}

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_21_grade_json_is_validate_s_ttc(self, seed, tmp_path,
                                                    capsys):
        # JSON floats round-trip, so equal values are equal bits
        rng = np.random.default_rng(9900 + seed)
        probs, orig = bench_systems().rating_system(rng)
        if seed % 2:
            probs = published_table(probs, rng)
        matrix, origination = write_system(tmp_path, probs, orig)
        assert (ts.parse_matrix_csv(Path(matrix).read_text()).published
                is None) == (seed % 2 == 0)
        ttc, validated = ttc_docs(matrix, origination, capsys)
        for field in self.FIELDS:
            assert ttc[field] == validated[field], field

    def test_text_names_the_direct_solve_and_the_exact_lambda2(self, capsys):
        _, out, _ = run("ttc", "--matrix", MATRIX, "--origination",
                        ORIGINATION, capsys=capsys)
        lines = out.splitlines()
        assert lines[1].startswith(
            "TTC PD 1.198% (direct solve, one-step residual ")
        assert lines[2] == "|lambda_2| = 0.9404"

    def test_tol_is_not_a_ttc_option(self, capsys):
        code, _, err = run("ttc", "--matrix", MATRIX, "--origination",
                           ORIGINATION, "--tol", "1e-10", capsys=capsys)
        assert code == 3
        assert "--tol" in err

    def test_never_runs_the_iterative_oracle(self, monkeypatch, capsys):
        tm = ts.parse_matrix_csv(Path(MATRIX).read_text())
        orig = ts.parse_vector_csv(Path(ORIGINATION).read_text(),
                                   "origination")
        oracle = ts.solve_ttc_iterative(tm, orig).w_ttc.weights

        def forbidden(*args, **kwargs):
            raise AssertionError("the ttc command ran the iterative oracle")

        monkeypatch.setattr(ts, "solve_ttc_iterative", forbidden)
        monkeypatch.setattr(ts.ttc, "solve_ttc_iterative", forbidden)
        monkeypatch.setattr(cli, "solve_ttc_iterative", forbidden,
                            raising=False)
        # only the loop reads ttc's _step_matrix, so no alias gets round this
        monkeypatch.setattr(ts.ttc, "_step_matrix", forbidden)
        code, out, _ = run("ttc", "--matrix", MATRIX, "--origination",
                           ORIGINATION, "--format", "json", capsys=capsys)
        assert code == 0
        assert np.abs(np.array(json.loads(out)["w_ttc"]) - oracle).max() <= 1e-10


def run_fresh(script: str) -> str:
    """Run ``script`` in a fresh interpreter that imports this package;
    it must exit 0.  Returns its stdout."""
    src = str(Path(ts.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def dispatch_quietly(argv: list[str], code: int) -> str:
    """Script lines that run ``cli_dispatch(argv)`` with stdout captured
    and assert that it returns ``code``."""
    return ("import contextlib, io, sys\n"
            "import ttcstress\n"
            "from ttcstress.cli import cli_dispatch\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli_dispatch({argv!r})\n"
            f"assert code == {code}, code\n")


def assert_no_scipy(argv: list[str], code: int) -> None:
    """Run ``cli_dispatch(argv)`` in a fresh interpreter; it must return
    ``code`` without importing scipy."""
    run_fresh(dispatch_quietly(argv, code)
              + "assert 'scipy' not in sys.modules\n")


class TestLazyScipy:
    def test_validate_does_not_load_scipy(self):
        assert_no_scipy(["validate", "--matrix", MATRIX, "--portfolio",
                         MIDGRADE, "--origination", ORIGINATION], code=1)

    def test_ttc_does_not_load_scipy(self):
        assert_no_scipy(["ttc", "--matrix", MATRIX, "--origination",
                         ORIGINATION], code=0)


# Phi and Phi^-1 of a seeded array, as the hex of their bytes
PHI_BYTES = (
    "import numpy as np\n"
    "x = np.random.default_rng(26).normal(scale=4.0, size=4096)\n"
    "p = np.random.default_rng(27).random(4096)\n"
    "print(ttcstress.std_normal_cdf(x).tobytes().hex())\n"
    "print(ttcstress.std_normal_inv_cdf(p).tobytes().hex())\n")


class TestPhiUfuncLoader:
    """Phi takes SciPy's compiled ufuncs without importing the
    ``scipy.special`` package, under a stub that no other thread sees."""

    @pytest.mark.parametrize("argv, code", [
        (["stress-matrix", "--matrix", MATRIX, "--rho", "0.2", "--z", "-1"],
         0),
        (["propagate", "--matrix", MATRIX, "--portfolio", MIDGRADE,
          "--origination", ORIGINATION, "--z", "-1", "--rho", "0.2"], 1),
        (["fit-macro", "--scenario", SCENARIO, "--lag", "1"], 0),
    ], ids=["stress-matrix", "propagate-stressed", "fit-macro"])
    def test_stressed_commands_load_only_the_ufuncs(self, argv, code):
        run_fresh(dispatch_quietly(argv, code)
                  + "assert 'scipy.special._ufuncs' in sys.modules\n"
                  "assert 'scipy.special' not in sys.modules\n")

    def test_package_imported_later_has_the_same_ufuncs(self):
        run_fresh(
            "import sys\n"
            "import ttcstress\n"
            "from ttcstress import normal\n"
            "ttcstress.std_normal_cdf(0.0)\n"
            "ndtr, ndtri = normal._ufuncs\n"
            "assert 'scipy.special' not in sys.modules\n"
            "ufuncs = sys.modules['scipy.special._ufuncs']\n"
            "import scipy.special\n"
            "assert scipy.special.__file__.endswith('__init__.py')\n"
            "assert scipy.special.ndtr is ndtr\n"
            "assert scipy.special.ndtri is ndtri\n"
            "assert scipy.special._ufuncs is ufuncs\n")

    def test_fallback_to_the_package_gives_the_same_bits(self):
        fallback = run_fresh(
            "import importlib, sys\n"
            "import ttcstress\n"
            "real = importlib.import_module\n"
            "def refuse(name, *args):\n"
            "    if name == 'scipy.special._ufuncs':\n"
            "        raise ImportError(name)\n"
            "    return real(name, *args)\n"
            "importlib.import_module = refuse\n"
            + PHI_BYTES +
            "assert sys.modules['scipy.special'].__file__.endswith("
            "'__init__.py')\n")
        stubbed = run_fresh("import sys\nimport ttcstress\n" + PHI_BYTES
                            + "assert 'scipy.special' not in sys.modules\n")
        assert fallback == stubbed
        assert len(fallback) == 2 * (2 * 8 * 4096 + 1)

    def test_another_thread_importing_during_the_load_gets_the_package(self):
        # the main thread's import pauses once it looks for a scipy.special
        # module, while the other thread runs `from scipy.special import`
        run_fresh(
            "import sys, threading, time\n"
            "import ttcstress\n"
            "from ttcstress import normal\n"
            "go = threading.Event()\n"
            "class Pause:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if (name.startswith('scipy.special') and not go.is_set()\n"
            "                and threading.current_thread()\n"
            "                is threading.main_thread()):\n"
            "            go.set()\n"
            "            time.sleep(0.3)\n"
            "seen = {}\n"
            "def other():\n"
            "    go.wait()\n"
            "    try:\n"
            "        from scipy.special import ndtr, ndtri\n"
            "        seen['pair'] = ndtr, ndtri\n"
            "    except ImportError as exc:\n"
            "        seen['error'] = exc\n"
            "thread = threading.Thread(target=other)\n"
            "thread.start()\n"
            "sys.meta_path.insert(0, Pause())\n"
            "ndtr, ndtri = normal._phi_ufuncs()\n"
            "go.set()\n"
            "thread.join(30)\n"
            "assert not thread.is_alive()\n"
            "assert 'error' not in seen, seen\n"
            "assert seen['pair'][0] is ndtr and seen['pair'][1] is ndtri\n"
            "assert sys.modules['scipy.special'].__file__.endswith("
            "'__init__.py')\n")

def tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_calls_match_fresh_processes(self, tmp_path, monkeypatch, capsys):
        # no argument value may carry over from one call to the next
        book = ["--matrix", MATRIX, "--portfolio", MIDGRADE,
                "--origination", ORIGINATION]
        sequence = [
            ["validate", *book, "--out-dir", "validated"],
            ["ttc", "--matrix", MATRIX, "--origination", ORIGINATION,
             "--format", "json"],
            ["propagate", *book, "--z", "-1", "--rho", "0.2",
             "--out-dir", "stressed"],
            ["propagate", *book, "--out-dir", "plain"],
            ["validate", *book, "--tol", "1"],
            ["--help"],
            ["--help"],
            ["propagate", *book, "--scenario", SCENARIO, "--lag", "1",
             "--rho", "0.05", "--format", "csv", "--out-dir", "scenario"],
            ["stress-matrix", "--matrix", MATRIX, "--rho", "0.2", "--z", "-1"],
            ["fit-macro", "--scenario", SCENARIO, "--lag", "1",
             "--format", "json"],
            ["diagnose", "--path", "plain/path.csv"],
        ]
        monkeypatch.setenv("COLUMNS", "80")  # help wraps at this width
        inproc, fresh = tmp_path / "inproc", tmp_path / "fresh"
        inproc.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(inproc)
        got = [run(*argv, capsys=capsys) for argv in sequence]
        src = str(Path(ts.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        for argv, result in zip(sequence, got):
            proc = subprocess.run([sys.executable, "-m", "ttcstress", *argv],
                                  capture_output=True, text=True, cwd=fresh,
                                  env=env)
            assert result == (proc.returncode, proc.stdout, proc.stderr), argv
        assert [code for code, _, _ in got] == [1, 0, 1, 1, 3, 0, 0, 1, 0, 0,
                                                1]
        assert tree(inproc) == tree(fresh)
        assert set(tree(inproc)) == {
            "validated/report.json", "validated/path.csv",
            "validated/chart.svg", "scenario/path.csv",
            *(f"{d}/{f}" for d in ("stressed", "plain")
              for f in ("path.csv", "chart.svg", "path.json"))}


FORMATS = ("text", "csv", "json", "svg")


def command(name: str, tmp_path: Path, capsys) -> tuple[list[str], int]:
    """(argv, exit code) of one run of ``name`` on the bundled data."""
    book = ["--matrix", MATRIX, "--portfolio", BARBELL,
            "--origination", ORIGINATION]
    if name == "diagnose":
        source = tmp_path / "source"
        run("propagate", *book, "--format", "csv", "--out-dir", str(source),
            capsys=capsys)
        return ["diagnose", "--path", str(source / "path.csv")], 1
    return {"validate": (["validate", *book], 1),
            "propagate": (["propagate", *book], 1),
            "ttc": (["ttc", "--matrix", MATRIX, "--origination", ORIGINATION],
                    0),
            "stress-matrix": (["stress-matrix", "--matrix", MATRIX,
                               "--rho", "0.2", "--z", "-1"], 0),
            "fit-macro": (["fit-macro", "--scenario", SCENARIO, "--lag", "1"],
                          0)}[name]


class TestOutputPolicy:
    @pytest.mark.parametrize("name, fmt", [
        (name, fmt) for name in CLI_FILES for fmt in FORMATS[1:]
        if fmt not in CLI_FILES[name]])
    def test_a_format_the_command_does_not_emit_is_a_usage_error(
            self, name, fmt, tmp_path, capsys):
        argv, _ = command(name, tmp_path, capsys)
        out_dir = tmp_path / "out"
        code, out, err = run(*argv, "--format", fmt, "--out-dir", str(out_dir),
                             capsys=capsys)
        assert code == 3
        assert out == ""
        assert f"invalid choice: '{fmt}'" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("name, fmt", [
        (name, fmt) for name in CLI_FILES for fmt in FORMATS
        if fmt in CLI_FILES[name]])
    def test_a_format_writes_and_prints_that_one_file(self, name, fmt,
                                                      tmp_path, capsys):
        argv, expected = command(name, tmp_path, capsys)
        out_dir = tmp_path / "out"
        code, out, _ = run(*argv, "--format", fmt, "--out-dir", str(out_dir),
                           capsys=capsys)
        assert code == expected
        assert tree(out_dir) == {CLI_FILES[name][fmt]: out.encode()}
        assert run(*argv, "--format", fmt, capsys=capsys) == (code, out, "")

    @pytest.mark.parametrize("name", CLI_FILES)
    @pytest.mark.parametrize("fmt", [None, "text"])
    def test_no_format_writes_every_file_and_prints_the_summary(
            self, name, fmt, tmp_path, capsys):
        argv, expected = command(name, tmp_path, capsys)
        out_dir = tmp_path / "out"
        extra = ("--format", fmt) if fmt else ()
        code, out, _ = run(*argv, *extra, "--out-dir", str(out_dir),
                           capsys=capsys)
        assert code == expected
        summary = run(*argv, capsys=capsys)[1]
        if name == "propagate":
            summary += f"wrote path.csv, chart.svg, path.json to {out_dir}\n"
        assert out == summary
        assert tree(out_dir) == {
            file: run(*argv, "--format", kind, capsys=capsys)[1].encode()
            for kind, file in CLI_FILES[name].items()}

    def test_stress_matrix_summary_is_its_csv(self, tmp_path, capsys):
        argv, _ = command("stress-matrix", tmp_path, capsys)
        assert run(*argv, capsys=capsys) == run(*argv, "--format", "csv",
                                                capsys=capsys)

    def test_failed_validate_prints_no_path(self, tmp_path, capsys):
        tm, p, o = write_counterexample(tmp_path)
        out_dir = tmp_path / "out"
        code, out, err = run("validate", "--matrix", tm, "--portfolio", p,
                             "--origination", o, "--format", "csv",
                             "--out-dir", str(out_dir), capsys=capsys)
        assert code == 2
        assert out == ""
        assert err == ("verdict: fail: not primitive\n"
                       "reason: the grades cycle with period 2\n")
        assert tree(out_dir) == {}

    @pytest.mark.parametrize("fmt", [None, "text", "json", "svg"])
    def test_failed_validate_names_the_defect_in_every_format(
            self, fmt, tmp_path, capsys):
        tm, p, o = write_counterexample(tmp_path)
        extra = ("--format", fmt) if fmt else ()
        code, out, err = run("validate", "--matrix", tm, "--portfolio", p,
                             "--origination", o, *extra, capsys=capsys)
        assert code == 2
        if fmt in (None, "text"):
            assert err == ""
            assert out.splitlines()[:2] == [
                "verdict: fail: not primitive",
                "primitive performing block: False "
                "(the grades cycle with period 2)"]
        else:
            assert err == ("verdict: fail: not primitive\n"
                           "reason: the grades cycle with period 2\n")


class TestLazyEmission:
    PROPAGATE = ("propagate", "--matrix", MATRIX, "--portfolio", BARBELL,
                 "--origination", ORIGINATION)
    VALIDATE = ("validate", "--matrix", MATRIX, "--portfolio", BARBELL,
                "--origination", ORIGINATION)

    @pytest.fixture
    def built(self, monkeypatch):
        """The strings each emitter returned, by emitter."""
        texts = {"csv": [], "svg": [], "json": []}

        def counting(kind, emit):
            def wrapper(*args, **kwargs):
                texts[kind].append(emit(*args, **kwargs))
                return texts[kind][-1]
            return wrapper

        monkeypatch.setattr(cli, "emit_path_csv",
                            counting("csv", cli.emit_path_csv))
        monkeypatch.setattr(cli, "emit_svg_chart",
                            counting("svg", cli.emit_svg_chart))
        monkeypatch.setattr(cli, "_json_text", counting("json", cli._json_text))
        return texts

    @pytest.mark.parametrize("fmt, calls", [
        (None, (0, 0)), ("text", (0, 0)), ("json", (0, 0)),
        ("csv", (1, 0)), ("svg", (0, 1)),
    ])
    def test_without_out_dir_builds_only_what_it_prints(self, built, capsys,
                                                        fmt, calls):
        extra = ("--format", fmt) if fmt else ()
        code, out, _ = run(*self.PROPAGATE, *extra, capsys=capsys)
        assert code == 1
        assert (len(built["csv"]), len(built["svg"])) == calls
        if fmt in ("csv", "svg"):
            assert out == built[fmt][0]

    @pytest.mark.parametrize("fmt, calls", [
        (None, (1, 1)), ("text", (1, 1)), ("json", (0, 0)),
        ("csv", (1, 0)), ("svg", (0, 1)),
    ])
    def test_out_dir_builds_each_file_once(self, built, tmp_path, capsys,
                                           fmt, calls):
        extra = ("--format", fmt) if fmt else ()
        code, _, _ = run(*self.PROPAGATE, *extra, "--out-dir", str(tmp_path),
                         capsys=capsys)
        assert code == 1
        assert (len(built["csv"]), len(built["svg"])) == calls
        for kind, name in (("csv", "path.csv"), ("svg", "chart.svg")):
            if built[kind]:
                assert ((tmp_path / name).read_bytes()
                        == built[kind][0].encode("utf-8"))
            else:
                assert not (tmp_path / name).exists()

    @pytest.mark.parametrize("fmt, calls", [
        (None, (0, 0, 0)), ("text", (0, 0, 0)), ("json", (0, 0, 1)),
        ("csv", (1, 0, 0)), ("svg", (0, 1, 0)),
    ])
    def test_validate_builds_only_what_it_prints(self, built, capsys, fmt,
                                                 calls):
        extra = ("--format", fmt) if fmt else ()
        code, out, _ = run(*self.VALIDATE, *extra, capsys=capsys)
        assert code == 1
        assert tuple(len(built[k]) for k in ("csv", "svg", "json")) == calls
        if fmt in ("csv", "svg", "json"):
            assert out == built[fmt][0]


# every bundled input, read by path from a directory that holds them all
_DATA_BOOK = ["--matrix", "data/transition_matrix.csv", "--origination",
              "data/origination.csv"]
READS_EVERY_INPUT = [
    *(["validate", *_DATA_BOOK, "--portfolio", f"data/portfolio_{name}.csv",
       "--out-dir", f"validated_{name}"]
      for name in ("midgrade", "barbell", "seasoned", "speculative_tilt")),
    ["ttc", *_DATA_BOOK, "--format", "json"],
    ["propagate", *_DATA_BOOK, "--portfolio", "data/portfolio_barbell.csv",
     "--z", "-1", "--rho", "0.2", "--out-dir", "stressed"],
    ["propagate", *_DATA_BOOK, "--portfolio", "data/portfolio_midgrade.csv",
     "--scenario", "data/scenario.csv", "--lag", "1", "--rho", "0.05",
     "--out-dir", "scenario"],
    ["stress-matrix", "--matrix", "data/transition_matrix.csv", "--rho",
     "0.2", "--z", "-1"],
    ["fit-macro", "--scenario", "data/scenario.csv", "--lag", "1"],
    ["diagnose", "--path", "data/path.csv"],
]


class TestByteOrderMark:
    """An input saved with a UTF-8 byte-order mark (Excel's "CSV UTF-8")
    reads as the same file without one."""

    def test_inputs_with_a_bom_give_the_same_runs(self, tmp_path,
                                                  monkeypatch, capsys):
        inputs = {f"data/{p.name}": p.read_bytes() for p in DATA.iterdir()}
        assert len(inputs) == 7
        code, path_csv, _ = run(
            "propagate", "--matrix", MATRIX, "--portfolio", SEASONED,
            "--origination", ORIGINATION, "--format", "csv", capsys=capsys)
        assert code == 0
        inputs["data/path.csv"] = path_csv.encode()
        runs = {}
        for side, prefix in (("plain", b""), ("bom", "\ufeff".encode())):
            root = tmp_path / side
            (root / "data").mkdir(parents=True)
            for name, data in inputs.items():
                (root / name).write_bytes(prefix + data)
            monkeypatch.chdir(root)
            got = [run(*argv, capsys=capsys) for argv in READS_EVERY_INPUT]
            for name in inputs:
                (root / name).unlink()
            runs[side] = got, tree(root)
        (plain, plain_files), (bom, bom_files) = runs["plain"], runs["bom"]
        for argv, a, b in zip(READS_EVERY_INPUT, plain, bom):
            assert a == b, argv
        assert [code for code, _, _ in plain] == [1, 1, 0, 1, 0, 1, 1, 0, 0,
                                                  0]
        assert plain_files == bom_files
        assert len(plain_files) == 4 * 3 + 2 * 3
