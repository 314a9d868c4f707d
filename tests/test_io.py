import dataclasses

import numpy as np
import pytest

import ttcstress as ts
from ttcstress.errors import InputError
from ttcstress.io_formats import fmt
from ttcstress.propagation import ProjectionPath

import oracles
from conftest import bench_systems, random_portfolio, random_system
from test_kernel import seeded_cases


@pytest.fixture(scope="module")
def barbell_path(matrix8, origination8, portfolios):
    return ts.project_path(portfolios["barbell"], matrix8, origination8,
                           rho=0.0, z_path=np.zeros(50))


class TestParseMatrixCsv:
    def test_bundled_matrix(self, data_dir):
        text = (data_dir / "transition_matrix.csv").read_text()
        tm = ts.parse_matrix_csv(text)
        assert tm.n == 8
        raw = np.loadtxt(data_dir / "transition_matrix.csv", delimiter=",")
        assert np.abs(raw.sum(axis=1) - 1.0).max() <= 1e-4
        assert np.abs(tm.probs.sum(axis=1) - 1.0).max() <= 1e-12

    def test_minimal_two_grade_matrix(self):
        tm = ts.parse_matrix_csv("1,0\n0,1\n")
        assert np.array_equal(tm.probs, np.eye(2))

    def test_header_row_is_skipped(self):
        tm = ts.parse_matrix_csv("g1,g2\n1,0\n0,1\n")
        assert tm.n == 2

    def test_row_sum_failure_names_row(self):
        with pytest.raises(InputError) as err:
            ts.parse_matrix_csv("0.5,0.4\n0,1\n")
        assert err.value.code == "row-sum"
        assert "row 1" in str(err.value)

    @staticmethod
    def csv_text(probs: np.ndarray) -> str:
        return "".join(",".join(repr(float(v)) for v in row) + "\n"
                       for row in probs)

    def test_rows_one_tick_off_unit_sum_parse(self):
        # four-decimal rows one tick (1e-4) off: their floating-point sums
        # land up to a few ulp outside the 1e-4 bound
        for seed in range(100):
            probs, _ = bench_systems().rating_system(
                np.random.default_rng(seed))
            idx = np.arange(probs.shape[0] - 1)
            for step in (-1e-4, 1e-4):
                ticked = probs.copy()
                ticked[idx, idx] = np.round(probs[idx, idx] + step, 4)
                tm = ts.parse_matrix_csv(self.csv_text(ticked))
                assert np.array_equal(tm.published, ticked)

    @pytest.mark.parametrize("offset", [-2e-4, -1.001e-4, 1.001e-4, 2e-4])
    def test_rows_beyond_the_bound_are_rejected(self, offset):
        for seed in range(20):
            probs, _ = bench_systems().rating_system(
                np.random.default_rng(seed))
            i = seed % (probs.shape[0] - 1)
            probs[i, i] += offset
            with pytest.raises(InputError) as err:
                ts.parse_matrix_csv(self.csv_text(probs))
            assert err.value.code == "row-sum"
            assert str(err.value) == (f"row {i + 1} sums to "
                                      f"{float(probs[i].sum())!r}, "
                                      "outside 1 +- 0.0001")

    def test_ragged_rows_rejected(self):
        with pytest.raises(InputError) as err:
            ts.parse_matrix_csv("1,0\n0,1,0\n")
        assert err.value.code == "ragged"

    def test_non_numeric_cell_reports_position(self):
        with pytest.raises(InputError) as err:
            ts.parse_matrix_csv("1,0\n0,oops\n")
        assert err.value.code == "non-numeric"
        assert "row 2, column 2" in str(err.value)

    def test_empty_input_rejected(self):
        with pytest.raises(InputError) as err:
            ts.parse_matrix_csv("")
        assert err.value.code == "empty"


class TestParseVectorCsv:
    def test_row_form(self):
        p = ts.parse_vector_csv("0.70,0,0,0,0,0.25,0.05,0", "portfolio")
        assert isinstance(p, ts.Portfolio)
        assert p.weights[0] == pytest.approx(0.70, abs=1e-15)

    def test_column_form(self):
        p = ts.parse_vector_csv("0.5\n0.3\n0.2\n", "portfolio")
        assert p.n == 3

    def test_origination_accepted(self):
        o = ts.parse_vector_csv("0,0.20,0.30,0.30,0.20,0,0,0", "origination")
        assert isinstance(o, ts.OriginationVector)
        assert o.weights[-1] == 0.0

    def test_origination_into_default_rejected(self):
        with pytest.raises(InputError) as err:
            ts.parse_vector_csv("0,0.2,0.3,0.2,0.2,0,0,0.1", "origination")
        assert err.value.code == "origination-into-default"

    def test_small_sum_error_renormalized(self):
        p = ts.parse_vector_csv("0.5,0.5000001", "portfolio")
        assert p.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_large_sum_error_rejected(self):
        with pytest.raises(InputError) as err:
            ts.parse_vector_csv("0.5,0.4", "portfolio")
        assert err.value.code == "weight-sum"

    @pytest.mark.parametrize("text, code", [
        ("0.6,-0.1,0.5", "negative-entry"),
        ("1", "shape"),
        ("0.5,nan", "invalid-argument"),
    ])
    def test_vector_checks_are_the_vector_types(self, text, code):
        for kind in ("portfolio", "origination"):
            with pytest.raises(InputError) as err:
                ts.parse_vector_csv(text, kind)
            assert err.value.code == code
            assert str(err.value).startswith(kind + " ")

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(InputError) as err:
            ts.parse_vector_csv("0.5,0.5\n0.5,0.5\n", "portfolio")
        assert err.value.code == "shape"

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            ts.parse_vector_csv("0.5,0.5", "book")

    @pytest.mark.parametrize("text, where", [
        ("0.5,0.3,x,0.2\n", "row 1, column 3"),
        ("0.5\n0.3\nx\n0.2\n", "row 3, column 1"),
    ])
    def test_bad_cell_named_by_row_and_column(self, text, where):
        with pytest.raises(InputError) as err:
            ts.parse_vector_csv(text, "portfolio")
        assert err.value.code == "non-numeric"
        assert str(err.value) == f"non-numeric cell 'x' at {where}"


class TestParseScenarioCsv:
    def test_credit_index_only(self):
        series, scenario = ts.parse_scenario_csv(
            "period,credit_index\n2020,0.02\n2021,0.03\n")
        assert scenario is None
        assert np.array_equal(series.values, [0.02, 0.03])
        assert series.periods == ("2020", "2021")

    def test_credit_index_and_macro_columns(self):
        series, scenario = ts.parse_scenario_csv(
            "period,credit_index,gdp,unemp\n"
            "2020,0.02,1.5,6.0\n2021,0.03,0.5,7.0\n")
        assert series is not None
        assert scenario.n_vars == 2
        assert scenario.names == ("gdp", "unemp")
        assert np.array_equal(scenario.values, [[1.5, 6.0], [0.5, 7.0]])

    def test_macro_only(self):
        series, scenario = ts.parse_scenario_csv(
            "period,gdp\n2020,1.5\n2021,0.5\n")
        assert series is None
        assert scenario.n_vars == 1

    def test_boundary_credit_index_parses_then_fails_calibration(self):
        series, _ = ts.parse_scenario_csv(
            "period,credit_index\n2020,0.02\n2021,1.0\n")
        with pytest.raises(InputError) as err:
            ts.estimate_p_rho(series)
        assert err.value.code == "boundary"

    def test_missing_header_rejected(self):
        with pytest.raises(InputError) as err:
            ts.parse_scenario_csv("2020,0.02\n2021,0.03\n")
        assert err.value.code == "missing-header"

    def test_non_numeric_cell_rejected(self):
        with pytest.raises(InputError) as err:
            ts.parse_scenario_csv("period,credit_index\n2020,low\n")
        assert err.value.code == "non-numeric"

    @pytest.mark.parametrize("header", [
        "period,credit_index,gdp,credit_index",
        "period,gdp,gdp",
        "period,credit_index,gdp,unemp,gdp",
    ])
    def test_repeated_column_name_rejected(self, header):
        cells = header.count(",")
        text = header + "\n" + "2020" + ",0.02" * cells + "\n"
        with pytest.raises(InputError) as err:
            ts.parse_scenario_csv(text)
        assert err.value.code == "duplicate-column"

    def test_single_column_rejected(self):
        with pytest.raises(InputError) as err:
            ts.parse_scenario_csv("period\n2020\n")
        assert err.value.code == "shape"


class TestHeaderOnlyFiles:
    @pytest.mark.parametrize("parse, text", [
        (ts.parse_matrix_csv, "a,b,c\n"),
        (ts.parse_scenario_csv, "period,credit_index,gdp\n"),
        (ts.parse_path_csv, "period,z,avg_pd,default_flow,w_1,w_2\n"),
    ])
    def test_header_without_data_rows_rejected(self, parse, text):
        with pytest.raises(InputError) as err:
            parse(text)
        assert err.value.code == "empty"
        assert str(err.value) == "no data rows after the header"


class TestPathCsv:
    def test_fifty_period_run_has_fifty_one_lines(self, barbell_path):
        text = ts.emit_path_csv(barbell_path)
        lines = text.strip().split("\n")
        assert len(lines) == 52
        assert lines[0].startswith("period,z,avg_pd,default_flow,w_1")
        assert lines[0].endswith("w_8")

    def test_round_trip_recovers_identical_values(self, barbell_path):
        table = ts.parse_path_csv(ts.emit_path_csv(barbell_path))
        assert isinstance(table, ProjectionPath)
        assert table.periods == 50
        assert np.array_equal(table.initial.weights,
                              barbell_path.initial.weights)
        assert table.initial_pd == barbell_path.initial_pd
        assert np.array_equal(table.z, barbell_path.z)
        assert np.array_equal(table.avg_pds, barbell_path.avg_pds)
        assert np.array_equal(table.default_flows, barbell_path.default_flows)
        assert np.array_equal(table.portfolios, barbell_path.portfolios)

    def test_emission_is_deterministic(self, barbell_path):
        assert ts.emit_path_csv(barbell_path) == ts.emit_path_csv(barbell_path)

    def test_fixed_point_run_has_constant_pd_column(self, matrix8,
                                                    origination8, ttc8):
        path = ts.project_path(ttc8.w_ttc, matrix8, origination8, 0.0,
                               np.zeros(5))
        table = ts.parse_path_csv(ts.emit_path_csv(path))
        assert np.abs(np.diff(table.avg_pds)).max() <= 1e-12

    def test_wrong_header_rejected(self):
        with pytest.raises(InputError) as err:
            ts.parse_path_csv("a,b,c\n1,2,3\n")
        assert err.value.code == "missing-header"

    def test_one_weight_column_rejected(self):
        with pytest.raises(InputError) as err:
            ts.parse_path_csv("period,z,avg_pd,default_flow,w_1\n"
                              "1,0.0,0.01,0.01,1.0\n")
        assert err.value.code == "shape"

    @pytest.mark.parametrize("periods", [(1, 2), (0, 2), (1, 0), ("0.0", 1)])
    def test_periods_other_than_zero_to_m_rejected(self, periods):
        rows = "".join(f"{t},0.0,0.01,0.0,0.5,0.5\n" for t in periods)
        with pytest.raises(InputError) as err:
            ts.parse_path_csv("period,z,avg_pd,default_flow,w_1,w_2\n" + rows)
        assert err.value.code == "periods"
        assert "re-run propagate" in str(err.value)

    def test_a_bad_cell_deep_in_a_long_file_names_its_row_and_column(
            self, barbell_path):
        lines = ts.emit_path_csv(barbell_path).splitlines()
        cells = lines[40].split(",")
        cells[6], cells[9] = "x1", "x2"
        lines[40] = ",".join(cells)
        with pytest.raises(InputError) as err:
            ts.parse_path_csv("\n".join(lines) + "\n")
        assert err.value.code == "non-numeric"
        assert str(err.value) == "non-numeric cell 'x1' at row 41, column 7"

    @pytest.mark.parametrize("cell, row, column", [
        ("nan", 3, 2), ("inf", 2, 5), ("-inf", 51, 3), ("NaN", 30, 4),
        ("nan", 12, 12)])
    def test_a_non_finite_cell_names_its_row_and_column(
            self, barbell_path, cell, row, column):
        lines = ts.emit_path_csv(barbell_path).splitlines()
        cells = lines[row - 1].split(",")
        cells[column - 1] = cell
        lines[row - 1] = ",".join(cells)
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",inf"  # a later one
        with pytest.raises(InputError) as err:
            ts.parse_path_csv("\n".join(lines) + "\n")
        assert err.value.code == "invalid-argument"
        assert str(err.value) == (f"non-finite cell {cell!r} at row {row}, "
                                  f"column {column}")

    def test_rows_are_checked_in_order_width_before_cells(self,
                                                          barbell_path):
        lines = ts.emit_path_csv(barbell_path).splitlines()
        bad = lines[30].split(",")
        bad[5] = "x"
        lines[30] = ",".join(bad[:-1])  # short and with a bad cell
        lines[45] = lines[45].replace(",", ",y", 1)
        with pytest.raises(InputError) as err:
            ts.parse_path_csv("\n".join(lines) + "\n")
        assert err.value.code == "ragged"
        assert str(err.value) == "row 31 has 11 cells, expected 12"
        lines[30] = ",".join(bad)  # full width: its bad cell comes first
        with pytest.raises(InputError) as err:
            ts.parse_path_csv("\n".join(lines) + "\n")
        assert str(err.value) == "non-numeric cell 'x' at row 31, column 6"

    def test_shortest_round_trip_formatting(self):
        assert fmt(0.1) == "0.1"
        assert float(fmt(1.0 / 3.0)) == 1.0 / 3.0
        assert fmt(0.007225766244028098) == "0.007225766244028098"


class TestMatrixEmission:
    def test_round_trip(self, matrix8):
        text = ts.emit_matrix_csv(matrix8)
        again = ts.parse_matrix_csv(text)
        assert np.array_equal(again.probs, matrix8.probs)


class TestSvgChart:
    def test_chart_well_formed(self, barbell_path):
        svg = ts.emit_svg_chart(barbell_path, title="Zero-stress projection")
        assert svg.startswith("<?xml")
        assert svg.rstrip().endswith("</svg>")
        assert "<polyline" in svg
        assert "average PD" in svg and "period" in svg
        assert "Zero-stress projection" in svg

    def test_minimum_annotation_value(self, barbell_path):
        import re
        svg = ts.emit_svg_chart(barbell_path)
        match = re.search(r"min ([0-9.]+)% @ t=(\d+)", svg)
        assert match is not None
        assert float(match.group(1)) / 100.0 == pytest.approx(0.00722, abs=5e-5)
        assert int(match.group(2)) == 20

    def test_maximum_annotation_value(self, matrix8, origination8, portfolios):
        import re
        path = ts.project_path(portfolios["speculative_tilt"], matrix8,
                               origination8, 0.0, np.zeros(50))
        svg = ts.emit_svg_chart(path)
        match = re.search(r"max ([0-9.]+)% @ t=(\d+)", svg)
        assert float(match.group(1)) / 100.0 == pytest.approx(0.0214, abs=5e-5)

    def test_single_period_path_renders(self, matrix8, origination8, portfolios):
        path = ts.project_path(portfolios["midgrade"], matrix8, origination8,
                               0.0, np.zeros(1))
        svg = ts.emit_svg_chart(path)
        assert "<polyline" in svg
        points = svg.split('points="')[1].split('"')[0].split()
        assert len(points) == 2

    def test_deterministic(self, barbell_path):
        assert ts.emit_svg_chart(barbell_path) == ts.emit_svg_chart(barbell_path)


class TestDegenerateChart:
    def test_constant_path_gets_padded_axis(self, matrix8, origination8, ttc8):
        path = ts.project_path(ttc8.w_ttc, matrix8, origination8, 0.0,
                               np.zeros(10))
        svg = ts.emit_svg_chart(path)
        assert "<polyline" in svg
        assert "NaN" not in svg and "nan" not in svg


class TestFormattingMatchesPerElementOracle:
    """The emitters format ``tolist()`` floats; the oracles format numpy
    scalars one by one, as the emitters once did.  Strings must agree."""

    SPECIAL = (-0.0, 5e-324, 1e-300, 1e16, 1.0, 0.0)

    @staticmethod
    def check(path):
        assert ts.emit_path_csv(path) == oracles.path_csv_per_element(path)
        svg = ts.emit_svg_chart(path)
        points = svg.split('points="')[1].split('"')[0]
        assert points == oracles.svg_polyline_numpy(path)

    def test_seeded_paths(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            tm, orig = random_system(rng, n)
            m = int(rng.integers(1, 40))
            z = rng.uniform(-1e3, 1e3, m) * rng.choice([1e-3, 1e-1, 1.0], m)
            z[rng.random(m) < 0.3] = 0.0
            rho = float(rng.uniform(0.0, 0.9))
            path = ts.project_path(random_portfolio(rng, n), tm, orig, rho, z)
            self.check(path)
            stressed = ts.stress_transition_matrix(tm, rho, float(z[0]))
            for matrix in (tm, stressed):
                assert (ts.emit_matrix_csv(matrix)
                        == oracles.matrix_csv_per_element(matrix.probs))

    def test_hand_made_values(self):
        m = len(self.SPECIAL)
        values = np.array(self.SPECIAL)
        path = ProjectionPath(
            initial=ts.Portfolio(np.eye(m)[0]), initial_pd=0.5,
            z=values[::-1].copy(), avg_pds=values,
            default_flows=np.roll(values, 2),
            portfolios=np.array([np.roll(values, k) for k in range(m)]))
        self.check(path)
        tm = ts.TransitionMatrix(np.array([[-0.0, 5e-324, 1e-300, 1.0],
                                           [0.25, 0.25, 0.5, 0.0],
                                           [0.1, 0.2, 0.3, 0.4],
                                           [0.0, 0.0, 0.0, 1.0]]))
        text = ts.emit_matrix_csv(tm)
        assert text == oracles.matrix_csv_per_element(tm.probs)
        assert text.startswith("-0.0,5e-324,1e-300,1.0\n")


class TestPathRoundTrip:
    """``parse_path_csv`` reads back the whole path: written out again it
    gives the same bytes, and it classifies as the path it came from."""

    @staticmethod
    def check(path):
        text = ts.emit_path_csv(path)
        again = ts.parse_path_csv(text)
        assert ts.emit_path_csv(again) == text
        want = ts.detect_spurious_dynamics(path)
        got = ts.detect_spurious_dynamics(again)
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b

    def test_seeded_paths(self):
        # exact and rounded rows; rho 0 on a third of them, stressed on the rest
        for tm, orig, book, rho, z in seeded_cases():
            self.check(ts.project_path(book, tm, orig, rho, z))
            self.check(ts.project_path(book, tm, orig, 0.0, np.zeros(z.size)))

    def test_hand_made_values(self):
        values = np.array(TestFormattingMatchesPerElementOracle.SPECIAL)
        m = values.size
        self.check(ProjectionPath(
            initial=ts.Portfolio(np.eye(m)[0]), initial_pd=0.5,
            z=values[::-1].copy(), avg_pds=values,
            default_flows=np.roll(values, 2),
            portfolios=np.array([np.roll(values, k) for k in range(m)])))
