"""Tests of the benchmark itself: its checks must be able to fail.

    python3 -m pytest -q bench
"""
import json
import statistics
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cli_ops  # noqa: E402
import inproc  # noqa: E402
import run  # noqa: E402
import systems  # noqa: E402
import ttcstress as ts  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import fast_mode, summarize, timed_loop  # noqa: E402


def failed_ops(wl, result, ops=3) -> int:
    """How many of ``ops`` ops returning ``result`` the loop counts as failed."""
    loop = timed_loop(lambda i: result, lambda i, r: wl.check(0, r), 60.0,
                      max_ops=ops)
    assert loop["attempted"] == ops
    return loop["failed"]


@pytest.fixture(scope="module")
def validate():
    wl = inproc.Validate21(ROOT, seed=7)
    wl.before(0)
    return wl, wl.op(0)


@pytest.fixture(scope="module")
def fan():
    wl = inproc.StressFan(ROOT, seed=7)
    wl.before(0)
    return wl, wl.op(0)


def test_correct_validation_passes(validate):
    wl, report = validate
    assert failed_ops(wl, report) == 0


def test_ttc_weight_off_by_1e_6_fails(validate):
    wl, report = validate
    w = report.ttc.w_ttc.weights.copy()
    w[3] += 1e-6
    bad = replace(report, ttc=replace(report.ttc, w_ttc=SimpleNamespace(weights=w)))
    assert failed_ops(wl, bad) == 3


def test_pd_path_entry_off_fails(validate):
    wl, report = validate
    pds = report.path.avg_pds.copy()
    pds[17] *= 1.0 + 1e-9
    bad = replace(report, path=replace(report.path, avg_pds=pds))
    assert failed_ops(wl, bad) == 3


def test_stressed_path_checks(fan):
    wl, (z, path, rep) = fan
    assert failed_ops(wl, (z, path, rep)) == 0
    states = path.portfolios.copy()
    states[5, 2] += 1e-8
    states[5, 3] -= 1e-8  # mass still conserved: only the oracle can see it
    assert failed_ops(wl, (z, replace(path, portfolios=states), rep)) == 3
    assert failed_ops(wl, (z + 1e-6, path, rep)) == 3


def test_wrong_exit_code_fails(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    op = next(o for o in cli_ops._ops(tmp_path) if o["name"] == "ttc")
    wl = SimpleNamespace(check=lambda i, result: cli_ops.check(op, result))
    good = cli_ops.run_cli(op["argv"])
    assert failed_ops(wl, good) == 0
    assert failed_ops(wl, (1,) + good[1:]) == 3


def test_cli_output_checks_reject_bad_files(tmp_path):
    rows = "period,z,avg_pd,default_flow,w_1,w_2\n1,0.0,0.01,0.01,0.5,0.4\n"
    assert cli_ops._check_file("path", rows) is not None
    assert cli_ops._check_file("json", '{"x": [1.0, NaN]}') is not None
    assert cli_ops._check_stdout("matrix", 0, "0.5,0.6\n0,1\n") is not None


def test_summary_takes_best_times_but_p90_over_every_op():
    # two inputs, best 1 ms and 3 ms; rounds 2 and 4 ran 1.6x slower
    ms = [1.0, 3.0, 1.6, 4.8, 1.2, 3.3, 1.6, 4.8]
    s = summarize([t / 1e3 for t in ms], inputs=2)
    assert (s["ops"], s["inputs"]) == (8, 2)
    assert s["p50"] == pytest.approx(2.0)
    assert s["ops_per_s"] == pytest.approx(2 / 4e-3)
    assert s["p90"] == pytest.approx(statistics.quantiles(ms, n=10)[-1])
    assert s["raw_p50"] == pytest.approx(2.3)


def test_fast_mode_drops_slow_mode_set_ups():
    assert fast_mode([0.50, 0.36, 0.35, 0.52]) == [0.35, 0.36]


def test_each_op_builds_its_input_anew():
    wl = inproc.Validate21(ROOT, seed=7)
    wl.before(1)
    first = wl.case
    wl.before(1 + inproc.SYSTEMS)
    again = wl.case
    assert np.array_equal(first[1], again[1])  # the same input ...
    assert all(a is not b for a, b in zip(first[1:], again[1:]) if a is not None)
    wl.before(2)  # ... in new objects, and another input for the next op
    assert not np.array_equal(first[1], wl.case[1])


def test_generated_systems_are_realistic():
    rng = np.random.default_rng(3)
    for _ in range(5):
        probs, orig = systems.rating_system(rng)
        lam = systems.check_system(probs, orig)
        assert probs.shape == (21, 21)
        assert np.array_equal(probs[:-1, -1], np.sort(probs[:-1, -1]))
        assert 0.3 <= systems.zero_share(probs) <= 0.5
        assert systems.LAMBDA2_BAND[0] <= lam <= systems.LAMBDA2_BAND[1]
        # four-decimal entries that the parser accepts without repair
        assert np.array_equal(np.round(probs, 4), probs)
        ts.validate_transition_matrix(probs, tol=1e-12)


def test_self_check_rejects_unrealistic_systems():
    orig = np.array([0.5, 0.5, 0.0])
    cyclic = np.array([[0.0, 0.9, 0.1], [0.9, 0.0, 0.1], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="primitive"):
        systems.check_system(cyclic, orig)
    fast = np.array([[0.45, 0.45, 0.1], [0.45, 0.45, 0.1], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="lambda_2"):
        systems.check_system(fast, orig)


def test_tracer_wraps_every_binding_and_restores():
    tm = ts.parse_matrix_csv((ROOT / "data/transition_matrix.csv").read_text())
    orig = ts.parse_vector_csv((ROOT / "data/origination.csv").read_text(),
                               "origination")
    book = ts.parse_vector_csv((ROOT / "data/portfolio_barbell.csv").read_text(),
                               "portfolio")
    original = ts.ttc.is_primitive
    tracer = Tracer()
    tracer.install()
    try:
        # one wrapper at the defining module, the package and the importer
        assert ts.ttc.is_primitive is not original
        assert ts.is_primitive is ts.diagnostics.is_primitive is ts.ttc.is_primitive
        ts.run_validation(book, tm, orig, horizon=10)
    finally:
        tracer.uninstall()
    assert ts.diagnostics.is_primitive is ts.ttc.is_primitive is original
    agg = tracer.aggregate()
    assert agg["propagation.project_path"]["periods"] == 10
    assert agg["propagation.Portfolio.init"]["calls"] >= 1
    total = sum(row["self_ms"] for row in agg.values())
    outer = [s for s in tracer.spans if s[3] == -1]
    assert len(outer) == 1 and outer[0][0] == "diagnostics.run_validation"
    assert total == pytest.approx((outer[0][2] - outer[0][1]) / 1e6)


def test_import_tree_attributes_nested_imports_to_the_outermost():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       numpy.linalg",
        "import time:       100 |        110 |     numpy",
        "import time:         7 |          7 |       numpy.fft",
        "import time:        20 |         27 |     scipy.special",
        "import time:         5 |        142 |   ttcstress.normal",
        "import time:         1 |        143 | ttcstress",
    ])
    assert run._import_tree(stderr) == {"total": 0.143, "numpy": 0.11,
                                        "scipy": 0.027}


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
