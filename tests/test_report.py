import ast
import json
from pathlib import Path

import numpy as np
import pytest

from warpgeo import (
    ChartManifold,
    CheckRecord,
    ConfigurationError,
    DiffEngine,
    RunConfig,
    VerificationReport,
)
from warpgeo.report import (
    NON_FINITE_NOTE,
    TOLERANCES,
    ResidualCheck,
    reports_to_json,
    reports_to_text,
    residual_scale,
    residual_scales,
)
from warpgeo.suites import engine_health_records


def make_report():
    return VerificationReport(
        scenario="demo",
        description="demo scenario",
        config=RunConfig().to_dict(),
        checks=[
            CheckRecord("alpha", 5, 1.25e-9, 1e-6, True),
            CheckRecord("beta", 5, 3.0, 1e-6, True, expected_fail=True,
                        notes="fails as designed"),
            CheckRecord("gamma", 5, 2.0, 1e-6, False, informational=True),
        ],
    )


def test_json_round_trip_lossless():
    report = make_report()
    text = report.to_json()
    clone = VerificationReport.from_json(text)
    assert clone == report
    assert clone.to_json() == text


def test_overall_verdict_rules():
    report = make_report()
    # informational failure does not sink the report
    assert report.overall_pass
    report.checks.append(CheckRecord("delta", 1, 9.0, 1e-6, False))
    assert not report.overall_pass


def test_expected_fail_inversion():
    check = ResidualCheck("neg", 1e-6, expected_fail=True)
    check.add(0.5)
    assert check.record().passed
    check2 = ResidualCheck("neg", 1e-6, expected_fail=True)
    check2.add(1e-9)
    assert not check2.record().passed


def test_residual_check_scaling_and_notes():
    check = ResidualCheck("scaled", 1e-6)
    check.add(2e-6, scale=4.0)
    check.note("first")
    check.note("first")  # deduplicated
    check.note("second")
    rec = check.record()
    assert rec.max_residual == pytest.approx(5e-7)
    assert rec.passed
    assert rec.notes == "first; second"


def test_serialization_is_deterministic():
    config = RunConfig()
    a = reports_to_json([make_report()], config)
    b = reports_to_json([make_report()], config)
    assert a == b
    parsed = json.loads(a)
    assert parsed["overall_pass"] is True
    assert [c["check_id"] for c in parsed["reports"][0]["checks"]] == ["alpha", "beta", "gamma"]


def test_text_mode_mentions_status_and_tags():
    text = reports_to_text([make_report()])
    assert "PASS [expected-fail] beta" in text
    assert "FAIL [info] gamma" in text
    assert text.endswith("overall: PASS\n")


def test_run_config_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(scheme="midpoint")
    with pytest.raises(ConfigurationError):
        RunConfig(fd_step=0.0)
    with pytest.raises(ConfigurationError, match="min_step"):
        RunConfig(fd_step=0.1 * DiffEngine.min_step)
    assert RunConfig(fd_step=DiffEngine.min_step).engine().step == DiffEngine.min_step
    # the seed and the sample count are integers of any type, stored as int
    for bad in (dict(seed=-1), dict(seed=1.0), dict(seed=True), dict(samples=0),
                dict(samples=2.5), dict(samples=np.int64(0))):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            RunConfig(**bad)
    config = RunConfig(seed=np.int64(7), samples=np.uint8(3))
    assert type(config.seed) is int and type(config.samples) is int
    assert config == RunConfig(seed=7, samples=3)
    with pytest.raises(ConfigurationError):
        RunConfig(tolerance_scale=-1.0)
    assert RunConfig.from_dict(RunConfig().to_dict()) == RunConfig()


def test_inconsistent_overall_rejected():
    doc = make_report().to_dict()
    doc["overall_pass"] = False
    with pytest.raises(ConfigurationError):
        VerificationReport.from_dict(doc)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_failed_sample_serializes_as_strict_json():
    M = ChartManifold.euclidean(2, [0, 0], [1, 1])
    # too close to the boundary for any stencil: each check records a failed sample
    records = engine_health_records(M, DiffEngine(), [M.point([1e-12, 0.5])],
                                    np.random.default_rng(0))
    assert [r.max_residual for r in records] == [np.inf, np.inf]
    assert not any(r.passed for r in records)
    assert all(NON_FINITE_NOTE in r.notes and "error at" in r.notes for r in records)
    report = VerificationReport("edge", "failed sample", RunConfig().to_dict(), records)
    for text in (report.to_json(), reports_to_json([report], RunConfig())):
        assert "Infinity" not in text and "NaN" not in text
        doc = json.loads(text, parse_constant=_reject_constant)
        checks = doc["checks"] if "checks" in doc else doc["reports"][0]["checks"]
        assert [c["max_residual"] for c in checks] == [None, None]
    clone = VerificationReport.from_json(report.to_json())
    assert clone == report
    assert clone.to_json() == report.to_json()


def test_non_finite_residual_never_reaches_the_json_text():
    record = CheckRecord("nan", 1, float("nan"), 1e-6, False)
    assert record.to_dict()["max_residual"] is None
    assert CheckRecord.from_dict(record.to_dict()).max_residual == np.inf
    assert CheckRecord.from_dict(make_report().checks[0].to_dict()) == make_report().checks[0]


@pytest.mark.parametrize("expected_fail", [False, True])
@pytest.mark.parametrize("residuals",
                         [[1e-9, np.nan, 1e-9], [np.nan, 1e-9, 2e-9], [1e-9, np.inf, 1e-9]],
                         ids=["nan-after-finite", "nan-first", "inf"])
def test_nan_residual_fails_the_check(residuals, expected_fail):
    check = ResidualCheck("nan", 1e-6, expected_fail=expected_fail)
    for r in residuals:
        check.add(r)
    record = check.record()
    assert not np.isfinite(record.max_residual)
    assert record.passed is False
    assert NON_FINITE_NOTE in record.notes
    assert record.to_dict()["max_residual"] is None


@pytest.mark.parametrize("arrays", [(np.ones(2), np.array([np.nan])),
                                    (np.array([np.nan]), np.ones(2)),
                                    (np.ones(2), np.array([1.0, np.nan]), np.zeros(0))],
                         ids=["nan-after-finite", "nan-first", "nan-entry"])
def test_a_nan_entry_makes_the_residual_scale_nan(arrays):
    # Python's max keeps a NaN only when it comes first
    assert np.isnan(residual_scale(*arrays))
    assert residual_scale(np.array([-3.0, 2.0]), np.zeros(0)) == 4.0


def test_the_stacked_residual_scales_are_the_per_point_ones():
    a = np.array([[1.0, -5.0], [np.nan, 0.0], [0.5, 0.25]])
    b = np.array([[[2.0]], [[1.0]], [[-0.75]]])
    got = residual_scales(a, b)
    want = [residual_scale(x, y) for x, y in zip(a, b)]
    assert np.array_equal(got, want, equal_nan=True) and np.isnan(got[1])


SOURCE = Path(__file__).resolve().parents[1] / "src" / "warpgeo"


def _writes_a_number(expr) -> bool:
    """An expression with a numeric constant in it, such as ``1e-6`` or
    ``100.0 * tol``: a base tolerance, or a factor on one, written outside
    the table. A table lookup such as ``TOLERANCES["c"]`` writes none."""
    return any(
        isinstance(n, ast.Constant) and type(n.value) in (int, float) for n in ast.walk(expr)
    )


def _literal_tolerances(tree: ast.AST) -> list:
    """(line, what) of each parameter named ``*tol*`` whose default writes a
    number and of each ``ResidualCheck`` whose tolerance writes one."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            positional = a.posonlyargs + a.args
            pairs = list(zip(positional[len(positional) - len(a.defaults):], a.defaults))
            pairs += [(p, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            found += [(p.lineno, p.arg) for p, d in pairs
                      if "tol" in p.arg and _writes_a_number(d)]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", "") == "ResidualCheck":
            given = node.args[1:2] + [k.value for k in node.keywords if k.arg == "tolerance"]
            found += [(node.lineno, "ResidualCheck") for t in given if _writes_a_number(t)]
    return found


def test_the_tolerance_table_is_the_only_place_a_base_tolerance_is_written():
    found = {
        path.name: _literal_tolerances(ast.parse(path.read_text()))
        for path in sorted(SOURCE.glob("*.py"))
    }
    assert {name: hits for name, hits in found.items() if hits} == {}
    # the scan sees what it is meant to catch
    planted = ast.parse(
        "def f(x, rel_tol=1e-6):\n"
        "    ResidualCheck('c', 1e-8)\n"
        "    ResidualCheck('c', tolerance=-0.0)\n"
    )
    assert [what for _, what in _literal_tolerances(planted)] == [
        "rel_tol", "ResidualCheck", "ResidualCheck"
    ]
    # a literal factor on a tolerance writes a second base tolerance
    factor = ast.parse("def f(tol=TOLERANCES['c']):\n    ResidualCheck('c', 100.0 * tol)\n")
    assert _literal_tolerances(factor) == [(2, "ResidualCheck")]
    looked_up = ast.parse(
        "def f(tol=TOLERANCES['c']):\n"
        "    ResidualCheck('c', tol)\n"
        "    ResidualCheck('c', tolerance=config.tolerance('c'))\n"
    )
    assert _literal_tolerances(looked_up) == []

