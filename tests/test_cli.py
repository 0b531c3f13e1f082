import ast
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from warpgeo import RunConfig, VerificationReport, WarpPositivityError
from warpgeo import scenarios
from warpgeo.cli import EXIT_CHECK_FAILURE, EXIT_PASS, EXIT_USAGE, build_parser, main
from warpgeo.fd import SCHEMES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _benchmark_report_digest() -> str:
    """SEED42_REPORT_SHA256 as recorded by the benchmark, its one source."""
    worker = Path(__file__).resolve().parents[1] / "bench" / "worker.py"
    for node in ast.parse(worker.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SEED42_REPORT_SHA256" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("SEED42_REPORT_SHA256 not found in bench/worker.py")


def test_seed42_report_is_byte_identical_to_benchmark_digest(capsys):
    code, out, _ = run_cli(capsys, "verify", "--all", "--report", "json", "--seed", "42")
    assert code == EXIT_PASS
    assert hashlib.sha256(out.encode()).hexdigest() == _benchmark_report_digest()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--scheme", "central4", "--samples", "6"),
         "1577c3acef7e93db46b2ec4ca55a942ec6e0b2e9786550d6a16c1f48181bab82"),
        (("--scheme", "richardson", "--samples", "5", "--seed", "7"),
         "9dc120a9899a3e8b2040522096d38cd62556a1fa3ffd4f6d8f17d5cf892bd2f6"),
    ],
    ids=["central4", "richardson"],
)
def test_other_scheme_reports_are_byte_identical(capsys, argv, digest):
    code, out, _ = run_cli(capsys, "verify", "--all", "--report", "json", *argv)
    assert code == EXIT_PASS
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_a_raising_scenario_becomes_a_failed_report(capsys, monkeypatch):
    argv = ("verify", "--all", "--report", "json", "--samples", "2")
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_PASS
    clean = json.loads(out)["reports"]

    def runner(*args):
        raise WarpPositivityError("warp -1.0 <= 0 at first-factor point [0.]")

    spec = scenarios._BY_ID["cws-mixed-local"]
    monkeypatch.setitem(scenarios._BY_ID, spec.scenario_id, replace(spec, runner=runner))
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_CHECK_FAILURE
    reports = json.loads(out)["reports"]
    assert len(reports) == len(clean) == 9
    failed = next(r for r in reports if r["scenario"] == spec.scenario_id)
    assert [r for r in reports if r is not failed] == [
        r for r in clean if r["scenario"] != spec.scenario_id
    ]
    assert not failed["overall_pass"]
    assert [c["check_id"] for c in failed["checks"]] == list(spec.provides)
    for check in failed["checks"]:
        assert not check["passed"] and check["n_samples"] == 0
        assert check["max_residual"] == 0.0  # no samples; the JSON stays finite
        assert not check["expected_fail"] and not check["informational"]
        assert "WarpPositivityError: warp -1.0 <= 0" in check["notes"]


def test_parser_defaults_and_schemes_are_run_config_and_schemes():
    args = build_parser().parse_args(["verify", "--all"])
    defaults = RunConfig().to_dict()
    assert {name: getattr(args, name) for name in defaults} == defaults
    verify = build_parser()._subparsers._group_actions[0].choices["verify"]
    scheme = next(a for a in verify._actions if a.dest == "scheme")
    assert tuple(scheme.choices) == SCHEMES


def test_list_prints_catalog(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == EXIT_PASS
    rows = json.loads(out)
    ids = [r["id"] for r in rows]
    assert "warped-line" in ids and "cws-incompatible" in ids
    assert all("expected" in r for r in rows)


def test_verify_single_scenario_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "warped-line", "--samples", "3")
    assert code == EXIT_PASS
    assert "overall: PASS" in out


def test_verify_json_report_parses(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "cws-incompatible", "--samples", "3", "--report", "json"
    )
    assert code == EXIT_PASS
    doc = json.loads(out)
    report = VerificationReport.from_dict(doc["reports"][0])
    assert report.scenario == "cws-incompatible"
    assert report.overall_pass


def test_unknown_scenario_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "nonexistent")
    assert code == EXIT_USAGE
    assert "unknown scenario" in err


def test_missing_and_conflicting_selection(capsys):
    code, _, _ = run_cli(capsys, "verify")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "verify", "warped-line", "--all")
    assert code == EXIT_USAGE


def test_bad_flag_values_are_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "verify", "warped-line", "--samples", "0")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "verify", "warped-line", "--scheme", "upwind")
    assert code == EXIT_USAGE


def test_check_failure_exit_code(capsys):
    # an absurd tolerance scale forces residual checks to fail
    code, out, _ = run_cli(
        capsys, "verify", "warped-line", "--samples", "3", "--tolerance-scale", "1e-18"
    )
    assert code == EXIT_CHECK_FAILURE
    assert "FAIL" in out


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "warped-line", "--samples", "3", "--report", "json",
        "--out", str(path),
    )
    assert code == EXIT_PASS
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["reports"][0]["scenario"] == "warped-line"


def test_seed_and_step_flags_echoed(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "warped-line", "--samples", "3", "--seed", "9",
        "--fd-step", "2e-5", "--report", "json",
    )
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["config"]["seed"] == 9
    assert doc["config"]["fd_step"] == 2e-5


def test_determinism_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "verify", "cws-riemannian", "--samples", "3", "--report", "json")
    _, out2, _ = run_cli(capsys, "verify", "cws-riemannian", "--samples", "3", "--report", "json")
    assert out1 == out2


def test_exit_codes_of_the_installed_binary():
    # the exit-code contract holds for the real process, not just main()
    import subprocess
    import sys

    def invoke(*args):
        return subprocess.run(
            [sys.executable, "-m", "warpgeo.cli", *args],
            capture_output=True, text=True,
        ).returncode

    assert invoke("verify", "product-plain", "--samples", "2") == EXIT_PASS
    assert invoke("verify", "nonexistent") == EXIT_USAGE
    assert invoke(
        "verify", "product-plain", "--samples", "2", "--tolerance-scale", "1e-18"
    ) == EXIT_CHECK_FAILURE


def test_tolerance_scale_multiplies_every_tolerance(capsys):
    def tolerances(scale):
        code, out, _ = run_cli(
            capsys, "verify", "--all", "--samples", "2", "--report", "json",
            "--tolerance-scale", str(scale),
        )
        assert code in (EXIT_PASS, EXIT_CHECK_FAILURE)
        return {
            (report["scenario"], k, check["check_id"]): check["tolerance"]
            for report in json.loads(out)["reports"]
            for k, check in enumerate(report["checks"])
        }

    base, scaled = tolerances(1), tolerances(4)
    assert scaled.keys() == base.keys()
    # a non-conformal scenario judges compatibility by the conformality
    # threshold conf_tol of its context, not by a residual tolerance
    exempt = {
        (s.scenario_id, "dilation-compatibility")
        for s in scenarios.list_scenarios()
        if not s.expected["conformal"]
    }
    unscaled = [
        key for key, tol in base.items()
        if (key[0], key[2]) not in exempt
        and scaled[key] != pytest.approx(4.0 * tol, rel=1e-12, abs=0.0)
    ]
    assert unscaled == []
    assert {key[2] for key in base} >= {"split-decomposition", "fd-consistency"}
