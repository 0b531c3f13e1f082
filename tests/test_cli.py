import ast
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from warpgeo import DiffEngine, RunConfig, VerificationReport, WarpPositivityError
from warpgeo import scenarios
from warpgeo.cli import EXIT_CHECK_FAILURE, EXIT_PASS, EXIT_USAGE, build_parser, main
from warpgeo.fd import SCHEMES
from warpgeo.report import TOLERANCES


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
        (("verify", "--all", "--report", "json", "--scheme", "central4", "--samples", "6"),
         "1577c3acef7e93db46b2ec4ca55a942ec6e0b2e9786550d6a16c1f48181bab82"),
        (("verify", "--all", "--report", "json", "--scheme", "richardson", "--samples", "5",
          "--seed", "7"),
         "9dc120a9899a3e8b2040522096d38cd62556a1fa3ffd4f6d8f17d5cf892bd2f6"),
        (("verify", "--all", "--report", "json", "--seed", "7"),
         "7796a6268344c5fe3ae626768b95905d6f75fd34ef9849423fb2559317b256b1"),
        (("verify", "--all", "--report", "json", "--tolerance-scale", "4"),
         "e843f12315f63e71eac4b6260937de8c4107774edbd4b9c204e442e9689a5d9e"),
        (("verify", "--all"),
         "a6c7266e2e1979e09085d38da5e5b472da309a25a7cf3d6cdc51a8ac839293c1"),
        (("list",),
         "e61b44ae837943b2cd02efb7677d3b31ddb0bd5442f294379bf3465b93c69b3e"),
    ],
    ids=["central4", "richardson", "seed7", "tolerance-scale4", "text", "list"],
)
def test_other_scheme_reports_are_byte_identical(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_PASS
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_a_raising_scenario_becomes_a_failed_report(capsys, monkeypatch):
    argv = ("verify", "--all", "--report", "json", "--samples", "2")
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_PASS
    clean = json.loads(out)["reports"]

    def raising(*args):
        raise WarpPositivityError("warp -1.0 <= 0 at first-factor point [0.]")

    spec = scenarios._BY_ID["cws-mixed-local"]
    suites = list(spec.suites)
    suites[2] = replace(suites[2], run=raising)  # after two suites have recorded
    monkeypatch.setitem(scenarios._BY_ID, spec.scenario_id, replace(spec, suites=tuple(suites)))
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
    # a step the engine may never use is a configuration error, not failed checks
    code, out, err = run_cli(
        capsys, "verify", "warped-line", "--samples", "2", "--fd-step",
        str(0.1 * DiffEngine.min_step),
    )
    assert code == EXIT_USAGE
    assert out == "" and "min_step" in err
    # so is a step whose sampling margin of 4 steps empties a scenario's sample box
    code, out, err = run_cli(capsys, "verify", "warped-line", "--samples", "2", "--fd-step", "0.2")
    assert code == EXIT_USAGE
    assert out == "" and "degenerate after margin 0.8" in err


@pytest.mark.parametrize("joined", [True, False], ids=["flag=value", "flag value"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-5"])
@pytest.mark.parametrize("flag", ["--fd-step", "--tolerance-scale"])
def test_non_finite_numeric_flags_are_usage_errors(capsys, flag, value, joined):
    # a separate "-inf" or "-1e-5" is the flag's value, not an option
    given = [f"{flag}={value}"] if joined else [flag, value]
    code, out, err = run_cli(
        capsys, "verify", "warped-line", "--samples", "2", "--report", "json", *given
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "Traceback" not in err and "must be positive and finite" in err


@pytest.mark.parametrize("given", [["--seed", "-1"], ["--seed=-1"]],
                         ids=["flag value", "flag=value"])
def test_a_negative_seed_is_a_usage_error(capsys, given):
    code, out, err = run_cli(capsys, "verify", "--all", *given)
    assert code == EXIT_USAGE
    assert out == ""
    assert "Traceback" not in err and "seed must be an integer >= 0, got -1" in err


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


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_an_unwritable_out_is_a_usage_error(tmp_path, capsys, where):
    path = tmp_path / "no-such-dir" / "r.json" if where == "missing-directory" else tmp_path
    code, out, err = run_cli(capsys, "verify", "warped-line", "--samples", "2", "--out", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: cannot write the report to {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


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

    # checks whose verifier gates them with another check's tolerance argument
    shared = {
        "warped-conn-mixed": "warped-conn-first-pair",
        "warped-conn-fiber-normal": "warped-conn-first-pair",
        "warped-conn-fiber-tangent": "warped-conn-first-pair",
        "fiber-mean-curvature-warp": "fiber-umbilical",
        "a-extension-independence": "a-vs-bracket-formula",
        "fiber-minimality-second": "fiber-minimality-first",
        "mixed-fiber-geodesic": "fiber-minimality-first",
        "rescale-probe-dilation": "rescale-to-riemannian",
    }

    def want(scale, scenario, check_id):
        """The record's table entry times the scale."""
        conformal = scenarios._BY_ID[scenario].expected["conformal"]
        if check_id == "dilation-compatibility" and not conformal:
            return TOLERANCES["conformality/threshold"]  # a verdict, never scaled
        variant = f"{check_id}/{scenario}"
        return TOLERANCES[variant if variant in TOLERANCES else shared.get(check_id, check_id)] * scale

    # exact: at scale 3, 100.0 * (1e-8 * 3) and (100.0 * 1e-8) * 3 differ in the last bit
    runs = {scale: tolerances(scale) for scale in (1, 3, 4)}
    assert runs[3].keys() == runs[4].keys() == runs[1].keys()
    wrong = [
        (scale, scenario, check_id, tol)
        for scale, run in runs.items()
        for (scenario, _, check_id), tol in run.items()
        if tol != want(scale, scenario, check_id)
    ]
    assert wrong == []
    assert {key[2] for key in runs[1]} >= {"split-decomposition", "fd-consistency"}
