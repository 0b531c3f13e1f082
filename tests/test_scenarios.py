from dataclasses import replace

import pytest

from warpgeo import ConfigurationError, RunConfig, WarpPositivityError, scenarios
from warpgeo.report import TOLERANCES, reports_to_json
from warpgeo.scenarios import (
    build_objects,
    list_scenarios,
    run_all,
    run_scenario,
)

FAST = RunConfig(samples=4)


def test_catalog_contains_required_entries_in_stable_order():
    ids = [s.scenario_id for s in list_scenarios()]
    assert ids == sorted(ids, key=ids.index)  # stable order is the list itself
    for required in (
        "exp-spiral-r4",
        "warped-line",
        "sphere-warped",
        "cws-constant-dilation",
        "cws-incompatible",
    ):
        assert required in ids
    assert ids == [s.scenario_id for s in list_scenarios()]  # repeatable


def test_catalog_entries_carry_expected_verdicts():
    for s in list_scenarios():
        assert "conformal" in s.expected
        assert isinstance(s.description, str) and s.description


def test_sample_boxes_inside_domains():
    engine = FAST.engine()
    for s in list_scenarios():
        objs = build_objects(s.scenario_id, engine)
        if "cws" in objs:
            ambient = objs["cws"].source.ambient
        elif "warped" in objs:
            ambient = objs["warped"].ambient
        else:
            ambient = objs["ctx"].map.source
        assert (objs["sample_lower"] > ambient.lower).all()
        assert (objs["sample_upper"] < ambient.upper).all()


def test_catalog_filter():
    assert list_scenarios("") == list_scenarios()
    cws = list_scenarios("cws-")
    assert [s.scenario_id for s in cws] == [
        "cws-constant-dilation",
        "cws-incompatible",
        "cws-variable-dilation",
        "cws-riemannian",
        "cws-mixed-local",
    ]
    assert list_scenarios("nope") == []


def test_every_identity_family_is_covered():
    # the check ids of the tolerance table are exactly the families the
    # catalog runs: none uncovered, no entry dead
    union = set()
    for s in list_scenarios():
        union.update(s.provides)
    check_ids = {key for key in TOLERANCES if "/" not in key}
    assert sorted(check_ids - union) == [], "uncovered identity families"
    assert sorted(union - check_ids) == [], "checks without a tolerance entry"
    # a "<check id>/<qualifier>" entry is a variant of a check id's tolerance
    assert {key.split("/")[0] for key in TOLERANCES} == check_ids


@pytest.mark.parametrize("scenario", [s.scenario_id for s in list_scenarios()])
def test_scenario_emits_declared_checks_and_passes(scenario):
    spec = next(s for s in list_scenarios() if s.scenario_id == scenario)
    report = run_scenario(scenario, FAST)
    assert tuple(c.check_id for c in report.checks) == spec.provides
    failed = [c.check_id for c in report.checks if not c.passed and not c.informational]
    assert not failed, f"{scenario} failed: {failed}"
    assert report.overall_pass


def test_a_raising_builder_gives_an_aborted_report(monkeypatch):
    def raising(engine):
        raise WarpPositivityError("warp -1.0 <= 0")

    spec = scenarios._BY_ID["warped-line"]
    monkeypatch.setitem(scenarios._BY_ID, spec.scenario_id, replace(spec, builder=raising))
    report = run_scenario(spec.scenario_id, FAST)
    assert tuple(c.check_id for c in report.checks) == spec.provides
    assert all(c.n_samples == 0 and not c.passed for c in report.checks)
    assert "WarpPositivityError: warp -1.0 <= 0" in report.checks[0].notes


def test_each_suite_records_exactly_its_declared_ids(monkeypatch):
    recorded = []

    def spy(suite):
        def run(*args):
            records = suite.run(*args)
            recorded.append((suite.ids, tuple(r.check_id for r in records)))
            return records

        return replace(suite, run=run)

    for s in list_scenarios():
        assert s.suites[0].ids == ("fd-consistency",), s.scenario_id
        assert s.suites[-1].ids == ("torsion-free", "metric-compatibility"), s.scenario_id
        spied = replace(s, suites=tuple(spy(suite) for suite in s.suites))
        monkeypatch.setitem(scenarios._BY_ID, s.scenario_id, spied)
        recorded.clear()
        run_scenario(s.scenario_id, RunConfig(samples=2))
        assert [declared for declared, _ in recorded] == [suite.ids for suite in s.suites]
        for declared, got in recorded:
            assert got == declared, (s.scenario_id, declared)


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigurationError):
        run_scenario("nonexistent", FAST)
    with pytest.raises(ConfigurationError):
        build_objects("nonexistent", FAST.engine())


def test_runs_are_deterministic():
    a = reports_to_json([run_scenario("cws-constant-dilation", FAST)], FAST)
    b = reports_to_json([run_scenario("cws-constant-dilation", FAST)], FAST)
    assert a == b


def test_seed_changes_samples_not_verdicts():
    alt = RunConfig(samples=4, seed=7)
    report = run_scenario("warped-line", alt)
    assert report.overall_pass
    assert report.config["seed"] == 7


def test_second_factor_variant_named_in_report():
    report = run_scenario("cws-variable-dilation", FAST)
    rec = next(c for c in report.checks if c.check_id == "product-a-second-factor")
    assert "passing variant(s): second-factor-denominator" in rec.notes


def test_negative_scenarios_pass_as_expected_fail():
    for sid in ("cws-incompatible", "cws-mixed-local"):
        report = run_scenario(sid, FAST)
        rec = next(c for c in report.checks if c.check_id == "dilation-compatibility")
        assert rec.expected_fail and rec.passed
        assert report.overall_pass


def test_run_all_covers_catalog():
    reports = run_all(RunConfig(samples=2))
    assert [r.scenario for r in reports] == [s.scenario_id for s in list_scenarios()]


def test_richardson_scheme_also_passes():
    report = run_scenario("warped-line", RunConfig(samples=3, scheme="richardson"))
    assert report.overall_pass


def test_central4_scheme_also_passes():
    report = run_scenario("sphere-warped", RunConfig(samples=3, scheme="central4"))
    assert report.overall_pass


@pytest.mark.parametrize("scale", [1.0, 4.0])
def test_an_aborted_scenario_keeps_the_gates_of_its_checks(scale, monkeypatch):
    config = RunConfig(tolerance_scale=scale)
    normal = {
        s.scenario_id: {c.check_id: c.tolerance for c in run_scenario(s.scenario_id, config).checks}
        for s in list_scenarios()
    }

    def raising(*args):
        raise WarpPositivityError("warp -1.0 <= 0")

    for s in list_scenarios():
        suites = s.suites[:-1] + (replace(s.suites[-1], run=raising),)
        monkeypatch.setitem(scenarios._BY_ID, s.scenario_id, replace(s, suites=suites))
        aborted = run_scenario(s.scenario_id, config).checks
        assert all(c.n_samples == 0 and not c.passed for c in aborted)
        assert {c.check_id: c.tolerance for c in aborted} == normal[s.scenario_id], s.scenario_id
