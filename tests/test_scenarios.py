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
from warpgeo.suites import fd_consistency_record

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


# the objects every scenario's suites and the benchmark's workloads read,
# and those of each kind
OBJECT_KEYS = {"ctx", "sample_lower", "sample_upper", "expected_lambda_sq", "scalar_checks",
               "map_checks"}
KIND_KEYS = {"warped": {"warped"}, "submersion": {"ctx_fd"}, "cws": {"cws"}}


def _kind(scenario) -> str:
    if scenario.suites is scenarios._WARPED_SUITES:
        return "warped"
    return "submersion" if scenario.suites is scenarios._SPIRAL_SUITES else "cws"


@pytest.mark.parametrize("scenario", [s.scenario_id for s in list_scenarios()])
def test_objects_carry_what_their_kind_is_read_for(scenario):
    spec = scenarios._BY_ID[scenario]
    kind = _kind(spec)
    engine = FAST.engine()
    objs = build_objects(scenario, engine)
    assert OBJECT_KEYS | KIND_KEYS[kind] <= objs.keys()
    source = objs["ctx"].map.source
    if kind != "submersion":
        # the sampled chart is the ambient of the warped product
        ambient = (objs["cws"].source if kind == "cws" else objs["warped"]).ambient
        assert source is ambient
    lower, upper = objs["sample_lower"], objs["sample_upper"]
    assert lower.shape == upper.shape == (source.dim,)
    assert (lower > source.lower).all() and (upper < source.upper).all()
    assert (lower < upper).all()
    assert (objs["expected_lambda_sq"] is None) == (not spec.expected["conformal"])
    for M, field in objs["scalar_checks"]:
        assert M.dim == len(field.partials(M.lower / 2 + M.upper / 2))
    # fresh charts and maps on every call
    again = build_objects(scenario, engine)
    assert again["ctx"].map is not objs["ctx"].map
    assert again["ctx"].map.source is not source


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
    # every entry of the tolerance table is the gate of some check the
    # catalog runs, but the pointwise conformality verdict: no entry dead
    gates = {suite.gates.get(check_id, check_id)
             for s in list_scenarios() for suite in s.suites for check_id in suite.ids}
    keys = {gate for gate in gates if isinstance(gate, str)}
    assert sorted(keys - set(TOLERANCES)) == [], "gates without a tolerance entry"
    assert sorted(set(TOLERANCES) - keys) == ["conformality/threshold"], "dead entries"
    # which is the fixed gate of the non-conformal dilation-compatibility verdict
    assert TOLERANCES["conformality/threshold"] in gates
    # a "<check id>/<qualifier>" entry is a variant of a check id's tolerance
    union = {check_id for s in list_scenarios() for check_id in s.provides}
    assert {key.split("/")[0] for key in TOLERANCES} <= union


def test_every_record_is_gated_at_its_suites_gate(monkeypatch):
    # with a distinct sentinel in every entry, a record gated at an entry
    # other than its suite's declared gate shows
    for i, key in enumerate(sorted(TOLERANCES)):
        monkeypatch.setitem(TOLERANCES, key, 1e-3 * (1.0 + i / 64))
    config = RunConfig(samples=2)
    for s in list_scenarios():
        report = run_scenario(s.scenario_id, config)
        assert not any("aborted" in c.notes for c in report.checks), s.scenario_id
        gates = {check_id: suite.gate(check_id, config)
                 for suite in s.suites for check_id in suite.ids}
        for c in report.checks:
            if c.check_id == "dilation-compatibility" and not s.expected["conformal"]:
                # the non-conformal verdict's gate is the unscaled float read
                # from the table at import, before any patch
                continue
            assert c.tolerance == gates[c.check_id], (s.scenario_id, c.check_id)


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


def test_fd_consistency_without_points_names_the_chart(monkeypatch):
    engine = FAST.engine()
    objs = build_objects("cws-constant-dilation", engine)
    with pytest.raises(ConfigurationError, match="no points on chart 'M1'"):
        fd_consistency_record(engine, objs["scalar_checks"], objs["map_checks"], {})
    # so the scenario's aborted report says what is missing
    monkeypatch.setattr(scenarios, "_points_by_manifold", lambda objs, points: {})
    report = run_scenario("cws-constant-dilation", FAST)
    assert not report.overall_pass
    assert all(c.n_samples == 0 for c in report.checks)
    assert "ConfigurationError: fd-consistency has no points on chart 'M1'" in report.checks[0].notes


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
