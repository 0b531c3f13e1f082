from dataclasses import replace

import numpy as np
import pytest

from warpgeo import (
    ChartManifold,
    ConfigurationError,
    ConformalityError,
    DiffEngine,
    DomainError,
    RunConfig,
    ScalarField,
    SmoothMap,
    VectorField,
    WarpPositivityError,
    build_product_submersion,
    compatibility,
    compatibility_report,
    identity_map,
)
from warpgeo.conformal_warped import (
    factor_vertical_bases,
    fiber_geometry_report,
    rescaled_context,
    second_factor_variant_fields,
    verify_first_factor_a_identity,
    verify_kernel_product,
    verify_rescaled_riemannian,
    verify_riemannian_reduction,
    verify_second_factor_a_identity,
)
from warpgeo.fields import vector_field_library
from warpgeo.report import TOLERANCES
from warpgeo import scenarios
from warpgeo.scenarios import build_objects

ENGINE = DiffEngine()


@pytest.fixture(scope="module")
def cws_constant():
    return build_objects("cws-constant-dilation", ENGINE)["cws"]


@pytest.fixture(scope="module")
def cws_variable():
    return build_objects("cws-variable-dilation", ENGINE)["cws"]


@pytest.fixture(scope="module")
def cws_riemannian():
    return build_objects("cws-riemannian", ENGINE)["cws"]


@pytest.fixture(scope="module")
def cws_incompatible():
    return build_objects("cws-incompatible", ENGINE)["cws"]


def pts(cws, coords_list):
    return [cws.source.ambient.point(c) for c in coords_list]


def horizontal_pairs(ctx, seed, n=2):
    rng = np.random.default_rng(seed)
    fields = [ctx.horizontal_field(F) for F in vector_field_library(ctx.map.source, rng, 2 * n)]
    return [(fields[2 * i], fields[2 * i + 1]) for i in range(n)]


def test_identity_product_is_isometry():
    M1 = ChartManifold.euclidean(2, [-2, -2], [2, 2])
    M2 = ChartManifold.euclidean(1, [-2], [2])
    warp = ScalarField(lambda c: float(np.exp(c[0])), lambda c: np.array([np.exp(c[0]), 0.0]))
    unit = ScalarField.constant(1.0)
    cws = build_product_submersion(identity_map(M1), unit, identity_map(M2), unit, warp, warp, ENGINE)
    p = cws.source.ambient.point([0.3, 0.1, -0.2])
    entry = compatibility(cws, p)
    assert entry.conformal_here and entry.r1 == 1.0 and entry.r2 == 1.0
    d = cws.ctx.dilation(p)
    assert d.lambda_sq == pytest.approx(1.0, abs=1e-14)
    assert d.anisotropy == pytest.approx(1.0, abs=1e-14)


def test_constant_scenario_compatibility(cws_constant):
    p = cws_constant.source.ambient.point([0.3, -0.2, 0.1, 0.4])
    entry = compatibility(cws_constant, p)
    assert entry.r1 == 4.0
    assert entry.r2 == pytest.approx(4.0, abs=1e-12)
    assert entry.residual == abs(entry.r1 / entry.r2 - 1.0) <= 1e-10
    assert entry.conformal_here  # the product's squared dilation is then r1 = 4
    d = cws_constant.ctx.dilation(p)
    assert abs(d.lambda_sq - 4.0) <= 1e-8


def test_incompatible_scenario_r2_formula(cws_incompatible):
    # with unit target warp, r2 = 4 e^{-4x}
    x = 0.37
    p = cws_incompatible.source.ambient.point([x, 0.1, -0.2, 0.3])
    entry = compatibility(cws_incompatible, p)
    assert entry.r1 == 4.0
    assert entry.r2 == pytest.approx(4.0 * np.exp(-4 * x), rel=1e-12)
    assert not entry.conformal_here
    assert entry.residual > TOLERANCES["conformality/threshold"]


def test_incompatible_report_fraction(cws_incompatible):
    rng = np.random.default_rng(0)
    coords = rng.uniform([0.1, -0.5, -0.5, -0.5], [0.6, 0.5, 0.5, 0.5], size=(20, 4))
    entries = compatibility_report(cws_incompatible, pts(cws_incompatible, coords))
    assert len(entries) == 20
    assert sum(not e.conformal_here for e in entries) / len(entries) >= 0.9
    assert not all(e.conformal_here for e in entries)


@pytest.mark.parametrize("scenario_id, conformal",
                         [("cws-constant-dilation", True), ("cws-incompatible", False)])
def test_compatibility_residual_gates_the_verdict(scenario_id, conformal):
    config = RunConfig()
    objs = build_objects(scenario_id, config.engine())
    points = scenarios._points(objs, config)
    entries = compatibility_report(objs["cws"], points)
    threshold = TOLERANCES["conformality/threshold"]
    assert [e.conformal_here for e in entries] == [e.residual <= threshold for e in entries]
    assert any(e.conformal_here for e in entries) == conformal
    record = scenarios._compatibility_records(objs["cws"], points, config, conformal)[0]
    assert record.check_id == "dilation-compatibility"
    assert record.max_residual == max(e.residual for e in entries)


def test_mixed_local_scenario_values():
    cws = build_objects("cws-mixed-local", ENGINE)["cws"]
    x3 = 0.25
    p = cws.source.ambient.point([0.1, -0.2, x3, 0.4, 0.2])
    entry = compatibility(cws, p)
    assert entry.r1 == pytest.approx(np.exp(2 * x3), rel=1e-14)
    assert entry.r2 == 1.0
    assert not entry.conformal_here
    # conformal exactly on the x3 = 0 slice
    slice_entry = compatibility(cws, cws.source.ambient.point([0.1, -0.2, 0.0, 0.4, 0.2]))
    assert slice_entry.conformal_here


def test_variable_scenario_compatibility(cws_variable):
    x, y = 0.3, 0.5
    p = cws_variable.source.ambient.point([x, y, 0.1, 0.2])
    entry = compatibility(cws_variable, p)
    want = np.exp(2 * y) * (1 + x**2)
    assert entry.r1 == pytest.approx(want, rel=1e-12)
    assert abs(entry.r1 / entry.r2 - 1.0) <= 1e-10
    d = cws_variable.ctx.dilation(p)
    assert abs(d.lambda_sq - want) <= 1e-8 * want


def test_kernel_product_and_blocks(cws_constant):
    records = verify_kernel_product(cws_constant, pts(cws_constant, [[0.2, 0.1, -0.3, 0.4]]))
    assert all(r.passed and r.max_residual == 0.0 for r in records)
    s = cws_constant.ctx.splitting_at([0.2, 0.1, -0.3, 0.4])
    assert s.vertical.shape[1] == 2


def test_rescaled_metric_raises_off_conformal(cws_incompatible):
    rescaled = rescaled_context(cws_incompatible).map.source
    with pytest.raises(ConformalityError):
        rescaled.metric_at([0.3, 0.0, 0.0, 0.0])


def test_first_factor_identity_constant(cws_constant):
    points = pts(cws_constant, [[0.3, -0.2, 0.1, 0.4], [0.1, 0.2, -0.3, 0.2]])
    rec = verify_first_factor_a_identity(
        cws_constant, points, horizontal_pairs(cws_constant.ctx1, 1)
    )
    assert rec.passed and rec.max_residual <= 1e-5


def test_first_factor_identity_variable(cws_variable):
    points = pts(cws_variable, [[0.3, 0.4, 0.1, -0.2], [0.2, 0.5, -0.3, 0.2]])
    rec = verify_first_factor_a_identity(
        cws_variable, points, horizontal_pairs(cws_variable.ctx1, 2)
    )
    assert rec.passed and rec.max_residual <= 1e-5
    assert "gradient-convention gap" in rec.notes


def test_second_factor_identity_adjudication(cws_constant, cws_variable):
    points_c = pts(cws_constant, [[0.3, -0.2, 0.1, 0.4]])
    rec_c, worst_c = verify_second_factor_a_identity(
        cws_constant, points_c, horizontal_pairs(cws_constant.ctx2, 3)
    )
    # equal constant dilations make the two denominators identical
    assert rec_c.passed
    assert worst_c["first-factor-denominator"] <= 1e-5
    assert worst_c["second-factor-denominator"] <= 1e-5

    points_v = pts(cws_variable, [[0.3, 0.4, 0.1, -0.2], [0.2, 0.5, -0.3, 0.2]])
    rec_v, worst_v = verify_second_factor_a_identity(
        cws_variable, points_v, horizontal_pairs(cws_variable.ctx2, 4)
    )
    assert rec_v.passed
    assert worst_v["second-factor-denominator"] <= 1e-5
    assert worst_v["first-factor-denominator"] > 10 * 1e-5
    assert "passing variant(s): second-factor-denominator" in rec_v.notes


def test_second_factor_variant_fields_values(cws_variable):
    fields = second_factor_variant_fields(cws_variable)
    c = np.array([0.3, 0.4, 0.1, -0.2])
    f_sq = np.exp(-2 * 0.4) / (1 + 0.09)
    lam1_sq = np.exp(2 * 0.4) * (1 + 0.09)
    assert fields["first-factor-denominator"](c) == pytest.approx(f_sq / lam1_sq, rel=1e-12)
    assert fields["second-factor-denominator"](c) == pytest.approx(f_sq, rel=1e-12)


def test_riemannian_reduction(cws_riemannian, cws_constant):
    points = pts(cws_riemannian, [[0.2, -0.1, 0.3, 0.4], [0.0, 0.0, 0.1, -0.5]])
    rec = verify_riemannian_reduction(cws_riemannian, points)
    assert rec.passed and rec.max_residual <= 1e-8
    with pytest.raises(ConfigurationError):
        verify_riemannian_reduction(cws_constant, pts(cws_constant, [[0.2, -0.1, 0.3, 0.4]]))


def test_reduction_rejects_mismatched_warps():
    M1 = ChartManifold.euclidean(2, [-2, -2], [2, 2])
    M2 = ChartManifold.euclidean(1, [-2], [2])
    unit = ScalarField.constant(1.0)
    warp = ScalarField(lambda c: float(np.exp(c[0])), lambda c: np.array([np.exp(c[0]), 0.0]))
    cws = build_product_submersion(
        identity_map(M1), unit, identity_map(M2), unit, warp, ScalarField.constant(1.0), ENGINE
    )
    with pytest.raises(ConfigurationError):
        verify_riemannian_reduction(cws, [cws.source.ambient.point([0.5, 0.0, 0.0])])


def test_reduction_checks_positivity_before_unit_dilations():
    # lambda1 = 2 is no unit dilation, and the warp f = x vanishes at x = 0
    M1 = ChartManifold.euclidean(2, [-2, -2], [2, 2])
    M2 = ChartManifold.euclidean(1, [-2], [2])
    unit = ScalarField.constant(1.0)
    warp = ScalarField(lambda c: float(c[0]))
    cws = build_product_submersion(identity_map(M1), ScalarField.constant(2.0),
                                   identity_map(M2), unit, warp, unit, ENGINE)
    p = cws.source.ambient.point([0.0, 0.1, 0.2])
    with pytest.raises(WarpPositivityError, match="source warp = 0.0 <= 0"):
        verify_riemannian_reduction(cws, [p])


def test_rescaling_turns_product_riemannian(cws_constant):
    points = pts(cws_constant, [[0.3, -0.2, 0.1, 0.4], [0.1, 0.2, -0.3, 0.2]])
    main, probe_detect, probe_value = verify_rescaled_riemannian(cws_constant, points)
    assert main.passed and main.max_residual <= 1e-8
    assert probe_detect.passed  # expected-fail: perturbation must be detected
    assert probe_value.passed
    # the perturbed factor moves the squared dilation to e^{0.2}
    ctx = rescaled_context(cws_constant, 0.1)
    d = ctx.dilation(cws_constant.source.ambient.point([0.3, -0.2, 0.1, 0.4]))
    assert d.lambda_sq == pytest.approx(np.exp(0.2), rel=1e-10)


def test_rescaling_unit_dilation_is_noop(cws_riemannian):
    ctx = rescaled_context(cws_riemannian, 0.0)
    p = cws_riemannian.source.ambient.point([0.2, -0.1, 0.3, 0.4])
    d = ctx.dilation(p)
    assert d.lambda_sq == pytest.approx(1.0, abs=1e-14)


def test_fiber_geometry_constant_scenario(cws_constant):
    points = pts(cws_constant, [[0.3, -0.2, 0.1, 0.4]])
    h1, h2, mixed = fiber_geometry_report(
        cws_constant, points, expect_first_minimal=True, expect_second_minimal=False
    )
    assert h1.passed and h1.max_residual <= 1e-6
    assert h2.passed and h2.max_residual > 1e-6
    assert mixed.passed and mixed.max_residual <= 1e-6


def test_fiber_mean_curvature_matches_warp_gradient(cws_constant):
    # H over the second vertical block is minus the log-warp gradient
    from warpgeo import christoffel, gradient, oneill_t

    p = cws_constant.source.ambient.point([0.3, -0.2, 0.1, 0.4])
    _, v2 = factor_vertical_bases(cws_constant, p)
    gamma = christoffel(cws_constant.source.ambient, ENGINE, p)
    h2 = np.zeros(4)
    for k in range(v2.shape[1]):
        u = VectorField.constant(v2[:, k])
        h2 += oneill_t(cws_constant.ctx, u, u, p, gamma)
    h2 /= v2.shape[1]
    grad_log = gradient(cws_constant.source.ambient, ENGINE, cws_constant.source.log_warp(), p)
    assert np.allclose(h2, -grad_log, atol=1e-7)
    assert np.allclose(h2, [-2.0, 0.0, 0.0, 0.0], atol=1e-7)


def test_compatibility_rejects_nonpositive_data():
    M1 = ChartManifold.euclidean(2, [-2, -2], [2, 2])
    M2 = ChartManifold.euclidean(1, [-2], [2])
    unit = ScalarField.constant(1.0)
    bad_rho = ScalarField(lambda c: float(c[0]))  # negative on half the target
    cws = build_product_submersion(
        identity_map(M1), unit, identity_map(M2), unit, unit, bad_rho, ENGINE
    )
    probe = cws.source.ambient.point([-0.5, 0.0, 0.0])
    with pytest.raises(WarpPositivityError):
        compatibility(cws, probe)
    cws.ctx.splitting_at(probe)  # the target warp is not read by the splitting


@pytest.mark.parametrize("x, shown", [(0.0, "0.0"), (-0.5, "-0.5"), (-1.2, "nan")],
                         ids=["zero", "negative", "nan"])
def test_nonpositive_warp_raises_warp_positivity_in_compatibility(x, shown):
    # the first-coordinate factors of cws-mixed-local with the warp f = x,
    # NaN below x = -1
    phi1, lam1, phi2, lam2, _, rho = scenarios._first_coords()
    warp = ScalarField(lambda c: float(c[0]) if c[0] > -1.0 else np.nan)
    cws = build_product_submersion(phi1, lam1, phi2, lam2, warp, rho, ENGINE)
    p = cws.source.ambient.point([x, 0.1, 0.2, 0.3])
    message = f"source warp = {shown} <= 0 at {p}"
    with pytest.raises(WarpPositivityError) as exc:
        compatibility(cws, p)
    assert str(exc.value) == message
    with pytest.raises(WarpPositivityError):
        cws.ctx.dilation(p)  # the ambient metric agrees
    with pytest.raises(WarpPositivityError):
        cws.ctx.splitting_at(p)


def test_a_nan_first_factor_image_raises_domain_error_naming_the_source_point():
    # the factors of cws-riemannian; rho was read at the unchecked image, and
    # the error blamed the target warp: "target warp = nan <= 0"
    phi1, lam1, phi2, lam2, f, rho = scenarios._first_coords()
    nan_phi1 = replace(phi1, fn=lambda c: np.array([np.nan]))
    cws = build_product_submersion(nan_phi1, lam1, phi2, lam2, f, rho, ENGINE)
    p = cws.source.ambient.point([0.4, 0.1, 0.2, 0.3])
    with pytest.raises(DomainError) as exc:
        compatibility(cws, p)
    assert str(exc.value) == f"image [nan] of {p[:2]} outside target domain"


def _identity_factors(lambda1, lambda2, f, rho):
    """The identity maps of R^2 and R, with the given dilations and warps."""
    M1 = ChartManifold.euclidean(2, [-2, -2], [2, 2])
    M2 = ChartManifold.euclidean(1, [-2], [2])
    return build_product_submersion(identity_map(M1), lambda1, identity_map(M2), lambda2, f, rho,
                                    ENGINE)


@pytest.mark.parametrize("slot, label", enumerate(["lambda1", "lambda2", "source warp",
                                                   "target warp"]))
def test_an_infinite_dilation_or_warp_raises_warp_positivity(slot, label):
    # infinite on x > 0.5 of its own factor; at the parent, compatibility
    # returned r1 = r2 = inf and residual = nan, read as "non-conformal"
    unit = ScalarField.constant(1.0)
    data = [unit] * 4
    data[slot] = ScalarField(lambda c: np.inf if c[0] > 0.5 else 1.0)
    cws = _identity_factors(*data)
    assert compatibility(cws, cws.source.ambient.point([0.2, 0.1, 0.2])).conformal_here
    p = cws.source.ambient.point([0.7, 0.1, 0.8])
    with pytest.raises(WarpPositivityError) as exc:
        compatibility(cws, p)
    assert str(exc.value) == f"{label} = inf is not finite at {p}"


def test_a_nan_residual_reaches_the_non_conformal_record():
    # lambda1 = lambda2 = 1e200 on x > 0.5 overflow r1 and r2 to inf, so the
    # residual there is NaN; a Python max drops a NaN after the first entry
    huge = ScalarField(lambda c: 1e200 if c[0] > 0.5 else 1.0)
    unit = ScalarField.constant(1.0)
    cws = _identity_factors(huge, huge, unit, unit)
    points = [cws.source.ambient.point(c) for c in ([0.2, 0.1, 0.2], [0.7, 0.1, 0.8])]
    assert [np.isnan(e.residual) for e in compatibility_report(cws, points)] == [False, True]
    (record,) = scenarios._compatibility_records(cws, points, RunConfig(), False)
    assert np.isnan(record.max_residual)


@pytest.mark.boundary
@pytest.mark.parametrize("slot, label", enumerate(["lambda1", "lambda2", "source warp",
                                                   "target warp"]))
def test_a_warp_whose_square_underflows_raises_warp_positivity(slot, label):
    # 1e-170 on x > 0.5 of its own factor is positive and finite, but its
    # square is 0.0; r2 divided by f^2, and by a zero r2 where the target
    # warp or lambda2 underflowed, which numpy warned about
    unit = ScalarField.constant(1.0)
    data = [unit] * 4
    data[slot] = ScalarField(lambda c: 1e-170 if c[0] > 0.5 else 1.0)
    cws = _identity_factors(*data)
    points = [cws.source.ambient.point(c) for c in ([0.2, 0.1, 0.2], [0.7, 0.1, 0.8])]
    message = f"{label} = 1e-170 squares to 0 at {points[1]}"
    calls = [lambda: compatibility(cws, points[1]), lambda: compatibility_report(cws, points),
             lambda: scenarios._compatibility_records(cws, points, RunConfig(), True)]
    for call in calls:
        with pytest.raises(WarpPositivityError) as exc:
            call()
        assert str(exc.value) == message


@pytest.mark.boundary
@pytest.mark.parametrize("bad", [{1: 1e-100, 3: 1e-100}, {2: 1e200}],
                         ids=["rho-lambda2-underflows", "warp-square-overflows"])
def test_a_zero_r2_raises_warp_positivity(bad):
    # on x > 0.5 of their own factors every datum is positive, finite and
    # squares to a positive number, but r2 = (rho o phi1)^2 lambda2^2 / f^2
    # is 0.0: 1e-200 * 1e-200 underflows, or 1 / inf where f^2 overflows;
    # r1 / r2 divided by that zero, which numpy warned about
    data = [ScalarField.constant(1.0)] * 4
    for slot, value in bad.items():
        data[slot] = ScalarField(lambda c, v=value: v if c[0] > 0.5 else 1.0)
    cws = _identity_factors(*data)
    points = [cws.source.ambient.point(c) for c in ([0.2, 0.1, 0.2], [0.7, 0.1, 0.8])]
    assert compatibility(cws, points[0]).conformal_here
    message = f"r2 = (rho o phi1)^2 lambda2^2 / f^2 is 0 at {points[1]}"
    calls = [lambda: compatibility(cws, points[1]), lambda: compatibility_report(cws, points),
             lambda: scenarios._compatibility_records(cws, points, RunConfig(), True)]
    for call in calls:
        with pytest.raises(WarpPositivityError) as exc:
            call()
        assert str(exc.value) == message


def test_jacobian_block_structure_with_fd_factors():
    # factor maps without analytic Jacobians still give exact zero cross blocks
    M1 = ChartManifold.euclidean(2, [-2, -2], [2, 2])
    N1 = ChartManifold.euclidean(1, [-9], [9])
    M2 = ChartManifold.euclidean(1, [-2], [2])
    phi1 = SmoothMap(M1, N1, lambda c: np.array([np.sin(c[0]) + c[1]]), None)
    phi2 = SmoothMap(M2, M2, lambda c: c, None)
    unit = ScalarField.constant(1.0)
    cws = build_product_submersion(phi1, unit, phi2, unit, unit, unit, ENGINE)
    J = cws.ctx.map.jacobian_at([0.1, 0.2, 0.3], ENGINE)
    assert J.shape == (2, 3)
    assert J[0, 2] == 0.0 and J[1, 0] == 0.0 and J[1, 1] == 0.0
