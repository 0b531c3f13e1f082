import numpy as np
import pytest

from warpgeo import (
    ChartManifold,
    ConformalityError,
    DiffEngine,
    RankError,
    ScalarField,
    SmoothMap,
    SubmersionContext,
    VectorField,
    build_warped_product,
    conformal_a_formula,
    identity_map,
    lie_bracket,
    lift,
    oneill_a,
    oneill_t,
    pushforward,
    vertical_gradient,
)
from warpgeo.fields import vector_field_library
from warpgeo.scenarios import spiral_map
from warpgeo.warped import projection_map

ENGINE = DiffEngine()


@pytest.fixture
def spiral():
    source = ChartManifold.euclidean(4, [-2.0] * 4, [2.0] * 4, name="R4")
    target = ChartManifold.euclidean(2, [-9.0] * 2, [9.0] * 2, name="R2")
    smap = spiral_map(source, target)
    return SubmersionContext(smap, ENGINE)


@pytest.fixture
def warped_line():
    line = ChartManifold.euclidean(1, [-3.0], [3.0], name="line")
    warp = ScalarField(lambda c: float(np.exp(c[0])), lambda c: np.array([np.exp(c[0])]))
    return build_warped_product(line, line, warp)


def test_pushforward_identity():
    M = ChartManifold.euclidean(3)
    p = M.point([0.1, 0.2, 0.3])
    v = np.array([1.0, -2.0, 0.5])
    out = pushforward(identity_map(M), ENGINE, p, v)
    assert np.allclose(out, v)


def test_pushforward_spiral_at_origin(spiral):
    p = spiral.map.source.point([0.0, 0.0, 0.0, 0.0])
    d3 = pushforward(spiral.map, ENGINE, p, [0, 0, 1, 0])
    assert np.allclose(d3, [0.0, 1.0], atol=1e-14)
    d1 = pushforward(spiral.map, ENGINE, p, [1, 0, 0, 0])
    assert np.allclose(d1, 0.0)


def test_pushforward_linear(spiral):
    p = spiral.map.source.point([0.1, 0.2, 0.3, 0.4])
    u = np.array([1.0, 0.0, 0.5, -0.5])
    v = np.array([0.0, 1.0, -1.0, 2.0])
    pu = pushforward(spiral.map, ENGINE, p, u)
    pv = pushforward(spiral.map, ENGINE, p, v)
    mix = pushforward(spiral.map, ENGINE, p, 2 * u + v)
    assert np.allclose(mix, 2 * pu + pv, atol=1e-12)


def test_jacobian_check_flags_wrong_analytic():
    M = ChartManifold.euclidean(2, [-2, -2], [2, 2])
    N = ChartManifold.euclidean(1, [-9], [9])
    good = SmoothMap(M, N, lambda c: np.array([c[0] * c[1]]), lambda c: np.array([[c[1], c[0]]]))
    bad = SmoothMap(M, N, lambda c: np.array([c[0] * c[1]]), lambda c: np.array([[c[1], -c[0]]]))
    pts = [M.point([0.4, 0.8])]
    fd_consistency_tol = 1e-5
    assert good.check_jacobian(ENGINE, pts) <= fd_consistency_tol
    assert bad.check_jacobian(ENGINE, pts) > fd_consistency_tol


def test_split_vertical_input(spiral):
    p = spiral.map.source.point([0.0, 0.0, 0.0, 0.0])
    vert, horiz = spiral.split(p, [1.0, 2.0, 0.0, 0.0])
    assert np.allclose(vert, [1.0, 2.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(horiz, 0.0, atol=1e-12)


def test_split_mixed_input_and_idempotence(spiral):
    p = spiral.map.source.point([0.0, 0.0, 0.0, 0.0])
    vert, horiz = spiral.split(p, [1.0, 0.0, 1.0, 0.0])
    assert np.allclose(vert, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(horiz, [0.0, 0.0, 1.0, 0.0], atol=1e-12)
    vert2, horiz2 = spiral.split(p, horiz)
    assert np.allclose(vert2, 0.0, atol=1e-12)
    assert np.allclose(horiz2, horiz, atol=1e-12)


def test_split_invariants_random_points(spiral):
    rng = np.random.default_rng(17)
    M = spiral.map.source
    for _ in range(5):
        coords = rng.uniform(-0.9, 0.9, 4)
        v = rng.uniform(-1, 1, 4)
        s = spiral.splitting_at(coords)
        vert = s.vertical_part(v)
        horiz = s.horizontal_part(v)
        g = M.metric_at(coords)
        J = spiral.map.jacobian_at(coords, ENGINE)
        scale = 1.0 + np.max(np.abs(v))
        assert np.max(np.abs(v - vert - horiz)) <= 1e-10 * scale
        assert np.max(np.abs(J @ vert)) <= 1e-8 * (1.0 + np.max(np.abs(J)))
        assert abs(vert @ g @ horiz) <= 1e-8 * scale
        assert s.rank == 2 and s.vertical.shape[1] == 2 and s.horizontal.shape[1] == 2


def test_rank_error_reports_diagnostics():
    M = ChartManifold.euclidean(2, [-2, -2], [2, 2])
    N = ChartManifold.euclidean(2, [-9, -9], [9, 9])
    degenerate = SmoothMap(M, N, lambda c: np.array([c[0], c[0]]),
                           lambda c: np.array([[1.0, 0.0], [1.0, 0.0]]))
    ctx = SubmersionContext(degenerate, ENGINE)
    with pytest.raises(RankError) as err:
        ctx.splitting_at([0.1, 0.1])
    assert err.value.rank == 1
    assert err.value.singular_values is not None


def test_dilation_riemannian_projection(warped_line):
    W = build_warped_product(
        ChartManifold.euclidean(2, [-2, -2], [2, 2]),
        ChartManifold.euclidean(1, [-2], [2]),
        ScalarField.constant(1.0),
    )
    ctx = SubmersionContext(projection_map(W, "first"), ENGINE)
    d = ctx.dilation(W.point([0.3, -0.2], [0.5]))
    assert d.lambda_sq == pytest.approx(1.0, abs=1e-14)
    assert d.anisotropy == pytest.approx(1.0, abs=1e-14)


def test_dilation_spiral_both_paths(spiral):
    rng = np.random.default_rng(4)
    fd_map = SmoothMap(spiral.map.source, spiral.map.target, spiral.map.fn, None)
    fd_ctx = SubmersionContext(fd_map, ENGINE)
    for _ in range(5):
        coords = rng.uniform(-0.8, 0.8, 4)
        p = spiral.map.source.point(coords)
        want = np.exp(2.0 * coords[2])
        d = spiral.dilation(p)
        assert abs(d.lambda_sq - want) <= 1e-8 * want
        assert d.anisotropy - 1.0 <= 1e-8
        d_fd = fd_ctx.dilation(p)
        assert abs(d_fd.lambda_sq - want) <= 1e-6 * want
        assert d_fd.anisotropy - 1.0 <= 1e-6


def test_dilation_non_conformal_map():
    M = ChartManifold.euclidean(3, [-2] * 3, [2] * 3)
    N = ChartManifold.euclidean(2, [-9] * 2, [9] * 2)
    stretch = SmoothMap(M, N, lambda c: np.array([c[0], 2 * c[1]]),
                        lambda c: np.array([[1.0, 0, 0], [0, 2.0, 0]]))
    ctx = SubmersionContext(stretch, ENGINE)
    d = ctx.dilation(M.point([0.1, 0.2, 0.3]))
    assert d.anisotropy == pytest.approx(4.0, abs=1e-12)
    assert d.lambda_sq == pytest.approx(2.5, abs=1e-12)
    assert not d.is_conformal(1e-6)


def test_warped_projection_second_factor_dilation(warped_line):
    # projecting onto the second factor is conformal with dilation 1/warp
    ctx = SubmersionContext(projection_map(warped_line, "second"), ENGINE)
    p = warped_line.point([0.3], [0.1])
    d = ctx.dilation(p)
    assert d.lambda_sq == pytest.approx(np.exp(-0.6), rel=1e-12)
    assert d.anisotropy == pytest.approx(1.0, abs=1e-12)


def test_oneill_a_vertical_direction_vanishes(spiral):
    p = spiral.map.source.point([0.2, -0.1, 0.1, 0.3])
    vertical = VectorField.constant([1.0, 0.5, 0.0, 0.0])
    F = VectorField(lambda c: np.array([c[2], 0.1, np.sin(c[3]), 1.0]))
    out = oneill_a(spiral, vertical, F, p)
    assert np.allclose(out, 0.0, atol=1e-10)


def test_oneill_a_warped_projection_lifted_fields(warped_line):
    ctx = SubmersionContext(projection_map(warped_line, "first"), ENGINE)
    X = lift(warped_line, "first", VectorField(lambda c: np.array([np.sin(c[0]) + 1.5])))
    Y = lift(warped_line, "first", VectorField(lambda c: np.array([c[0] ** 2 + 1.0])))
    p = warped_line.point([0.4], [0.2])
    out = oneill_a(ctx, X, Y, p)
    assert np.allclose(out, 0.0, atol=1e-9)


def test_oneill_t_horizontal_direction_vanishes(warped_line):
    ctx = SubmersionContext(projection_map(warped_line, "first"), ENGINE)
    p = warped_line.point([0.1], [0.4])
    horizontal = VectorField.constant([1.0, 0.0])
    F = VectorField(lambda c: np.array([np.cos(c[1]), c[0]]))
    out = oneill_t(ctx, horizontal, F, p)
    assert np.allclose(out, 0.0, atol=1e-10)


def test_oneill_t_second_projection_leaf_direction(warped_line):
    # fibers of the second projection are the leaves; they are geodesic
    ctx = SubmersionContext(projection_map(warped_line, "second"), ENGINE)
    p = warped_line.point([0.0], [0.0])
    dt = VectorField.coordinate(2, 0)
    out = oneill_t(ctx, dt, dt, p)
    assert np.allclose(out, 0.0, atol=1e-10)


def test_oneill_t_umbilical_value(warped_line):
    ctx = SubmersionContext(projection_map(warped_line, "first"), ENGINE)
    p = warped_line.point([0.0], [0.0])
    dx = VectorField.coordinate(2, 1)
    out = oneill_t(ctx, dx, dx, p)
    assert np.allclose(out, [-1.0, 0.0], atol=1e-8)


def test_vertical_gradient_cases(spiral, warped_line):
    p = spiral.map.source.point([0.1, 0.2, 0.3, 0.4])
    const = ScalarField.constant(4.2)
    assert np.allclose(vertical_gradient(spiral, const, p), 0.0)

    decay = ScalarField(lambda c: float(np.exp(-2 * c[2])))
    assert np.allclose(vertical_gradient(spiral, decay, p), 0.0, atol=1e-10)

    ctx = SubmersionContext(projection_map(warped_line, "first"), ENGINE)
    q = warped_line.point([0.3], [0.1])
    coord = ScalarField(lambda c: float(c[1]))
    got = vertical_gradient(ctx, coord, q)
    assert np.allclose(got, [0.0, np.exp(-0.6)], atol=1e-9)


def test_conformal_a_formula_zero_cases(spiral):
    p = spiral.map.source.point([0.0, 0.0, 0.0, 0.0])
    d3 = VectorField.coordinate(4, 2)
    d4 = VectorField.coordinate(4, 3)
    out = conformal_a_formula(spiral, d3, d4, p)
    assert np.allclose(out, 0.0, atol=1e-9)


def test_conformal_a_formula_constant_dilation_reduces_to_half_bracket():
    # doubling map: lambda = 2, so only the bracket term survives
    M = ChartManifold.euclidean(2, [-2, -2], [2, 2])
    N = ChartManifold.euclidean(1, [-9], [9])
    double = SmoothMap(M, N, lambda c: np.array([2 * c[0]]), lambda c: np.array([[2.0, 0.0]]))
    ctx = SubmersionContext(double, ENGINE)
    p = M.point([0.2, 0.4])
    X = ctx.horizontal_field(VectorField(lambda c: np.array([np.sin(c[1]) + 1.2, 0.7])))
    Y = ctx.horizontal_field(VectorField(lambda c: np.array([c[0] + 2.0, -0.3])))
    got = conformal_a_formula(ctx, X, Y, p)
    s = ctx.splitting_at(p)
    want = 0.5 * s.vertical_part(lie_bracket(M, ENGINE, X, Y, p))
    assert np.allclose(got, want, atol=1e-9)


def test_conformal_a_formula_rejects_non_conformal():
    M = ChartManifold.euclidean(3, [-2] * 3, [2] * 3)
    N = ChartManifold.euclidean(2, [-9] * 2, [9] * 2)
    stretch = SmoothMap(M, N, lambda c: np.array([c[0], 2 * c[1]]),
                        lambda c: np.array([[1.0, 0, 0], [0, 2.0, 0]]))
    ctx = SubmersionContext(stretch, ENGINE)
    with pytest.raises(ConformalityError) as err:
        conformal_a_formula(ctx, VectorField.coordinate(3, 0),
                            VectorField.coordinate(3, 1), M.point([0.1, 0.1, 0.1]))
    assert err.value.anisotropy == pytest.approx(4.0, abs=1e-12)


def test_oneill_a_crossval_seeded_fields(spiral):
    rng = np.random.default_rng(23)
    M = spiral.map.source
    fields = [spiral.horizontal_field(F) for F in vector_field_library(M, rng, 4)]
    for coords in rng.uniform(-0.7, 0.7, size=(3, 4)):
        p = M.point(coords)
        for X, Y in [(fields[0], fields[1]), (fields[2], fields[3])]:
            direct = oneill_a(spiral, X, Y, p)
            formula = conformal_a_formula(spiral, X, Y, p)
            scale = 1.0 + max(np.max(np.abs(direct)), np.max(np.abs(formula)))
            assert np.max(np.abs(direct - formula)) <= 1e-5 * scale


def test_image_point_outside_target_domain():
    from warpgeo import DomainError

    M = ChartManifold.euclidean(1, [-2], [2])
    N = ChartManifold.euclidean(1, [-1], [1])
    big = SmoothMap(M, N, lambda c: 10 * c, lambda c: np.array([[10.0]]))
    with pytest.raises(DomainError):
        big.image_point(M.point([0.5]))
