import numpy as np
import pytest

from warpgeo import (
    ChartManifold,
    ConformalityError,
    DegenerateMetricError,
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
from warpgeo.manifold import PointFields
from warpgeo.submersion import _inverse_lambda_sq_field
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


def _rank_error(call) -> tuple:
    with pytest.raises(RankError) as err:
        call()
    e = err.value
    return type(e), str(e), e.rank, tuple(e.singular_values.tolist())


def test_rank_error_reports_diagnostics():
    M = ChartManifold.euclidean(2, [-2, -2], [2, 2])
    N = ChartManifold.euclidean(2, [-9, -9], [9, 9])
    degenerate = SmoothMap(M, N, lambda c: np.array([c[0], c[0]]),
                           lambda c: np.array([[1.0, 0.0], [1.0, 0.0]]))
    ctx = SubmersionContext(degenerate, ENGINE)
    p, q = M.point([0.1, 0.1]), M.point([0.2, 0.1])
    raised = {
        _rank_error(call)
        for call in (
            lambda: ctx.splitting_at(p),
            lambda: ctx.splittings_at([p, q]),
            lambda: ctx.dilation(p),
            lambda: ctx.dilations([p, q]),
        )
    }
    sigma = tuple(np.linalg.svd([[1.0, 0.0], [1.0, 0.0]])[1].tolist())
    assert raised == {(RankError, f"rank 1 below target dimension 2 at {p}", 1, sigma)}

    # a full-rank Jacobian into a target metric that vanishes
    flat = ChartManifold(1, [-9], [9], lambda y: np.zeros((1, 1)))
    ctx = SubmersionContext(
        SmoothMap(M, flat, lambda c: c[:1], lambda c: np.array([[1.0, 0.0]])), ENGINE
    )
    raised = {_rank_error(call) for call in (lambda: ctx.dilation(p),
                                             lambda: ctx.dilations([p, q]))}
    assert raised == {
        (RankError, f"pullback metric degenerate on horizontal space at {p}", 1, (1.0,))
    }


def _nan_above_half(datum):
    """(x, y) |-> y on the unit square, with ``datum`` ("jacobian", "source
    metric" or "target metric") NaN where y > 0.5."""

    def nan_above_half(name, y, value):
        return np.full(value.shape, np.nan) if datum == name and y > 0.5 else value

    M = ChartManifold(2, [0.0, 0.0], [1.0, 1.0],
                      lambda c: nan_above_half("source metric", c[1], np.eye(2)))
    N = ChartManifold(1, [-1.0], [2.0],
                      lambda y: nan_above_half("target metric", y[0], np.eye(1)))
    jac = lambda c: nan_above_half("jacobian", c[1], np.array([[0.0, 1.0]]))
    return SubmersionContext(SmoothMap(M, N, lambda c: c[1:], jac), ENGINE)


@pytest.mark.parametrize("datum, error, message", [
    ("jacobian", RankError, "Jacobian not finite at [0.2 0.7]"),
    ("source metric", DegenerateMetricError, "metric not finite at [0.2 0.7]"),
    ("target metric", RankError, "pullback metric degenerate on horizontal space at [0.2 0.7]"),
])
def test_non_finite_input_raises_naming_the_point(datum, error, message):
    ctx = _nan_above_half(datum)
    M = ctx.map.source
    good, bad = M.point([0.2, 0.3]), M.point([0.2, 0.7])
    assert ctx.dilation(good).lambda_sq == 1.0
    calls = [ctx.dilation, lambda p: ctx.dilations([good, p])]
    if datum != "target metric":
        calls += [ctx.splitting_at, lambda p: ctx.splittings_at([good, p])]
    for call in calls:
        with pytest.raises(error) as exc:
            call(bad)
        assert str(exc.value) == message


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


# a field that the package derives at one point is its point-set form on a
# stack of one: no single-point splitting or dilation, and a lifted field
# reads its factor field as a set
DERIVED_AT_ONE_POINT = {
    "vertical_field": lambda ctx, W, X, p: ctx.vertical_field(X)(p),
    "horizontal_field": lambda ctx, W, X, p: ctx.horizontal_field(X)(p),
    "horizontal_field-of-point-fields": lambda ctx, W, X, p: ctx.horizontal_field(
        PointFields.constant([X(p), -X(p)]))(p, 1),
    "lambda_sq_field": lambda ctx, W, X, p: ctx.lambda_sq_field()(p),
    "inverse-lambda_sq_field": lambda ctx, W, X, p: _inverse_lambda_sq_field(ctx)(p),
    "oneill-split": lambda ctx, W, X, p: oneill_t(ctx, X, X, p),  # the lone point's walk
    "lift": lambda ctx, W, X, p: lift(W, "second", VectorField(lambda c: np.exp(c)))(p[:2]),
}


@pytest.mark.parametrize("name", DERIVED_AT_ONE_POINT)
def test_a_derived_field_at_one_point_runs_its_form(name, spiral, warped_line, monkeypatch):
    X = vector_field_library(spiral.map.source, np.random.default_rng(5), 3)[2]
    p = spiral.map.source.point([0.3, -0.2, 0.5, 0.1])
    sizes = []
    for owner, attr in ((SubmersionContext, "splittings_at"), (SubmersionContext, "dilations"),
                        (VectorField, "values_at")):
        def spy(self, coords, *args, real=getattr(owner, attr)):
            sizes.append(np.shape(coords)[:1])
            return real(self, coords, *args)

        monkeypatch.setattr(owner, attr, spy)
    for attr in ("splitting_at", "dilation"):
        monkeypatch.setattr(SubmersionContext, attr,
                            lambda self, coords, attr=attr: pytest.fail(f"{attr} at {coords}"))
    value = DERIVED_AT_ONE_POINT[name](spiral, warped_line, X, p)
    assert np.isfinite(value).all()
    assert sizes and set(sizes) == {(1,)}


def test_point_fields_at_one_point_hand_their_form_the_owner():
    calls = []
    form = PointFields.constant(np.arange(6.0).reshape(3, 2)).stack

    def spy(points, owners):
        calls.append((points.tolist(), owners.tolist()))
        return form(points, owners)

    assert PointFields(spy)([0.5, 0.25], 2).tolist() == [4.0, 5.0]
    assert calls == [([[0.5, 0.25]], [2])]
