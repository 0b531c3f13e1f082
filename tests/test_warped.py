import numpy as np
import pytest

from warpgeo import (
    ChartManifold,
    DiffEngine,
    DomainError,
    ScalarField,
    StencilError,
    VectorField,
    WarpPositivityError,
    build_warped_product,
    lift,
    pushforward,
    second_fundamental_form,
)
from warpgeo.fields import vector_field_library
from warpgeo.warped import (
    projection_map,
    verify_leaf_fiber_geometry,
    verify_metric_blocks,
    verify_warped_connection,
)

ENGINE = DiffEngine()


def make_warped_line():
    line_t = ChartManifold.euclidean(1, [-3.0], [3.0], name="t")
    line_x = ChartManifold.euclidean(1, [-3.0], [3.0], name="x")
    warp = ScalarField(lambda c: float(np.exp(c[0])), lambda c: np.array([np.exp(c[0])]))
    return build_warped_product(line_t, line_x, warp)


def make_sphere():
    theta = ChartManifold.euclidean(1, [0.0], [np.pi])
    phi = ChartManifold.euclidean(1, [0.0], [2 * np.pi])
    warp = ScalarField(lambda c: float(np.sin(c[0])), lambda c: np.array([np.cos(c[0])]))
    return build_warped_product(theta, phi, warp)


def test_unit_warp_gives_product_metric():
    a = ChartManifold(1, [-2], [2], lambda c: np.array([[2.0]]))
    b = ChartManifold(1, [-2], [2], lambda c: np.array([[3.0]]))
    W = build_warped_product(a, b, ScalarField.constant(1.0))
    g = W.ambient.metric_at([0.5, -0.5])
    assert np.array_equal(g, np.diag([2.0, 3.0]))


def test_warped_line_metric_value():
    W = make_warped_line()
    g = W.ambient.metric_at([1.0, 0.7])
    assert g[0, 0] == 1.0
    assert g[1, 1] == pytest.approx(np.exp(2.0), rel=1e-15)
    assert g[0, 1] == 0.0 and g[1, 0] == 0.0


def test_sphere_chart_metric():
    W = make_sphere()
    g = W.ambient.metric_at([np.pi / 2, 1.0])
    assert np.allclose(g, np.eye(2), atol=1e-15)
    g4 = W.ambient.metric_at([np.pi / 4, 1.0])
    assert g4[1, 1] == pytest.approx(0.5, rel=1e-14)


def test_cross_blocks_exactly_zero():
    W = make_warped_line()
    pts = [W.point([t], [x]) for t, x in [(0.3, -0.4), (1.1, 0.9)]]
    record = verify_metric_blocks(W, pts)
    assert record.passed and record.max_residual == 0.0


def test_warp_positivity_error():
    line = ChartManifold.euclidean(1, [-3], [3])
    W = build_warped_product(line, line, ScalarField(lambda c: float(c[0])))
    with pytest.raises(WarpPositivityError):
        W.ambient.metric_at([-0.5, 0.0])


def test_lift_vector_fields():
    W = make_warped_line()
    dt = VectorField.coordinate(1, 0)
    lifted = lift(W, "first", dt)
    assert np.allclose(lifted([0.4, 0.9]), [1.0, 0.0])
    lifted2 = lift(W, "second", dt)
    assert np.allclose(lifted2([0.4, 0.9]), [0.0, 1.0])


def test_lift_scalar_composes_with_projection():
    W = make_warped_line()
    lifted = lift(W, "first", W.warp)
    assert lifted([2.0, 5.0]) == pytest.approx(np.exp(2.0), rel=1e-15)
    assert np.allclose(lifted.partials([2.0, 5.0]), [np.exp(2.0), 0.0])


def test_projection_recovers_factor_field():
    W = make_warped_line()
    rng = np.random.default_rng(2)
    pi1 = projection_map(W, "first")
    for X in vector_field_library(W.first, rng, 3):
        lifted = lift(W, "first", X)
        p = W.point([0.3], [0.8])
        pushed = pushforward(pi1, ENGINE, p, lifted(p))
        assert np.allclose(pushed, X([0.3]), atol=1e-12)


def test_warped_point_is_the_checked_ambient_coordinate_array():
    W = make_warped_line()
    assert np.array_equal(W.point([0.5], [-1.0]), [0.5, -1.0])
    with pytest.raises(ValueError):
        W.point([0.5, 0.1], [-1.0])
    for outside in (([3.5], [0.0]), ([0.0], [-3.0])):
        with pytest.raises(DomainError):
            W.point(*outside)


@pytest.mark.parametrize("verifier", ["connection", "leaf-fiber"])
def test_off_chart_coordinates_raise_in_fd_verifiers(verifier):
    # unchecked coordinates outside the box: no stencil fits, so no residual
    W = make_warped_line()
    outside = [np.array([0.2, 0.1]), np.array([3.5, 0.0])]
    with pytest.raises(StencilError):
        if verifier == "connection":
            verify_warped_connection(W, ENGINE, outside, _pairs(W.first, 1), _pairs(W.second, 2))
        else:
            verify_leaf_fiber_geometry(W, ENGINE, outside)


def test_lift_rejects_unknown_origin():
    W = make_warped_line()
    with pytest.raises(ValueError):
        lift(W, "third", VectorField.coordinate(1, 0))
    with pytest.raises(TypeError):
        lift(W, "first", 3.0)


def _sample_points(W, lo, hi, n=6, seed=0):
    rng = np.random.default_rng(seed)
    return [W.ambient.point(c) for c in rng.uniform(lo, hi, size=(n, W.ambient.dim))]


def _pairs(M, seed, n=2):
    rng = np.random.default_rng(seed)
    fields = vector_field_library(M, rng, 2 * n)
    return [(fields[2 * i], fields[2 * i + 1]) for i in range(n)]


def test_connection_identities_warped_line():
    W = make_warped_line()
    pts = _sample_points(W, [-0.8, -0.8], [0.8, 0.8])
    records = verify_warped_connection(W, ENGINE, pts, _pairs(W.first, 1), _pairs(W.second, 2))
    for rec in records:
        assert rec.passed, f"{rec.check_id}: {rec.max_residual}"
        assert rec.max_residual <= 1e-6


def test_connection_identities_sphere():
    W = make_sphere()
    pts = _sample_points(W, [0.5, 0.5], [2.6, 5.5])
    records = verify_warped_connection(W, ENGINE, pts, _pairs(W.first, 3), _pairs(W.second, 4))
    assert all(r.passed for r in records)


def test_connection_identities_unit_warp_trivial():
    # mixed and fiber-normal right-hand sides vanish for a plain product
    line = ChartManifold.euclidean(1, [-3], [3])
    W = build_warped_product(line, line, ScalarField.constant(1.0))
    pts = _sample_points(W, [-0.8, -0.8], [0.8, 0.8])
    records = verify_warped_connection(W, ENGINE, pts, _pairs(W.first, 5), _pairs(W.second, 6))
    by_id = {r.check_id: r for r in records}
    assert by_id["warped-conn-mixed"].max_residual == 0.0
    assert by_id["warped-conn-fiber-normal"].max_residual == 0.0


def test_mixed_derivative_value_warped_line():
    # nabla_{dt} dx = dx at t = 0 since the warp's log-derivative is 1
    from warpgeo import covariant_derivative

    W = make_warped_line()
    p = W.point([0.0], [0.0])
    dt = lift(W, "first", VectorField.coordinate(1, 0))
    dx = lift(W, "second", VectorField.coordinate(1, 0))
    out = covariant_derivative(W.ambient, ENGINE, dt, dx, p)
    assert np.allclose(out, [0.0, 1.0], atol=1e-8)


def test_fiber_normal_value_sphere():
    # nor(nabla_{dphi} dphi) at theta=pi/4 is (-sin cos, 0)
    from warpgeo import covariant_derivative

    W = make_sphere()
    p = W.point([np.pi / 4], [1.0])
    dphi = lift(W, "second", VectorField.coordinate(1, 0))
    out = covariant_derivative(W.ambient, ENGINE, dphi, dphi, p)
    assert out[0] == pytest.approx(-np.sin(np.pi / 4) * np.cos(np.pi / 4), abs=1e-8)
    assert abs(out[1]) <= 1e-8


def test_leaf_fiber_records():
    W = make_warped_line()
    pts = _sample_points(W, [-0.8, -0.8], [0.8, 0.8])
    leaf, umb, mean = verify_leaf_fiber_geometry(W, ENGINE, pts)
    assert leaf.passed and leaf.max_residual <= 1e-8
    assert umb.passed and umb.max_residual <= 1e-6
    assert mean.passed and mean.max_residual <= 1e-6


def test_second_fundamental_form_oracles():
    W = make_warped_line()
    p = W.point([0.0], [0.0])
    fiber = second_fundamental_form(W, ENGINE, "fiber", p)
    assert np.allclose(fiber.values[0, 0], [-1.0, 0.0], atol=1e-8)
    assert np.allclose(fiber.mean_curvature, [-1.0, 0.0], atol=1e-8)
    leaf = second_fundamental_form(W, ENGINE, "leaf", p)
    assert np.allclose(leaf.values, 0.0, atol=1e-12)
    with pytest.raises(ValueError):
        second_fundamental_form(W, ENGINE, "edge", p)


def test_constant_warp_fiber_form_vanishes():
    line = ChartManifold.euclidean(1, [-3], [3])
    W = build_warped_product(line, line, ScalarField.constant(2.0))
    fiber = second_fundamental_form(W, ENGINE, "fiber", W.point([0.1], [0.2]))
    assert np.allclose(fiber.values, 0.0, atol=1e-12)


def test_verifiers_build_each_christoffel_once_per_point(monkeypatch):
    # no evaluation scope: the sharing comes from the verifiers themselves
    import warpgeo.connection as connection

    built = []
    original = connection._christoffel

    def counting(M, engine, coords):
        built.append(M)
        return original(M, engine, coords)

    monkeypatch.setattr(connection, "_christoffel", counting)
    W = make_warped_line()
    pts = _sample_points(W, [-0.8, -0.8], [0.8, 0.8], n=3)
    verify_warped_connection(W, ENGINE, pts, _pairs(W.first, 1, 3), _pairs(W.second, 2, 3))
    assert sorted(map(id, built)) == sorted(map(id, [W.ambient, W.first, W.second] * len(pts)))
    built.clear()
    verify_leaf_fiber_geometry(W, ENGINE, pts)
    assert list(map(id, built)) == [id(W.ambient)] * len(pts)


def test_shared_gamma_gives_the_same_forms():
    from warpgeo import christoffel

    W = make_sphere()
    p = W.point([0.7], [1.3])
    gamma = christoffel(W.ambient, ENGINE, p)
    for which in ("leaf", "fiber"):
        own = second_fundamental_form(W, ENGINE, which, p)
        shared = second_fundamental_form(W, ENGINE, which, p, gamma)
        assert np.array_equal(own.values, shared.values)
        assert np.array_equal(own.mean_curvature, shared.mean_curvature)
