import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpgeo import (
    ChartManifold,
    DegenerateMetricError,
    DiffEngine,
    DomainError,
    ScalarField,
    SubmersionContext,
    VectorField,
    gradient,
    identity_map,
    metric_inner,
    partial_derivative,
    pushforward,
)
from warpgeo.manifold import check_scalar_field

from oracles import symbolic_gradient
import sympy as sp


@pytest.fixture
def engine():
    return DiffEngine()


@pytest.fixture
def polar():
    return ChartManifold(2, [1e-6, -10.0], [10.0, 10.0], lambda c: np.diag([1.0, c[0] ** 2]), "polar")


def test_metric_inner_euclidean():
    M = ChartManifold.euclidean(2)
    p = M.point([0.0, 0.0])
    assert metric_inner(M, p, [1, 0], [1, 0]) == 1.0
    q = M.point([3.0, 4.0])
    assert metric_inner(M, q, [1, 0], [0, 1]) == 0.0


def test_metric_inner_polar(polar):
    p = polar.point([2.0, 0.0])
    assert metric_inner(polar, p, [0, 1], [0, 1]) == pytest.approx(4.0, abs=1e-12)


def test_point_is_the_checked_coordinate_array():
    M = ChartManifold.euclidean(2, [-1.0, -1.0], [1.0, 1.0])
    p = M.point([0.5, -0.5])
    assert isinstance(p, np.ndarray) and p.dtype == float
    assert np.array_equal(p, [0.5, -0.5])
    for wrong_length in ([0.5], [0.1, 0.2, 0.3]):
        with pytest.raises(ValueError):
            M.point(wrong_length)
    for outside in ([1.5, 0.0], [0.0, -1.0]):  # the box is open
        with pytest.raises(DomainError):
            M.point(outside)


def test_point_outside_domain_raises(polar):
    with pytest.raises(DomainError):
        polar.point([-1.0, 0.0])
    inside = polar.point([1.0, 0.0])
    squeezed = ChartManifold.euclidean(2, [5.0, 5.0], [6.0, 6.0])
    with pytest.raises(DomainError):
        metric_inner(squeezed, inside, [1, 0], [1, 0])


@pytest.mark.parametrize(
    "bad_metric",
    [
        lambda c: np.diag([1.0, 0.0]),  # singular
        lambda c: np.diag([1.0, -1.0]),  # indefinite
        lambda c: np.array([[1.0, 0.5], [0.0, 1.0]]),  # asymmetric
    ],
)
def test_degenerate_metric_raises(bad_metric):
    M = ChartManifold(2, [-1, -1], [1, 1], bad_metric)
    p = M.point([0.0, 0.0])
    with pytest.raises(DegenerateMetricError):
        metric_inner(M, p, [1, 0], [1, 0])


def test_metric_inner_symmetric_bilinear(polar):
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = polar.point(rng.uniform([0.5, -3.0], [5.0, 3.0]))
        u = rng.uniform(-1, 1, 2)
        v = rng.uniform(-1, 1, 2)
        guv = metric_inner(polar, p, u, v)
        gvu = metric_inner(polar, p, v, u)
        scale = 1.0 + max(abs(guv), abs(gvu))
        assert abs(guv - gvu) <= 1e-12 * scale
        w = 2.5 * u - 0.5 * v
        assert metric_inner(polar, p, w, v) == pytest.approx(
            2.5 * guv - 0.5 * metric_inner(polar, p, v, v), rel=1e-12, abs=1e-12
        )


def test_partial_derivative_dispatch(engine):
    M = ChartManifold.euclidean(1, [-5], [5])
    p = M.point([1.0])
    square = ScalarField(lambda c: c[0] ** 2)
    assert partial_derivative(M, engine, square, p, 0) == pytest.approx(2.0, abs=1e-9)
    vec = partial_derivative(M, engine, VectorField(lambda c: np.array([c[0] ** 3])), p, 0)
    assert np.allclose(vec, [3.0], atol=1e-9)
    mat = partial_derivative(M, engine, M.metric, p, 0)
    assert np.allclose(mat, 0.0)


def test_gradient_trivial_and_derived(engine, polar):
    M = ChartManifold.euclidean(2)
    p = M.point([0.7, -0.2])
    g = gradient(M, engine, ScalarField(lambda c: c[0]), p)
    assert np.allclose(g, [1.0, 0.0], atol=1e-10)

    warped = ChartManifold(2, None, None, lambda c: np.diag([1.0, np.exp(2 * c[0])]), "warped-line")
    p0 = warped.point([0.0, 0.0])
    g0 = gradient(warped, engine, ScalarField(lambda c: c[1]), p0)
    assert np.allclose(g0, [0.0, 1.0], atol=1e-10)

    pp = polar.point([2.0, 0.0])
    gp = gradient(polar, engine, ScalarField(lambda c: c[1]), pp)
    assert np.allclose(gp, [0.0, 0.25], atol=1e-10)


def test_gradient_matches_symbolic_oracle(engine, polar):
    r, th = sp.symbols("r th", positive=True)
    phi_expr = sp.sin(th) * r**2
    phi = ScalarField(lambda c: float(np.sin(c[1]) * c[0] ** 2))
    for coords in [(1.5, 0.3), (2.5, -1.1)]:
        want = symbolic_gradient([[1, 0], [0, r**2]], (r, th), phi_expr, coords)
        got = gradient(polar, engine, phi, polar.point(coords))
        assert np.allclose(got, want, atol=1e-8)


def test_gradient_duality(engine, polar):
    # g(grad phi, v) equals the directional derivative of phi along v
    rng = np.random.default_rng(42)
    for _ in range(20):
        coords = rng.uniform([0.5, -3.0], [5.0, 3.0])
        a = rng.uniform(-1, 1, 2)
        w = rng.uniform(0.3, 1.0, 2)
        phi = ScalarField(lambda c, a=a, w=w: float(a @ c + np.sin(w @ c)))
        p = polar.point(coords)
        v = rng.uniform(-1, 1, 2)
        df = gradient(polar, engine, phi, p)
        lhs = metric_inner(polar, p, df, v)
        rhs = engine.directional(phi.fn, coords, v, polar.lower, polar.upper)
        assert abs(lhs - rhs) <= 1e-5 * (1.0 + max(abs(lhs), abs(rhs)))


@settings(max_examples=25, deadline=None)
@given(
    x=st.floats(min_value=-0.9, max_value=0.9),
    y=st.floats(min_value=-0.9, max_value=0.9),
    a=st.floats(min_value=-2.0, max_value=2.0),
    b=st.floats(min_value=-2.0, max_value=2.0),
)
def test_gradient_duality_property(x, y, a, b):
    engine = DiffEngine()
    M = ChartManifold(2, [-2, -2], [2, 2], lambda c: np.diag([1.0, np.exp(2 * c[0])]))
    phi = ScalarField(lambda c: float(a * c[0] + b * np.cos(c[1])))
    p = M.point([x, y])
    v = np.array([b, a])
    lhs = metric_inner(M, p, gradient(M, engine, phi, p), v)
    rhs = engine.directional(phi.fn, p, v, M.lower, M.upper)
    assert abs(lhs - rhs) <= 1e-5 * (1.0 + max(abs(lhs), abs(rhs)))


def test_analytic_partials_validated(engine):
    M = ChartManifold.euclidean(1, [-5], [5])
    good = ScalarField(lambda c: float(np.exp(c[0])), lambda c: np.array([np.exp(c[0])]))
    bad = ScalarField(lambda c: float(np.exp(c[0])), lambda c: np.array([2.0 * np.exp(c[0])]))
    pts = [M.point([0.2]), M.point([1.1])]
    fd_consistency_tol = 1e-5
    assert check_scalar_field(M, engine, good, pts) <= fd_consistency_tol
    assert check_scalar_field(M, engine, bad, pts) > fd_consistency_tol
    no_partials = ScalarField(lambda c: float(c[0]))
    assert check_scalar_field(M, engine, no_partials, pts) == 0.0


def test_gradient_uses_analytic_partials(engine):
    # a deliberately wrong evaluator shows the analytic path is taken
    M = ChartManifold.euclidean(2)
    phi = ScalarField(lambda c: 0.0, lambda c: np.array([1.0, 0.0]))
    g = gradient(M, engine, phi, M.point([0.3, 0.4]))
    assert np.allclose(g, [1.0, 0.0])


def test_vector_entry_points_reject_wrong_length():
    M = ChartManifold.euclidean(2)
    p = M.point([0.0, 0.0])
    with pytest.raises(ValueError, match=r"expected \(2,\)"):
        metric_inner(M, p, [1.0, 2.0, 3.0], [1.0, 0.0])
    with pytest.raises(ValueError, match=r"expected \(2,\)"):
        metric_inner(M, p, [1.0, 0.0], [1.0])
    ctx = SubmersionContext(identity_map(M), DiffEngine())
    with pytest.raises(ValueError, match=r"expected \(2,\)"):
        pushforward(ctx.map, ctx.engine, p, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=r"expected \(2,\)"):
        ctx.split(p, [1.0])
    # a column vector is flattened, not refused
    assert metric_inner(M, p, [[1.0], [2.0]], [3.0, 4.0]) == 11.0
