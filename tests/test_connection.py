import numpy as np
import pytest
import sympy as sp

from warpgeo import (
    ChartManifold,
    DiffEngine,
    ScalarField,
    VectorField,
    christoffel,
    coordinate_submanifold_form,
    covariant_derivative,
    lie_bracket,
)
from warpgeo.connection import covariant_derivative_dir
from warpgeo.fields import vector_field_library
from warpgeo.suites import engine_health_records

from oracles import symbolic_christoffel

ENGINE = DiffEngine()


@pytest.fixture
def polar():
    return ChartManifold(2, [1e-6, -10.0], [10.0, 10.0], lambda c: np.diag([1.0, c[0] ** 2]), "polar")


@pytest.fixture
def warped_line():
    return ChartManifold(2, None, None, lambda c: np.diag([1.0, np.exp(2 * c[0])]), "warped-line")


def test_euclidean_christoffel_exactly_zero():
    M = ChartManifold.euclidean(3)
    gamma = christoffel(M, ENGINE, M.point([0.3, -0.8, 2.0]))
    assert np.all(gamma == 0.0)


def test_polar_christoffel_frozen_values(polar):
    gamma = christoffel(polar, ENGINE, polar.point([2.0, 0.0]))
    # symbolic Levi-Civita of diag(1, r^2): Gamma^r_tt = -r, Gamma^t_rt = 1/r
    assert gamma[0, 1, 1] == pytest.approx(-2.0, abs=1e-8)
    assert gamma[1, 0, 1] == pytest.approx(0.5, abs=1e-8)
    mask = np.ones((2, 2, 2), dtype=bool)
    mask[0, 1, 1] = mask[1, 0, 1] = mask[1, 1, 0] = False
    assert np.max(np.abs(gamma[mask])) <= 1e-8


def test_christoffel_matches_symbolic_oracle(polar, warped_line):
    r, th = sp.symbols("r th", positive=True)
    t, x = sp.symbols("t x")
    cases = [
        (polar, [[1, 0], [0, r**2]], (r, th), [(1.7, 0.4), (3.2, -2.0)]),
        (warped_line, [[1, 0], [0, sp.exp(2 * t)]], (t, x), [(0.0, 0.0), (0.6, -0.3)]),
    ]
    for M, g_expr, syms, pts in cases:
        for coords in pts:
            want = symbolic_christoffel(g_expr, syms, coords)
            got = christoffel(M, ENGINE, M.point(coords))
            assert np.allclose(got, want, atol=1e-8)


def test_warped_line_christoffel_frozen(warped_line):
    gamma = christoffel(warped_line, ENGINE, warped_line.point([0.0, 0.0]))
    assert gamma[1, 0, 1] == pytest.approx(1.0, abs=1e-8)   # Gamma^x_tx = 1
    assert gamma[0, 1, 1] == pytest.approx(-1.0, abs=1e-8)  # Gamma^t_xx = -1


def test_christoffel_lower_index_symmetry(polar):
    rng = np.random.default_rng(5)
    for _ in range(5):
        p = polar.point(rng.uniform([0.5, -3.0], [5.0, 3.0]))
        gamma = christoffel(polar, ENGINE, p)
        scale = 1.0 + np.max(np.abs(gamma))
        assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) <= 1e-8 * scale


def test_covariant_derivative_constants_euclidean():
    M = ChartManifold.euclidean(2)
    out = covariant_derivative(
        M, ENGINE, VectorField.constant([1.0, 2.0]), VectorField.constant([3.0, -1.0]),
        M.point([0.5, 0.5]),
    )
    assert np.allclose(out, 0.0)


def test_covariant_derivative_warped_line_oracles(warped_line):
    # mixed derivative is (d/dt e^t / e^t) d_x; fiber derivative is -e^{2t} d_t
    p = warped_line.point([0.0, 0.0])
    dt = VectorField.coordinate(2, 0)
    dx = VectorField.coordinate(2, 1)
    assert np.allclose(covariant_derivative(warped_line, ENGINE, dt, dx, p), [0, 1], atol=1e-8)
    assert np.allclose(covariant_derivative(warped_line, ENGINE, dx, dx, p), [-1, 0], atol=1e-8)
    assert np.allclose(covariant_derivative(warped_line, ENGINE, dx, dt, p), [0, 1], atol=1e-8)


def test_leibniz_rule(polar):
    rng = np.random.default_rng(11)
    X = VectorField(lambda c: np.array([0.3, 0.5 * c[0]]))
    Y = VectorField(lambda c: np.array([np.sin(c[1]), 0.2]))
    phi = ScalarField(lambda c: float(c[0] * np.cos(c[1])))
    for _ in range(3):
        p = polar.point(rng.uniform([0.5, -3.0], [5.0, 3.0]))
        phiY = VectorField(lambda c: phi(c) * Y(c))
        lhs = covariant_derivative(polar, ENGINE, X, phiY, p)
        xphi = ENGINE.directional(phi.fn, p, X(p), polar.lower, polar.upper)
        rhs = xphi * Y(p) + phi(p) * covariant_derivative(polar, ENGINE, X, Y, p)
        assert np.allclose(lhs, rhs, atol=1e-6 * (1 + np.max(np.abs(rhs))))


def test_bilinear_in_direction(polar):
    p = polar.point([2.0, 1.0])
    Y = VectorField(lambda c: np.array([np.sin(c[1]), c[0]]))
    d1 = covariant_derivative_dir(polar, ENGINE, [1.0, 0.0], Y, p)
    d2 = covariant_derivative_dir(polar, ENGINE, [0.0, 1.0], Y, p)
    mix = covariant_derivative_dir(polar, ENGINE, [2.0, -3.0], Y, p)
    assert np.allclose(mix, 2 * d1 - 3 * d2, atol=1e-9)


def test_lie_bracket_oracles():
    M = ChartManifold.euclidean(2)
    p = M.point([1.0, 1.0])
    d0 = VectorField.coordinate(2, 0)
    d1 = VectorField.coordinate(2, 1)
    assert np.allclose(lie_bracket(M, ENGINE, d0, d1, p), 0.0)

    rot = VectorField(lambda c: np.array([-c[1], c[0]]))
    got = lie_bracket(M, ENGINE, rot, d0, p)
    assert np.allclose(got, [0.0, -1.0], atol=1e-9)
    assert np.allclose(lie_bracket(M, ENGINE, rot, rot, p), 0.0, atol=1e-12)
    # antisymmetry
    rev = lie_bracket(M, ENGINE, d0, rot, p)
    assert np.allclose(got, -rev, atol=1e-12)


def test_torsion_free_consistency(polar):
    rng = np.random.default_rng(9)
    X, Y = vector_field_library(polar, rng, 2)
    for _ in range(5):
        p = polar.point(rng.uniform([0.5, -3.0], [5.0, 3.0]))
        dxy = covariant_derivative(polar, ENGINE, X, Y, p)
        dyx = covariant_derivative(polar, ENGINE, Y, X, p)
        br = lie_bracket(polar, ENGINE, X, Y, p)
        scale = 1.0 + max(np.max(np.abs(dxy)), np.max(np.abs(dyx)), np.max(np.abs(br)))
        assert np.max(np.abs(dxy - dyx - br)) <= 1e-6 * scale


def test_metric_compatibility(polar):
    rng = np.random.default_rng(21)
    X, Y, Z = vector_field_library(polar, rng, 3)

    def inner_field(c):
        g = polar.metric_at(c, check=False)
        return float(Y(c) @ g @ Z(c))

    for _ in range(5):
        coords = rng.uniform([0.5, -3.0], [5.0, 3.0])
        p = polar.point(coords)
        lhs = ENGINE.directional(inner_field, coords, X(coords), polar.lower, polar.upper)
        g = polar.metric_at(coords)
        rhs = float(
            covariant_derivative(polar, ENGINE, X, Y, p) @ g @ Z(coords)
        ) + float(Y(coords) @ g @ covariant_derivative(polar, ENGINE, X, Z, p))
        assert abs(lhs - rhs) <= 1e-5 * (1.0 + max(abs(lhs), abs(rhs)))


def test_submanifold_form_flat_plane_is_zero():
    M = ChartManifold.euclidean(3)
    form = coordinate_submanifold_form(M, ENGINE, (0, 1), M.point([0.1, 0.2, 0.3]))
    assert np.allclose(form.values, 0.0)
    assert np.allclose(form.mean_curvature, 0.0)


def test_submanifold_form_symmetry_and_trace(polar):
    form = coordinate_submanifold_form(polar, ENGINE, (1,), polar.point([2.0, 0.3]))
    # the theta circle of radius 2 in the plane: II = Gamma^r_tt = -2, H = II / g_tt
    assert form.values[0, 0] == pytest.approx(np.array([-2.0, 0.0]), abs=1e-8)
    assert np.allclose(form.mean_curvature, [-0.5, 0.0], atol=1e-8)


def test_submanifold_form_two_dim_block():
    # 2-dim coordinate block: II symmetric in its arguments, H is the
    # induced-metric trace divided by the block dimension
    def metric(c):
        return np.diag([1.0, 1.0, np.exp(4 * c[0]), np.exp(4 * c[0])])

    M = ChartManifold(4, [-2] * 4, [2] * 4, metric)
    p = M.point([0.2, -0.1, 0.3, 0.4])
    form = coordinate_submanifold_form(M, ENGINE, (2, 3), p)
    assert np.allclose(form.values, form.values.transpose(1, 0, 2), atol=1e-10)
    induced = M.metric_at(p)[2:, 2:]
    want_mean = np.einsum("ab,abk->k", np.linalg.inv(induced), form.values) / 2
    assert np.allclose(form.mean_curvature, want_mean)
    assert np.allclose(form.mean_curvature, [-2.0, 0.0, 0.0, 0.0], atol=1e-8)


def test_engine_health_failed_sample_counts_in_both_checks():
    # the stencil does not fit at the second point, 1e-12 from the boundary
    M = ChartManifold.euclidean(2, [0, 0], [1, 1])
    points = [M.point([0.5, 0.5]), M.point([1e-12, 0.5])]
    for rec in engine_health_records(M, ENGINE, points, np.random.default_rng(0)):
        assert rec.n_samples == 2 and rec.max_residual == np.inf and not rec.passed
        assert "error at" in rec.notes
