import warnings

import numpy as np
import pytest

from warpgeo.errors import StencilError
from warpgeo.fd import SCHEMES, DiffEngine

NO_BOUNDS = (np.array([-np.inf]), np.array([np.inf]))


@pytest.mark.parametrize("scheme,degree", [("central2", 2), ("central4", 4), ("richardson", 3)])
def test_polynomial_exact_up_to_scheme_order(scheme, degree):
    # exact in real arithmetic; float error is cancellation noise amplified
    # by the 1/h division, so the bound scales the machine epsilon that way
    rng = np.random.default_rng(0)
    coeffs = rng.uniform(-2.0, 2.0, size=degree + 1)
    poly = np.polynomial.Polynomial(coeffs)
    dpoly = poly.deriv()
    engine = DiffEngine(scheme=scheme)
    for x in [-1.3, 0.0, 0.7, 2.1]:
        got = float(engine.partial(lambda c: poly(c[0]), [x], 0, *NO_BOUNDS))
        stencil_peak = max(abs(poly(x + t)) for t in (-2 * engine.step, 2 * engine.step))
        bound = 100 * np.finfo(float).eps * (1.0 + stencil_peak / (2 * engine.step))
        assert abs(got - dpoly(x)) <= bound


def test_square_at_one():
    engine = DiffEngine()
    got = engine.partial(lambda c: c[0] ** 2, [1.0], 0, *NO_BOUNDS)
    assert abs(got - 2.0) <= 1e-9


def test_constant_is_exactly_zero():
    engine = DiffEngine()
    assert engine.partial(lambda c: 7.25, [0.3], 0, *NO_BOUNDS) == 0.0


def test_exponential_within_h_squared():
    engine = DiffEngine()
    got = engine.partial(lambda c: np.exp(c[0]), [0.0], 0, *NO_BOUNDS)
    assert abs(got - 1.0) <= engine.step**2


@pytest.mark.parametrize("scheme,min_ratio", [("central2", 3.5), ("central4", 10.0), ("richardson", 10.0)])
def test_halving_step_shrinks_error(scheme, min_ratio):
    # large steps keep roundoff negligible so the order shows cleanly
    err = {}
    for h in (1e-2, 5e-3):
        engine = DiffEngine(scheme=scheme, step=h)
        got = engine.partial(lambda c: np.exp(c[0]), [0.0], 0, *NO_BOUNDS)
        err[h] = abs(float(got) - 1.0)
    assert err[1e-2] / err[5e-3] >= min_ratio


@pytest.mark.parametrize("scheme", SCHEMES)
def test_step_shrinks_near_boundary(scheme):
    engine = DiffEngine(scheme=scheme)
    lower, upper = np.array([0.0]), np.array([1.0])
    x = 1e-6  # closer to the wall than the nominal step
    got = engine.partial(lambda c: c[0] ** 3, [x], 0, lower, upper)
    assert abs(float(got) - 3 * x**2) <= 1e-10


def test_stencil_error_when_no_room():
    engine = DiffEngine()
    lower, upper = np.array([0.0]), np.array([1e-12])
    with pytest.raises(StencilError):
        engine.partial(lambda c: c[0], [5e-13], 0, lower, upper)


def test_vector_and_matrix_valued_fields():
    engine = DiffEngine()
    got = engine.partial(lambda c: np.array([c[0] ** 2, np.sin(c[0])]), [0.5], 0, *NO_BOUNDS)
    assert np.allclose(got, [1.0, np.cos(0.5)], atol=1e-9)
    got_m = engine.partial(lambda c: np.diag([c[0], c[0] ** 2]), [2.0], 0, *NO_BOUNDS)
    assert np.allclose(got_m, np.diag([1.0, 4.0]), atol=1e-9)


def test_jacobian_matches_analytic():
    engine = DiffEngine()
    lower, upper = np.array([-5.0, -5.0]), np.array([5.0, 5.0])

    def fn(c):
        return np.array([c[0] * c[1], np.exp(c[0])])

    J = engine.partials(fn, [0.3, -0.7], lower, upper).T
    want = np.array([[-0.7, 0.3], [np.exp(0.3), 0.0]])
    assert np.allclose(J, want, atol=1e-9)


def test_directional_matches_partial_combination():
    engine = DiffEngine()
    lower, upper = np.array([-5.0, -5.0]), np.array([5.0, 5.0])
    fn = lambda c: np.sin(c[0]) * c[1]
    got = engine.directional(fn, [0.4, 1.2], [2.0, -1.0], lower, upper)
    want = 2.0 * np.cos(0.4) * 1.2 - np.sin(0.4)
    assert abs(got - want) <= 1e-9
    assert engine.directional(fn, [0.4, 1.2], [0.0, 0.0], lower, upper) == 0.0


def test_richardson_is_central4_at_half_step():
    lower, upper = np.array([-5.0, -5.0]), np.array([5.0, 5.0])
    fn = lambda c: np.array([np.sin(c[0]) * c[1], np.exp(c[0] - c[1])])
    for h in (1e-2, 1e-5):
        rich = DiffEngine("richardson", step=h)
        c4 = DiffEngine("central4", step=h / 2)
        for coords in ([0.4, 1.2], [-4.99999, 0.3]):  # the second one shrinks the step
            for axis in (0, 1):
                got = rich.partial(fn, coords, axis, lower, upper)
                want = c4.partial(fn, coords, axis, lower, upper)
                assert np.array_equal(got, want)


def test_directional_subnormal_component_is_quiet():
    engine = DiffEngine()
    lower, upper = np.array([-2.0, -2.0]), np.array([2.0, 2.0])
    fn = lambda c: c[0] + 3.0 * c[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = engine.directional(fn, [0.1, -0.2], [5e-324, 1.0], lower, upper)
    assert got == pytest.approx(3.0, abs=1e-9)


def test_rejects_bad_configuration():
    with pytest.raises(ValueError):
        DiffEngine(scheme="forward1")
    for bad in (-1e-5, 0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            DiffEngine(step=bad)
        with pytest.raises(ValueError):
            DiffEngine(min_step=bad)


# -- derivatives contracted with a direction: partials(..., along=v) ----------

BOX = (np.array([-2.0, -2.0, -2.0]), np.array([2.0, 2.0, 2.0]))
ALONG_POINT = np.array([0.3, -0.7, 1.1])

ALONG_FNS = {
    "scalar": lambda c: np.sin(c[0]) * c[1] + np.exp(c[2] - c[0]),
    "vector": lambda c: np.array([c[0] * c[1], np.cos(c[2]), c[0] ** 3 - c[1] * c[2]]),
    "stacked": lambda c: np.array([[c[0] * c[2], np.exp(c[1]), 1.0],
                                   [np.sin(c[1] + c[2]), c[0] ** 2, c[1] * c[2]]]),
}

# zero, negative, tiny but normal, and all-zero components
ALONG_DIRECTIONS = [
    [1.0, 0.0, 0.0],
    [0.0, -1.5, 0.0],
    [0.7, 0.0, -2.0],
    [-0.3, 1e-13, 0.0],
    [0.0, 0.0, 0.0],
    [1.2, -0.4, 0.9],
]


def _contract(along, d):
    """along^i d_i, a stacked field slice by slice as the O'Neill tensors do."""
    if d.ndim <= 2:
        return along @ d
    return np.array([along @ np.ascontiguousarray(d[:, k]) for k in range(d.shape[1])])


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("kind", list(ALONG_FNS))
def test_along_contraction_is_bit_identical_to_full_partials(scheme, kind):
    engine = DiffEngine(scheme=scheme)
    fn = ALONG_FNS[kind]
    full = engine.partials(fn, ALONG_POINT, *BOX)
    for direction in ALONG_DIRECTIONS:
        along = np.array(direction)
        got = engine.partials(fn, ALONG_POINT, *BOX, along=along)
        assert got.shape == full.shape
        assert np.array_equal(_contract(along, got), _contract(along, full))
        # differentiated rows are the full rows, the others exact zeros
        for i, a in enumerate(along):
            assert np.array_equal(got[i], full[i] if a != 0.0 else np.zeros_like(full[i]))


@pytest.mark.parametrize("scheme,per_axis", [("central2", 2), ("central4", 4), ("richardson", 4)])
def test_along_evaluates_nothing_on_skipped_axes(scheme, per_axis):
    engine = DiffEngine(scheme=scheme)
    seen = []

    def fn(c):
        seen.append(c.copy())
        return np.array([c[0] * c[1], c[2]])

    engine.partials(fn, ALONG_POINT, *BOX, along=np.array([1.0, 0.0, 0.0]))
    assert len(seen) == per_axis
    assert all(np.array_equal(c[1:], ALONG_POINT[1:]) for c in seen)
    seen.clear()
    engine.partials(fn, ALONG_POINT, *BOX, along=np.array([0.0, -2.0, 3.0]))
    assert len(seen) == 2 * per_axis
    seen.clear()
    engine.partials(fn, ALONG_POINT, *BOX)
    assert len(seen) == 3 * per_axis


def test_along_all_zero_gives_zeros_without_stencil_points():
    engine = DiffEngine()
    seen = []

    def fn(c):
        seen.append(c.copy())
        return np.ones((2, 3))

    got = engine.partials(fn, ALONG_POINT, *BOX, along=np.zeros(3))
    assert got.shape == (3, 2, 3) and not np.any(got)
    # at most the base point, for the shape; never a shifted stencil point
    assert all(np.array_equal(c, ALONG_POINT) for c in seen)


def test_along_skipped_axis_may_sit_at_the_boundary():
    # no room along axis 1: a skipped axis is not differentiated, so the
    # stencil never leaves the box there; a used axis still raises
    engine = DiffEngine()
    lower, upper = np.array([-1.0, 0.0, -1.0]), np.array([1.0, 1e-12, 1.0])
    coords = np.array([0.2, 5e-13, -0.1])
    fn = ALONG_FNS["vector"]
    got = engine.partials(fn, coords, lower, upper, along=np.array([1.0, 0.0, -1.0]))
    assert not np.any(got[1])
    assert np.array_equal(got[0], engine.partial(fn, coords, 0, lower, upper))
    with pytest.raises(StencilError):
        engine.partials(fn, coords, lower, upper, along=np.array([0.0, 1.0, 0.0]))
    with pytest.raises(StencilError):
        engine.partials(fn, coords, lower, upper)


def _recorded_stencil(engine, coords, lower, upper, along):
    """The coordinates ``partials`` passes to fn, in call order, as rows."""
    seen = []

    def fn(c):
        seen.append(c.copy())
        return np.array([c[0] * c[1], c[2]])

    engine.partials(fn, coords, lower, upper, along=along)
    return np.array(seen).reshape(-1, len(coords))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stencil_points_are_the_points_partial_evaluates(scheme):
    engine = DiffEngine(scheme=scheme)
    lower, upper = np.array([-1.0, 0.0, -1.0]), np.array([1.0, 1.0, 1.0])
    # axis 1 sits closer to its wall than the nominal step, so its step shrinks
    coords = np.array([0.2, 3e-6, -0.1 / 3.0])
    for axes, along in (
        ((0, 1, 2), None),
        ((1,), np.array([0.0, 1.0, 0.0])),
        ((0, 2), np.array([0.5, 0.0, -2.0])),  # axis 1 skipped
    ):
        want = _recorded_stencil(engine, coords, lower, upper, along)
        got = engine.stencil_points(coords, lower, upper, axes)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()  # bit for bit, in call order
    shifts = engine.stencil_points(coords, lower, upper, (1,))[:, 1] - coords[1]
    assert np.max(np.abs(shifts)) < coords[1] < engine.step


def test_stencil_points_raise_where_partial_raises():
    engine = DiffEngine()
    lower, upper = np.array([-1.0, 0.0]), np.array([1.0, 1e-12])
    coords = np.array([0.2, 5e-13])
    assert engine.stencil_points(coords, lower, upper, (0,)).shape == (2, 2)
    assert engine.stencil_points(coords, lower, upper, ()).shape == (0, 2)
    with pytest.raises(StencilError):
        engine.partial(lambda c: c[1], coords, 1, lower, upper)
    with pytest.raises(StencilError):
        engine.stencil_points(coords, lower, upper, (0, 1))
