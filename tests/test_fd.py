import warnings

import numpy as np
import pytest

from warpgeo.errors import StencilError
from warpgeo.fd import SCHEMES, STENCILS, DiffEngine

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
    for i in range(len(ALONG_POINT)):  # each row is partial's own result
        assert np.array_equal(full[i], engine.partial(fn, ALONG_POINT, i, *BOX))
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


# -- point sets: partial at an (N, dim) array, stacked_partials ---------------

# the second point sits 1e-5 from a wall of axis 0, so its step shrinks there
SET_POINTS = np.array([ALONG_POINT, [2.0 - 1e-5, 0.1, -0.5], [-0.4, 1.2, 0.0],
                       [0.0, 0.0, 0.0], [1.5, -1.9, 0.25], [-1.0, 0.5, 1.75]])
SET_ALONG = np.array(ALONG_DIRECTIONS)  # row 4 uses no axis


def _counting(fn):
    calls = []

    def counted(c):
        calls.append(1)
        return fn(c)

    return counted, calls


def _same(got, want) -> bool:
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("kind", list(ALONG_FNS))
def test_point_sets_equal_the_loop_of_single_points_bit_for_bit(scheme, kind):
    engine = DiffEngine(scheme=scheme)
    fn, calls = _counting(ALONG_FNS[kind])
    for axis in range(3):
        want = np.stack([engine.partial(fn, c, axis, *BOX) for c in SET_POINTS])
        looped = len(calls)
        assert _same(engine.partial(fn, SET_POINTS, axis, *BOX), want)
        assert len(calls) == 2 * looped
        calls.clear()
    def form(points):  # handed over, evaluated as often as fn by the loop
        return np.array([fn(c) for c in points], dtype=float)

    for along in (None, SET_ALONG):
        for n in (1, 2, len(SET_POINTS)):
            rows = [None] * n if along is None else along[:n]
            want = np.stack([engine.partials(fn, c, *BOX, along=a)
                             for c, a in zip(SET_POINTS[:n], rows)])
            looped = len(calls)
            for stack in (None, form):
                got = engine.stacked_partials(fn, SET_POINTS[:n], *BOX,
                                              along=None if along is None else along[:n],
                                              stack=stack)
                assert _same(got, want)
            assert len(calls) == 3 * looped
            calls.clear()


def test_a_point_set_raises_the_loops_first_stencil_error_before_evaluating():
    engine = DiffEngine()
    lower, upper = np.array([-1.0, 0.0, -1.0]), np.array([1.0, 1.0, 1.0])
    points = np.array([[0.2, 0.5, 0.1], [0.3, 5e-13, 0.0], [1.0 - 1e-12, 0.5, 0.0]])
    fn, calls = _counting(ALONG_FNS["vector"])

    def loop_error(call):
        with pytest.raises(StencilError) as info:
            call()
        return str(info.value)

    for along in (None, np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])):
        rows = [None] * 3 if along is None else along
        want = loop_error(lambda: [engine.partials(fn, c, lower, upper, along=a)
                                   for c, a in zip(points, rows)])
        calls.clear()
        assert loop_error(lambda: engine.stacked_partials(fn, points, lower, upper, along)) == want
        assert loop_error(lambda: engine.stacked_partials(
            fn, points, lower, upper, along, stack=lambda c: calls.append(c))) == want
        assert calls == []
    want = loop_error(lambda: [engine.partial(fn, c, 0, lower, upper) for c in points])
    calls.clear()
    assert loop_error(lambda: engine.partial(fn, points, 0, lower, upper)) == want
    assert calls == []
    # a point whose tight axis is not used does not raise
    along = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    got = engine.stacked_partials(fn, points, lower, upper, along)
    assert _same(got, np.stack([engine.partials(fn, c, lower, upper, along=a)
                                for c, a in zip(points, along)]))


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


# -- coordinates that are not finite -----------------------------------------

FINITE_BOX = (np.array([0.0, 0.0]), np.array([1.0, 1.0]))
UNBOUNDED_BOX = (np.array([-np.inf, -np.inf]), np.array([np.inf, np.inf]))


def _every_stencil_entry(engine, coords, lower, upper):
    """partial, partials, directional and stencil_points along axis 0."""
    fn = lambda c: c[0] * c[1]
    return [
        lambda: engine.partial(fn, coords, 0, lower, upper),
        lambda: engine.partials(fn, coords, lower, upper),
        lambda: engine.partials(fn, coords, lower, upper, along=np.array([1.0, 0.0])),
        lambda: engine.directional(fn, coords, [1.0, 0.0], lower, upper),
        lambda: engine.stencil_points(coords, lower, upper, (0,)),
    ]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("box", ["finite", "unbounded"])
def test_non_finite_coordinate_raises_stencil_error(scheme, bad, box):
    engine = DiffEngine(scheme=scheme)
    lower, upper = FINITE_BOX if box == "finite" else UNBOUNDED_BOX
    for call in _every_stencil_entry(engine, np.array([bad, 0.5]), lower, upper):
        with pytest.raises(StencilError):
            call()


def test_non_finite_coordinate_raises_in_christoffel():
    from warpgeo import ChartManifold, christoffel

    M = ChartManifold.euclidean(2, *FINITE_BOX)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(StencilError):
            christoffel(M, DiffEngine(), np.array([bad, 0.5]))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_unbounded_axis_uses_the_full_step(scheme):
    # the room is +inf: the step is not limited, so an unbounded box gives
    # the same bits as a box far wider than the stencil
    engine = DiffEngine(scheme=scheme, step=0.25)
    wide = (np.array([-1e6, -1e6]), np.array([1e6, 1e6]))
    coords = np.array([0.3, -0.7])
    for got, want in zip(_every_stencil_entry(engine, coords, *UNBOUNDED_BOX),
                         _every_stencil_entry(engine, coords, *wide)):
        assert np.array_equal(got(), want())
    shifts = engine.stencil_points(coords, *UNBOUNDED_BOX, (0,))[:, 0] - coords[0]
    assert np.max(np.abs(shifts)) == pytest.approx(STENCILS[scheme][0] * engine.step)



# -- the directional derivative of a point set --------------------------------

DIRECTIONAL_BOX = (np.array([-1.0, 0.0, -1.0]), np.array([1.0, 1.0, 1.0]))
# a zero direction, a subnormal component, a step that the wall of the second
# axis shrinks (3e-6 away, along it), and a direction along one axis
DIRECTIONAL_POINTS = np.array([[0.2, 0.5, 0.1], [0.3, 0.4, -0.2], [0.1, 0.3, 0.5],
                               [0.2, 3e-6, -0.1], [-0.4, 0.6, 0.0]])
DIRECTIONS = np.array([[1.0, -2.0, 0.5], [0.0, 0.0, 0.0], [5e-324, 1.0, 0.0],
                       [0.3, 1.0, 0.0], [0.0, 0.0, -1.5]])


def _recording(seen: list):
    """A scalar fn of three coordinates that appends each point it is given
    to ``seen``, and its point-set form, which appends each of its calls."""
    def fn(c):
        seen.append(np.array(c, dtype=float))
        return np.sin(c[0]) * c[1] + np.exp(c[2])

    forms = []

    def form(points):
        forms.append(points.copy())
        return np.sin(points[:, 0]) * points[:, 1] + np.exp(points[:, 2])

    return fn, form, forms


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_set_directional_equals_the_loop_of_single_points_bit_for_bit(scheme):
    engine = DiffEngine(scheme=scheme)
    seen = []
    fn, form, forms = _recording(seen)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the subnormal component is quiet
        want = np.array([engine.directional(fn, c, d, *DIRECTIONAL_BOX)
                         for c, d in zip(DIRECTIONAL_POINTS, DIRECTIONS)])
        loop = np.array(seen)
        seen.clear()
        got = engine.directional(fn, DIRECTIONAL_POINTS, DIRECTIONS, *DIRECTIONAL_BOX)
        assert _same(got, want) and np.array(seen).tobytes() == loop.tobytes()
        seen.clear()
        got = engine.directional(fn, DIRECTIONAL_POINTS, DIRECTIONS, *DIRECTIONAL_BOX, stack=form)
    # handed over, the form is called once, on the loop's points in its order
    assert _same(got, want) and seen == [] and len(forms) == 1
    assert forms[0].tobytes() == loop.tobytes()
    # the zero direction is an exact 0.0, and its point is never evaluated
    assert got[1] == 0.0 and not np.signbit(got[1])
    stencil = len(loop) // 4
    assert len(loop) == 4 * stencil and not any((p == DIRECTIONAL_POINTS[1]).all() for p in loop)
    # the wall shrinks the step of the fourth point: its stencil stays in the box
    shifts = loop[2 * stencil:3 * stencil, 1] - DIRECTIONAL_POINTS[3, 1]
    assert 0.0 < np.max(np.abs(shifts)) < DIRECTIONAL_POINTS[3, 1] < engine.step
    # a lone point is the loop over fn, which evaluates fn
    forms.clear()
    lone = engine.directional(fn, DIRECTIONAL_POINTS[:1], DIRECTIONS[:1], *DIRECTIONAL_BOX,
                              stack=form)
    assert _same(lone, want[:1]) and forms == []


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_set_directional_raises_the_loops_first_stencil_error_before_evaluating(scheme, bad):
    engine = DiffEngine(scheme=scheme)
    lower, upper = DIRECTIONAL_BOX
    # the second point lies 1e-12 from a wall along its direction; the third
    # has a non-finite coordinate
    points = np.array([[0.2, 0.5, 0.1], [0.3, 1.0 - 1e-12, 0.0], [bad, 0.5, 0.0]])
    directions = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    seen = []
    fn, form, forms = _recording(seen)
    for rows in ([0, 1, 2], [2, 0]):
        with pytest.raises(StencilError) as loop:
            [engine.directional(fn, c, d, lower, upper)
             for c, d in zip(points[rows], directions[rows])]
        seen.clear()
        for stack in (None, form):
            with pytest.raises(StencilError) as info:
                engine.directional(fn, points[rows], directions[rows], lower, upper, stack=stack)
            assert str(info.value) == str(loop.value)
        assert seen == [] and forms == []
