"""The pointwise memo of evaluation_scope: same numbers, per-point splittings,
metrics and Christoffel symbols, nesting, lifetime, errors, read-only
entries and Jacobian reuse; dilations; the one-pass O'Neill tensors;
derivatives contracted with a direction skip its zero components."""

from contextlib import nullcontext

import numpy as np
import pytest

from warpgeo import (
    ChartManifold,
    DegenerateMetricError,
    DiffEngine,
    RankError,
    ScalarField,
    SmoothMap,
    SubmersionContext,
    VectorField,
    WarpPositivityError,
    build_warped_product,
    christoffel,
    conformal_a_formula,
    evaluation_scope,
    lie_bracket,
    oneill_a,
    oneill_t,
)
from warpgeo.conformal_warped import rescaled_context
from warpgeo.connection import covariant_derivative_dir
from warpgeo.fd import SCHEMES
from warpgeo.fields import vector_field_library
from warpgeo.scenarios import build_objects
from warpgeo.submersion import Splitting, fiber_mean_curvature
from warpgeo.suites import splitting_records
from warpgeo.warped import projection_map

ENGINE = DiffEngine()
COORDS = np.array([0.3, -0.4, 0.2, 0.5])


@pytest.fixture(scope="module")
def cws():
    return build_objects("cws-variable-dilation", ENGINE)["cws"]


def _tensor_components(cws):
    ctx, ctx1 = cws.ctx, cws.ctx1
    p = ctx.map.source.point(COORDS)
    p1 = ctx1.map.source.point(COORDS[:2])
    rng = np.random.default_rng(5)
    E, F = vector_field_library(ctx.map.source, rng, 2)
    X, Y = (ctx1.horizontal_field(f) for f in vector_field_library(ctx1.map.source, rng, 2))
    return [
        oneill_a(ctx, E, F, p),
        oneill_t(ctx, E, F, p),
        conformal_a_formula(ctx1, X, Y, p1),
    ]


def test_tensors_bit_identical_inside_and_outside_scope(cws):
    outside = _tensor_components(cws)
    with evaluation_scope():
        first = _tensor_components(cws)
        again = _tensor_components(cws)  # served from the memo
    for a, b, c in zip(outside, first, again):
        assert np.array_equal(a, b) and np.array_equal(a, c)


def test_stencil_points_get_their_own_splittings(cws):
    ctx = cws.ctx
    # the projector depends on the first-factor coordinates
    shifted = [COORDS + ENGINE.step * np.eye(4)[i] for i in range(2)]
    with evaluation_scope():
        base = ctx.splitting_at(COORDS)
        assert ctx.splitting_at(COORDS.copy()) is base
        inside = [ctx.splitting_at(c) for c in shifted]
    for c, s in zip(shifted, inside):
        assert np.array_equal(s.coords, c)
        assert not np.array_equal(s.projector_v, base.projector_v)
        assert np.array_equal(s.projector_v, ctx.splitting_at(c).projector_v)


def test_nested_scope_shares_the_outer_memo(cws):
    ctx = cws.ctx
    other = COORDS + 0.1
    with evaluation_scope():
        outer = ctx.splitting_at(COORDS)
        with evaluation_scope():
            assert ctx.splitting_at(COORDS) is outer
            inner = ctx.splitting_at(other)
        assert ctx.splitting_at(other) is inner


def test_memo_is_dropped_on_exit(cws):
    ctx = cws.ctx
    assert ctx.splitting_at(COORDS) is not ctx.splitting_at(COORDS)
    with evaluation_scope():
        kept = ctx.splitting_at(COORDS)
    assert ctx.splitting_at(COORDS) is not kept
    with evaluation_scope():
        assert ctx.splitting_at(COORDS) is not kept


def test_memo_is_dropped_on_exit_by_exception(cws):
    ctx = cws.ctx
    with pytest.raises(RuntimeError):
        with evaluation_scope():
            kept = ctx.splitting_at(COORDS)
            raise RuntimeError("abort")
    assert ctx.splitting_at(COORDS) is not kept
    with evaluation_scope():
        assert ctx.splitting_at(COORDS) is not kept


def test_rank_error_is_raised_on_every_call(cws):
    jac_calls = []

    def jac(c):
        jac_calls.append(1)
        return np.array([[2.0 * c[0], 2.0 * c[1]]])

    M1 = cws.ctx1.map.source
    radius = SmoothMap(M1, cws.ctx1.map.target, lambda c: np.array([c[0] ** 2 + c[1] ** 2]), jac)
    ctx = SubmersionContext(radius, ENGINE)
    with evaluation_scope():
        for _ in range(3):
            with pytest.raises(RankError):
                ctx.splitting_at([0.0, 0.0])
    assert len(jac_calls) == 3


SPLITTING_ARRAYS = ("coords", "vertical", "horizontal", "projector_v", "singular_values",
                    "jacobian", "metric")


def test_memoized_splitting_is_read_only(cws):
    coords = COORDS.copy()
    with evaluation_scope():
        s = cws.ctx.splitting_at(coords)
        for name in SPLITTING_ARRAYS:
            with pytest.raises(ValueError):
                getattr(s, name)[0] = 1.0
        assert cws.ctx.splitting_at(coords) is s
    coords[0] = 0.0  # the caller's array stays its own
    assert s.coords[0] == COORDS[0]


@pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
@pytest.mark.parametrize("n", [1, 65])
def test_point_set_splittings_are_read_only(cws, n, scoped):
    M = cws.ctx.map.source
    coords = [M.point(COORDS * (1.0 - 0.01 * k)) for k in range(n)]
    want = [c.copy() for c in coords]
    with evaluation_scope() if scoped else nullcontext():
        splittings = cws.ctx.splittings_at(coords)
    for s in splittings:
        for name in SPLITTING_ARRAYS:
            with pytest.raises(ValueError):
                getattr(s, name)[0] = 1.0
    for c, w, s in zip(coords, want, splittings):
        assert c.flags.writeable
        c[0] = 0.0  # the caller's array stays its own
        assert np.array_equal(s.coords, w)


def test_dilation_and_splitting_records_reuse_the_splitting_jacobian():
    jac_calls = []

    def jac(c):
        jac_calls.append(1)
        return np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

    M = ChartManifold.euclidean(3, [-2] * 3, [2] * 3)
    N = ChartManifold.euclidean(2, [-9] * 2, [9] * 2)
    ctx = SubmersionContext(SmoothMap(M, N, lambda c: np.array([c[0] + c[1], c[2]]), jac), ENGINE)
    points = [M.point([0.1 * k, -0.2, 0.3]) for k in range(3)]
    with evaluation_scope():
        for p in points:
            ctx.dilation(p)
        splitting_records(ctx, points, np.random.default_rng(0))
    assert len(jac_calls) == len(points)


def test_projection_jacobian_stays_writable_after_splitting(cws):
    smap = projection_map(cws.source, "first")
    s = SubmersionContext(smap, ENGINE).splitting_at(COORDS)
    J = smap.jacobian_at(COORDS, ENGINE)
    assert J.flags.writeable and s.jacobian is not J
    assert np.array_equal(s.jacobian, J)


# -- metrics and Christoffel symbols ---------------------------------------


def test_metric_and_christoffel_bit_identical_inside_and_outside_scope(cws):
    charts = (cws.source.ambient, cws.source.first, cws.target.ambient)
    points = [M.point(COORDS[: M.dim] * 0.5) for M in charts]
    outside = [(M.metric_at(p), christoffel(M, ENGINE, p))
               for M, p in zip(charts, points)]
    with evaluation_scope():
        for _ in range(2):  # the second round is served from the memo
            for (g, gamma), M, p in zip(outside, charts, points):
                assert np.array_equal(M.metric_at(p), g)
                assert np.array_equal(M.metric_at(p, check=False), g)
                assert np.array_equal(christoffel(M, ENGINE, p), gamma)


def test_check_true_request_after_unchecked_entry_still_raises():
    # g = diag(1, x) is not positive definite for x <= 0
    M = ChartManifold(2, None, None, lambda c: np.diag([1.0, c[0]]))
    coords = np.array([-0.5, 0.0])
    with evaluation_scope():
        assert M.metric_at(coords, check=False)[1, 1] == -0.5
        for _ in range(2):
            with pytest.raises(DegenerateMetricError):
                M.metric_at(coords)


def test_warp_positivity_error_is_raised_on_every_call():
    warp_calls = []

    def warp(c):
        warp_calls.append(1)
        return float(c[0])

    line = ChartManifold.euclidean(1, [-2.0], [2.0])
    W = build_warped_product(line, line, ScalarField(warp))
    with evaluation_scope():
        for _ in range(3):
            with pytest.raises(WarpPositivityError):
                W.ambient.metric_at([-0.5, 0.0])
    assert len(warp_calls) == 3


def test_each_engine_gets_its_own_christoffel_symbols(cws):
    M = cws.source.ambient
    p = M.point(COORDS)
    engines = (DiffEngine(scheme="central2"), DiffEngine(scheme="central4"))
    outside = [christoffel(M, e, p) for e in engines]
    assert not np.array_equal(*outside)
    with evaluation_scope():
        for _ in range(2):
            for e, gamma in zip(engines, outside):
                assert np.array_equal(christoffel(M, e, p), gamma)


def test_memoized_metric_and_christoffel_are_read_only(cws):
    M = cws.source.ambient
    p = M.point(COORDS)
    with evaluation_scope():
        g = M.metric_at(COORDS)
        gamma = christoffel(M, ENGINE, p)
        for a in (g, M.metric_at(COORDS, check=False), gamma):
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
        assert M.metric_at(COORDS) is g
        assert christoffel(M, ENGINE, p) is gamma


def test_metric_and_christoffel_memo_is_dropped_on_exit(cws):
    M = cws.source.ambient
    p = M.point(COORDS)
    assert M.metric_at(COORDS) is not M.metric_at(COORDS)
    with evaluation_scope():
        g = M.metric_at(COORDS)
        gamma = christoffel(M, ENGINE, p)
    assert M.metric_at(COORDS) is not g
    assert christoffel(M, ENGINE, p) is not gamma
    with evaluation_scope():
        assert M.metric_at(COORDS) is not g
        assert christoffel(M, ENGINE, p) is not gamma


# -- O'Neill tensors: one stencil pass for VF and HF -----------------------


def _two_pass_oneill(ctx, part, E, F, p, gamma):
    """The O'Neill tensor with VF and HF differentiated in separate passes."""
    M = ctx.map.source
    s = ctx.splitting_at(p)
    direction = part(s, E(p))
    d_vert = covariant_derivative_dir(M, ctx.engine, direction, ctx.vertical_field(F), p, gamma)
    d_horiz = covariant_derivative_dir(M, ctx.engine, direction, ctx.horizontal_field(F), p,
                                       gamma)
    return s.horizontal_part(d_vert) + s.vertical_part(d_horiz)


def _oneill_outputs(ctx, p, stacked):
    """A, T and the fiber mean curvature at p, stacked or from the reference."""
    M = ctx.map.source
    gamma = christoffel(M, ctx.engine, p)
    E, F = vector_field_library(M, np.random.default_rng(11), 2)
    basis = ctx.splitting_at(p).vertical
    if stacked:
        return [oneill_a(ctx, E, F, p, gamma),
                oneill_t(ctx, E, F, p, gamma),
                fiber_mean_curvature(ctx, basis, p, gamma)]
    acc = np.zeros(basis.shape[0])
    for column in basis.T:
        u = VectorField.constant(column)
        acc += _two_pass_oneill(ctx, Splitting.vertical_part, u, u, p, gamma)
    return [_two_pass_oneill(ctx, Splitting.horizontal_part, E, F, p, gamma),
            _two_pass_oneill(ctx, Splitting.vertical_part, E, F, p, gamma),
            acc / max(basis.shape[1], 1)]


@pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("scenario", ["cws-variable-dilation", "exp-spiral-r4"])
def test_stacked_oneill_is_bit_identical_to_two_passes(scenario, scheme, scoped):
    objs = build_objects(scenario, DiffEngine(scheme=scheme))
    ctx = objs["ctx"]
    p = ctx.map.source.point(0.5 * (objs["sample_lower"] + objs["sample_upper"]) + 0.05)
    reference = _oneill_outputs(ctx, p, stacked=False)
    with evaluation_scope() if scoped else nullcontext():
        stacked = _oneill_outputs(ctx, p, stacked=True)
    for want, got in zip(reference, stacked):
        assert np.any(want != 0.0)
        assert np.array_equal(want, got)


def test_oneill_makes_one_partials_call(monkeypatch):
    objs = build_objects("exp-spiral-r4", ENGINE)  # analytic Jacobian: no FD splittings
    ctx = objs["ctx"]
    M = ctx.map.source
    p = M.point([0.2, -0.1, 0.3, 0.4])
    gamma = christoffel(M, ENGINE, p)
    E, F = vector_field_library(M, np.random.default_rng(3), 2)
    basis = ctx.splitting_at(p).vertical
    calls = []
    partials = DiffEngine.partials

    def counting(self, *args, **kwargs):
        calls.append(1)
        return partials(self, *args, **kwargs)

    monkeypatch.setattr(DiffEngine, "partials", counting)
    oneill_a(ctx, E, F, p, gamma)
    assert len(calls) == 1
    oneill_t(ctx, E, F, p, gamma)
    assert len(calls) == 2
    fiber_mean_curvature(ctx, basis, p, gamma)
    assert len(calls) == 2 + basis.shape[1]


# -- direction-contracted derivatives skip the zero components ---------------


def _contracted_outputs(objs, p):
    """nabla_X Y, [X, Y], A_X Y and T_X Y for generic and coordinate fields."""
    ctx = objs["ctx"]
    M, engine = ctx.map.source, ctx.engine
    gamma = christoffel(M, engine, p)
    fields = vector_field_library(M, np.random.default_rng(7), 2)
    fields += [VectorField.coordinate(M.dim, 0), VectorField.coordinate(M.dim, M.dim - 1)]
    out = []
    for X in fields:
        for Y in fields:
            out.append(covariant_derivative_dir(M, engine, X(p), Y, p, gamma))
            out.append(lie_bracket(M, engine, X, Y, p))
            out.append(oneill_a(ctx, X, Y, p, gamma))
            out.append(oneill_t(ctx, X, Y, p, gamma))
    return out


@pytest.mark.parametrize(
    "scenario", ["sphere-warped", "product-plain", "exp-spiral-r4", "cws-variable-dilation"]
)
def test_contracted_derivatives_bit_identical_to_full_partials(scenario, monkeypatch):
    objs = build_objects(scenario, ENGINE)
    p = objs["ctx"].map.source.point(0.5 * (objs["sample_lower"] + objs["sample_upper"]) + 0.05)
    partials = DiffEngine.partials
    skipped = []

    def counting(self, fn, coords, lower, upper, along=None):
        if along is not None:
            skipped.append(int(np.count_nonzero(np.asarray(along) == 0.0)))
        return partials(self, fn, coords, lower, upper, along=along)

    monkeypatch.setattr(DiffEngine, "partials", counting)
    got = _contracted_outputs(objs, p)
    assert sum(skipped) > 0  # some direction components are exact zeros

    def full(self, fn, coords, lower, upper, along=None):
        return partials(self, fn, coords, lower, upper)

    monkeypatch.setattr(DiffEngine, "partials", full)
    reference = _contracted_outputs(objs, p)
    assert any(np.any(r != 0.0) for r in reference)
    for want, have in zip(reference, got):
        assert np.array_equal(want, have)


# -- dilations ---------------------------------------------------------------


def _dilations(ctx, points):
    return [(d.coords, d.lambda_sq, d.anisotropy) for d in (ctx.dilation(p) for p in points)]


def test_dilation_bit_identical_inside_and_outside_scope(cws):
    contexts = (cws.ctx, cws.ctx1, cws.ctx2)
    points = [[ctx.map.source.point(COORDS[: ctx.map.source.dim] * t) for t in (0.5, 1.0)]
              for ctx in contexts]
    outside = [_dilations(ctx, pts) for ctx, pts in zip(contexts, points)]
    with evaluation_scope():
        for _ in range(2):  # the second round is served from the memo
            inside = [_dilations(ctx, pts) for ctx, pts in zip(contexts, points)]
            for want, got in zip(outside, inside):
                for (c0, l0, a0), (c1, l1, a1) in zip(want, got):
                    assert np.array_equal(c0, c1) and l0 == l1 and a0 == a1


def test_degenerate_pullback_rank_error_is_raised_on_every_call():
    map_calls = []

    def fn(c):
        map_calls.append(1)
        return np.array([c[0]])

    M = ChartManifold.euclidean(2, [-1, -1], [1, 1])
    # a target metric that vanishes: the pullback on the horizontal line is zero
    N = ChartManifold(1, [-2.0], [2.0], lambda c: np.zeros((1, 1)))
    ctx = SubmersionContext(SmoothMap(M, N, fn, lambda c: np.array([[1.0, 0.0]])), ENGINE)
    p = M.point([0.2, 0.3])
    with evaluation_scope():
        for _ in range(3):
            with pytest.raises(RankError, match="pullback metric degenerate"):
                ctx.dilation(p)
    assert len(map_calls) == 3


def test_dilation_memo_is_keyed_by_context(cws):
    p = cws.source.ambient.point(COORDS)
    plain, offset = rescaled_context(cws, 0.0), rescaled_context(cws, 0.1)
    want = [ctx.dilation(p).lambda_sq for ctx in (plain, offset)]
    assert want[0] != want[1]
    with evaluation_scope():
        assert [ctx.dilation(p).lambda_sq for ctx in (plain, offset)] == want


def test_dilation_memo_is_dropped_on_exit(cws):
    ctx = cws.ctx
    p = ctx.map.source.point(COORDS)
    assert ctx.dilation(p) is not ctx.dilation(p)
    with evaluation_scope():
        kept = ctx.dilation(p)
        assert ctx.dilation(p) is kept
        assert ctx.dilation(ctx.map.source.point(COORDS.copy())) is kept
    assert ctx.dilation(p) is not kept
    with evaluation_scope():
        assert ctx.dilation(p) is not kept


@pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
def test_dilation_coords_read_only_and_caller_coords_writable(cws, scoped):
    ctx = cws.ctx
    p = ctx.map.source.point(COORDS.copy())
    with evaluation_scope() if scoped else nullcontext():
        d = ctx.dilation(p)
    assert np.array_equal(d.coords, COORDS)
    with pytest.raises(ValueError):
        d.coords[0] = 1.0
    assert p.flags.writeable
    p[0] = 0.0  # the caller's array stays its own
    assert d.coords[0] == COORDS[0]
