"""Point-set splittings and dilations (``splittings_at``, ``dilations``):
bit-identical to the single-point calls, which compute a stack of one, on
every catalog context; the same first error in input order; and one memo
entry per point shared with ``splitting_at`` and ``dilation``; the kernels'
point-set inputs (``metrics_at``, ``jacobians_at``, ``images``) against
their single-point calls, including the point-set forms the builders
assemble (the warped ambient metric, the product map's images and
Jacobian) and FD Jacobians, with the same errors and as many evaluations
of each user callable; empty point sets; the block residuals of
``splitting_records`` and the entries of ``compatibility_report`` against
point-by-point references on Python floats; plus the numpy property the
one stacked kernel rests on."""

from collections import Counter
from contextlib import nullcontext
from dataclasses import fields, is_dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest

from warpgeo import (
    ChartManifold,
    DegenerateMetricError,
    DiffEngine,
    DomainError,
    RankError,
    RunConfig,
    ScalarField,
    SmoothMap,
    StencilError,
    SubmersionContext,
    WarpPositivityError,
    build_product_submersion,
    build_warped_product,
    compatibility,
    compatibility_report,
    evaluation_scope,
    identity_map,
)
from warpgeo import manifold, suites
from warpgeo.conformal_warped import _positive_factor_data
from warpgeo.fd import SCHEMES, STENCILS
from warpgeo.report import TOLERANCES, ResidualCheck, residual_scale
from warpgeo.sampling import sample_points
from warpgeo.scenarios import _compatibility_records, build_objects, list_scenarios
from warpgeo.submersion import Splitting, _in_blocks

SIZES = (0, 1, 64, 65)
ENGINE = DiffEngine()

STACKED_KERNEL = (
    "the stacked kernel of SubmersionContext.splittings_at/dilations is only "
    "bit-identical to splitting_at/dilation, its point-set metrics and "
    "Jacobians (warped ambient, product and FD ones included) to "
    "metric_at/jacobian_at, and the block residuals of "
    "suites.splitting_records to a point-by-point walk, while numpy's stacked "
    "calls equal its per-matrix calls"
)


def _catalog_contexts(engine):
    """(context, points) for every submersion context of the catalog: the
    scenario maps, the FD-Jacobian map and both factor maps of each product."""
    out = []
    for scenario in list_scenarios():
        objs = build_objects(scenario.scenario_id, engine)
        coords = sample_points(objs["sample_lower"], objs["sample_upper"], max(SIZES), 11,
                               4.0 * engine.step)
        for key in ("ctx", "ctx_fd"):
            if key in objs:
                ctx = objs[key]
                out.append((ctx, [ctx.map.source.point(c) for c in coords]))
        cws = objs.get("cws")
        if cws is not None:
            halves = [cws.source.split_coords(c) for c in coords]
            for ctx, k in ((cws.ctx1, 0), (cws.ctx2, 1)):
                out.append((ctx, [ctx.map.source.point(h[k]) for h in halves]))
    return out


def _outcome(compute):
    """What ``compute`` returned, or the type, message, rank and singular
    values of what it raised."""
    try:
        return compute()
    except Exception as exc:
        singular_values = getattr(exc, "singular_values", None)
        return (type(exc), str(exc), getattr(exc, "rank", None),
                None if singular_values is None else singular_values.tolist())


def _assert_same_splitting(want, got):
    for f in fields(Splitting):
        a, b = getattr(want, f.name), getattr(got, f.name)
        if isinstance(a, np.ndarray):
            # same layout too, so that products taken later are the same calls
            assert np.array_equal(a, b) and a.strides == b.strides, f.name
        else:
            assert a == b, f.name


@pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_point_sets_bit_identical_to_single_points(scheme, scoped, monkeypatch):
    contexts = _catalog_contexts(DiffEngine(scheme=scheme))
    assert any(ctx.map.jac is None for ctx, _ in contexts)  # an FD Jacobian
    assert any(ctx.map.source.dim == ctx.map.target.dim for ctx, _ in contexts)  # no fiber
    want = [
        ([ctx.splitting_at(p) for p in points], [ctx.dilation(p) for p in points])
        for ctx, points in contexts
    ]

    fallbacks = []
    one_at_a_time = manifold._one_at_a_time

    def spy(owner, coords_seq, tag, compute_many):
        fallbacks.append((tag, len(coords_seq)))
        return one_at_a_time(owner, coords_seq, tag, compute_many)

    monkeypatch.setattr(manifold, "_one_at_a_time", spy)
    for (ctx, points), (splittings, dilations) in zip(contexts, want):
        for n in SIZES:
            with evaluation_scope() if scoped else nullcontext():
                got_s = ctx.splittings_at(points[:n])
                got_d = ctx.dilations(points[:n])
            assert len(got_s) == len(got_d) == n
            for w, g in zip(splittings, got_s):
                _assert_same_splitting(w, g)
            for w, g in zip(dilations, got_d):
                assert np.array_equal(w.coords, g.coords)
                assert (w.lambda_sq, w.anisotropy) == (g.lambda_sq, g.anisotropy)
    # a clean point set is never computed one point at a time
    assert fallbacks == []


def _guarded_map(calls):
    """R^2 -> R: the squared radius, rank-deficient at the origin; its map and
    Jacobian raise ValueError at x = 0.5, its Jacobian is NaN at x = -0.7,
    the source metric is NaN at x = -0.6, and the target metric is zero at
    the image 0.25 of (0, 0.5), so the pullback is degenerate there.
    Appends "fn" or "jac" to calls."""
    def fn(c):
        calls.append("fn")
        if c[0] == 0.5:
            raise ValueError(f"map undefined at {c}")
        return np.array([c[0] ** 2 + c[1] ** 2])

    def jac(c):
        calls.append("jac")
        if c[0] == 0.5:
            raise ValueError(f"Jacobian undefined at {c}")
        return np.array([[np.nan if c[0] == -0.7 else 2.0 * c[0], 2.0 * c[1]]])

    M = ChartManifold(2, [-1, -1], [1, 1], lambda c: np.eye(2) * (np.nan if c[0] == -0.6 else 1.0))
    N = ChartManifold(1, [-5], [5], lambda y: np.array([[0.0 if y[0] == 0.25 else 1.0]]))
    return M, SubmersionContext(SmoothMap(M, N, fn, jac), DiffEngine())


RANK_DEFICIENT = (RankError, "rank 0 below target dimension 1 at [0. 0.]")


@pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
@pytest.mark.parametrize("order, splitting_error, dilation_error", [
    ([[0.2, 0.1], [0.0, 0.0], [0.5, 0.3], [0.3, 0.4]], RANK_DEFICIENT, RANK_DEFICIENT),
    ([[0.2, 0.1], [0.5, 0.3], [0.0, 0.0], [0.3, 0.4]],
     (ValueError, "Jacobian undefined at [0.5 0.3]"),
     (ValueError, "Jacobian undefined at [0.5 0.3]")),
    ([[0.2, 0.1], [0.0, 0.5], [0.0, 0.0], [0.3, 0.4]], RANK_DEFICIENT,
     (RankError, "pullback metric degenerate on horizontal space at [0.  0.5]")),
    ([[0.2, 0.1], [-0.6, 0.3], [-0.7, 0.2], [0.3, 0.4]],
     (DegenerateMetricError, "metric not finite at [-0.6  0.3]"),
     (DegenerateMetricError, "metric not finite at [-0.6  0.3]")),
    ([[0.2, 0.1], [-0.7, 0.2], [-0.6, 0.3], [0.3, 0.4]],
     (RankError, "Jacobian not finite at [-0.7  0.2]"),
     (RankError, "Jacobian not finite at [-0.7  0.2]")),
], ids=["rank-deficient-first", "raising-map-first", "degenerate-pullback-first",
        "non-finite-metric-first", "non-finite-jacobian-first"])
def test_first_failing_point_raises_as_the_single_point_loop(
    order, splitting_error, dilation_error, scoped
):
    M, ctx = _guarded_map([])
    points = [M.point(c) for c in order]
    loops = (
        (lambda: [ctx.splitting_at(p) for p in points],
         lambda: ctx.splittings_at(points), splitting_error),
        (lambda: [ctx.dilation(p) for p in points], lambda: ctx.dilations(points),
         dilation_error),
    )
    for single, point_set, error in loops:
        with evaluation_scope() if scoped else nullcontext():
            want = _outcome(single)
        with evaluation_scope() if scoped else nullcontext():
            got = _outcome(point_set)
        assert want[:2] == error and got == want


def test_point_set_and_single_point_share_memo_entries():
    calls = []
    M, ctx = _guarded_map(calls)
    coords = [np.array([0.1 * k, -0.2]) for k in range(1, 5)]
    points = [M.point(c) for c in coords]
    with evaluation_scope():
        first = ctx.splitting_at(coords[0])
        splittings = ctx.splittings_at(coords + [coords[2].copy()])
        assert splittings[0] is first and splittings[4] is splittings[2]
        assert all(ctx.splitting_at(c) is s for c, s in zip(coords, splittings))
        dilations = ctx.dilations(points)  # its splittings are the ones above
        assert calls.count("jac") == len(coords)
        assert all(ctx.dilation(p) is d for p, d in zip(points, dilations))
        lone = ctx.dilation(M.point([0.7, 0.1]))
        assert ctx.dilations([M.point([0.7, 0.1])])[0] is lone
        assert ctx.splittings_at([[0.7, 0.1]])[0] is ctx.splitting_at([0.7, 0.1])
    # nothing is stored outside a scope
    assert ctx.splittings_at(coords[:1])[0] is not ctx.splittings_at(coords[:1])[0]
    assert ctx.dilations(points[:1])[0] is not ctx.dilation(points[0])


def test_errors_are_not_stored_and_earlier_points_are():
    calls = []
    M, ctx = _guarded_map(calls)
    points = [M.point(c) for c in ([0.2, 0.1], [0.0, 0.0])]
    with evaluation_scope():
        for _ in range(3):
            with pytest.raises(RankError):
                ctx.splittings_at(points)
            with pytest.raises(RankError):
                ctx.dilations(points)
        # the point before the failing one was stored, as a loop would store it
        n = len(calls)
        ctx.splitting_at(points[0])
        ctx.dilation(points[0])
        assert len(calls) == n


def test_the_stacked_kernels_name_their_first_failing_point():
    M, ctx = _guarded_map([])
    ok, origin, degenerate, mirrored = (
        M.point(c) for c in ([0.2, 0.1], [0.0, 0.0], [0.0, 0.5], [-0.5, 0.0])
    )
    assert _outcome(lambda: ctx._stacked_splittings([ok, origin, ok])) == _outcome(
        lambda: ctx.splitting_at(origin)
    )
    assert _outcome(lambda: ctx._stacked_dilations([ok, degenerate, mirrored])) == _outcome(
        lambda: ctx.dilation(degenerate)
    )


def test_a_lone_failing_point_is_computed_once():
    calls = []
    M, ctx = _guarded_map(calls)
    p = M.point([0.0, 0.0])
    for call in (ctx.splitting_at, ctx.dilation,
                 lambda q: ctx.splittings_at([q]), lambda q: ctx.dilations([q])):
        calls.clear()
        with pytest.raises(RankError):
            call(p)
        assert calls.count("jac") == 1


INPUT_SCENARIOS = ("exp-spiral-r4", "cws-variable-dilation", "cws-incompatible")


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _chart_points(scenario, engine, n):
    """(map, source points, target points) of each map of a scenario: its
    target points are the images of its source points."""
    objs = build_objects(scenario, engine)
    coords = sample_points(objs["sample_lower"], objs["sample_upper"], n, 5, 4.0 * engine.step)
    out = []
    for key in ("ctx", "ctx_fd"):
        if key in objs:
            F = objs[key].map
            points = [F.source.point(c) for c in coords]
            out.append((F, points, [F(p) for p in points]))
    return out


@pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
@pytest.mark.parametrize("scenario", INPUT_SCENARIOS)
def test_point_set_inputs_bit_identical_to_single_points(scenario, scoped):
    engine = DiffEngine()
    maps = _chart_points(scenario, engine, max(SIZES))
    fd_jacobians = [False, True] if scenario == "exp-spiral-r4" else [False]  # its ctx_fd
    assert [F.jac is None for F, _, _ in maps] == fd_jacobians
    for F, points, images in maps:
        want_metrics = {
            id(M): [M.metric_at(c, check=False) for c in coords]
            for M, coords in ((F.source, points), (F.target, images))
        }
        want_jacobians = [F.jacobian_at(p, engine) for p in points]
        for n in SIZES[1:]:
            with evaluation_scope() if scoped else nullcontext():
                got_images = F.images(points[:n])
                for M, coords in ((F.source, points), (F.target, images)):
                    got = M.metrics_at(coords[:n])
                    assert len(got) == n
                    assert all(_same_bits(w, g) for w, g in zip(want_metrics[id(M)], got))
                got_jacobians = F.jacobians_at(points[:n], engine)
            assert _same_bits(got_images, np.stack(images[:n]))
            assert _same_bits(got_jacobians, np.stack(want_jacobians[:n]))


@pytest.mark.parametrize("scenario", INPUT_SCENARIOS)
def test_point_set_metrics_share_read_only_scope_entries(scenario):
    (F, points, images), *_ = _chart_points(scenario, DiffEngine(), 6)
    for M, coords in ((F.source, points), (F.target, images)):
        with evaluation_scope():
            first = [M.metric_at(c, check=False) for c in coords[:3]]
            stacked = M.metrics_at(coords)
            assert all(a is b for a, b in zip(first, stacked))
            assert all(M.metric_at(c, check=False) is g for c, g in zip(coords, stacked))
            assert not any(g.flags.writeable for g in stacked)
            # a checked metric is its own entry
            assert all(M.metric_at(c) is not g for c, g in zip(coords, stacked))
        # nothing is stored outside a scope
        assert M.metrics_at(coords[:1])[0] is not M.metrics_at(coords[:1])[0]


@pytest.mark.parametrize("value, shape", [
    (lambda c: 2.0 * c[0], (1, 1)),
    (lambda c: np.array([c[1], 2.0 * c[0]]), (1, 2)),
    (lambda c: [[1, c[0]], [0, 2]], (2, 2)),
], ids=["scalar", "row", "matrix"])
def test_point_set_jacobians_keep_the_single_point_shape_rule(value, shape):
    # a float image and a scalar or row Jacobian are padded on the point-set
    # fast path, so a scalar-valued map's set is read once per point, not
    # redone point by point
    calls = Counter()

    def fn(c):
        calls["fn"] += 1
        return float(np.sum(c)) if shape[0] == 1 else c[:shape[0]]

    def jac(c):
        calls["jac"] += 1
        return value(c)

    dim = shape[1]
    M = ChartManifold.euclidean(dim, -1.0, 1.0)
    F = SmoothMap(M, ChartManifold.euclidean(shape[0]), fn, jac)
    points = [M.point(np.full(dim, x)) for x in (0.1, -0.3, 0.7)]
    for n in (1, 3):
        want_images = np.stack([F(p) for p in points[:n]])
        want_jacobians = np.stack([F.jacobian_at(p, ENGINE) for p in points[:n]])
        calls.clear()
        got_images = F.images(points[:n])
        got = F.jacobians_at(points[:n], ENGINE)
        assert calls == {"fn": n, "jac": n}
        assert got_images.shape == (n, shape[0]) and _same_bits(got_images, want_images)
        assert got.shape == (n,) + shape and _same_bits(got, want_jacobians)


def test_an_fd_jacobian_raises_the_image_rule_at_a_stencil_point():
    # the images have shape (2,), not (1,), from x = 0.2 on; an FD Jacobian
    # differentiates the checked image, so the first stencil point of
    # [0.3 0.4] raises the image's DomainError, not a Jacobian shape error
    M = ChartManifold.euclidean(2, -1.0, 1.0)
    F = SmoothMap(M, ChartManifold.euclidean(1), lambda c: c[:1] if c[0] < 0.2 else c,
                  lambda c: np.array([[1.0, 0.0]]))
    fd = replace(F, jac=None)
    points = [M.point(c) for c in ([0.1, 0.2], [0.3, 0.4], [0.5, 0.6])]
    stencil = ENGINE.stencil_points(points[1], M.lower, M.upper, (0, 1))
    want = _outcome(lambda: fd.jacobian_at(points[1], ENGINE))
    assert want == (DomainError, f"image of shape (2,) at {stencil[0]}", None, None)
    calls = [lambda: fd.jacobians_at(points, ENGINE), lambda: fd.jacobians_at(points[1:], ENGINE),
             lambda: SubmersionContext(fd, ENGINE).splittings_at(points),
             lambda: F.check_jacobian(ENGINE, points)]
    for call in calls:
        assert _outcome(call) == want


def test_point_set_metrics_are_symmetrized_as_the_single_point_call():
    # the catalog's metrics are symmetric, so they cannot tell
    M = ChartManifold(2, -1.0, 1.0, lambda c: np.array([[1.0, c[0]], [0.1 * c[1], 1.0]]))
    points = [M.point(c) for c in ([0.3, 0.7], [-0.9, 0.2], [0.1, 0.1])]
    got = M.metrics_at(points)
    assert all(_same_bits(M.metric_at(p, check=False), g) for p, g in zip(points, got))
    assert all(g[0, 1] == g[1, 0] == 0.5 * (p[0] + 0.1 * p[1]) for p, g in zip(points, got))


def test_a_metric_of_the_wrong_shape_raises_as_the_single_point_call():
    N = ChartManifold(1, [-5], [5], lambda y: np.eye(1) if y[0] < 1.0 else np.ones(1))
    good, bad = np.array([0.5]), np.array([2.0])
    want = _outcome(lambda: N.metric_at(bad, check=False))
    assert want[:2] == (DegenerateMetricError, "metric returned shape (1,) at [2.]")
    for coords in ([bad, bad], [good, bad, good], [bad]):
        for scope in (nullcontext(), evaluation_scope()):
            with scope:
                assert _outcome(lambda: N.metrics_at(coords)) == want


@pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
def test_a_target_metric_error_precedes_a_later_failing_image(scoped):
    # (x, y) -> x, whose map raises at x = 0.5 and whose target metric
    # raises at the image 0.25; the kernel computes every image before it
    # reads a target metric
    def fn(c):
        if c[0] == 0.5:
            raise ValueError(f"map undefined at {c}")
        return c[:1]

    def target_metric(y):
        if y[0] == 0.25:
            raise ValueError(f"target metric undefined at {y}")
        return np.eye(1)

    M = ChartManifold.euclidean(2, -1.0, 1.0)
    N = ChartManifold(1, [-5], [5], target_metric)
    ctx = SubmersionContext(SmoothMap(M, N, fn, lambda c: np.array([[1.0, 0.0]])), ENGINE)
    points = [M.point(c) for c in ([0.1, 0.2], [0.25, 0.3], [0.5, 0.1], [0.3, 0.4])]
    with evaluation_scope() if scoped else nullcontext():
        want = _outcome(lambda: [ctx.dilation(p) for p in points])
    with evaluation_scope() if scoped else nullcontext():
        got = _outcome(lambda: ctx.dilations(points))
    assert got == want == (ValueError, "target metric undefined at [0.25]", None, None)


# -- the assembled point-set forms: warped ambient metric, product map, FD Jacobians


def _asymmetric_warped_product():
    """A warped product whose factor metrics are not symmetric (each point's
    metric is symmetrized once, by ``metric_at``) and whose warp is not 1."""
    first = ChartManifold(2, -1.0, 1.0,
                          lambda c: np.array([[2.0 + c[0], 0.3 * c[1]], [0.1 * c[0], 1.5]]))
    second = ChartManifold(2, -1.0, 1.0,
                           lambda c: np.array([[1.0, 0.2 * c[0] ** 2], [-0.1, 1.0 + c[1] ** 2]]))
    return build_warped_product(first, second, ScalarField(lambda c: np.exp(0.4 * c[0] - c[1])))


def _ambient_charts():
    """(warped ambient chart, points in it): the asymmetric product and every
    warped product of the catalog, the targets at the images of the sources."""
    W = _asymmetric_warped_product()
    coords = sample_points(W.ambient.lower, W.ambient.upper, max(SIZES), 9, 1e-3)
    out = {id(W.ambient): (W.ambient, [W.ambient.point(c) for c in coords])}
    for scenario in list_scenarios():
        objs = build_objects(scenario.scenario_id, ENGINE)
        coords = sample_points(objs["sample_lower"], objs["sample_upper"], max(SIZES), 9, 4e-5)
        if "cws" in objs:
            F = objs["cws"].ctx.map
            points = [F.source.point(c) for c in coords]
            out[id(F.source)] = (F.source, points)
            out[id(F.target)] = (F.target, list(F.images(points)))
        elif "warped" in objs:
            M = objs["warped"].ambient
            out[id(M)] = (M, [M.point(c) for c in coords])
    return list(out.values())


@pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
def test_warped_ambient_metrics_bit_identical_to_single_points(scoped):
    charts = _ambient_charts()
    assert len(charts) == 1 + 3 + 2 * 5  # the asymmetric product, 3 warped and 5 cws scenarios
    for M, points in charts:
        assert M.metric._stack is not None
        want = [M.metric_at(c, check=False) for c in points]
        for n in SIZES[1:]:
            with evaluation_scope() if scoped else nullcontext():
                got = M.metrics_at(points[:n])
            assert len(got) == n and all(_same_bits(w, g) for w, g in zip(want, got)), M.name
    # the warp reaches the second block, the asymmetry both
    M, points = charts[0]
    g = M.metrics_at(points[:1])[0]
    assert g[2, 3] == g[3, 2] != 0.0 and g[0, 1] == g[1, 0] != 0.0


def _fd_factor_product():
    """A product of factor maps without analytic Jacobians."""
    M1 = ChartManifold.euclidean(2, [-2, -2], [2, 2])
    phi1 = SmoothMap(M1, ChartManifold.euclidean(1, [-9], [9]),
                     lambda c: np.array([np.sin(c[0]) + c[1]]))
    M2 = ChartManifold.euclidean(1, [-2], [2])
    phi2 = SmoothMap(M2, M2, lambda c: 0.5 * c)
    unit = ScalarField.constant(1.0)
    return build_product_submersion(phi1, unit, phi2, unit, unit, unit, ENGINE), (-1.5, 1.5)


def _product_maps():
    """(product map, points): every catalog product and one of FD factors."""
    out = []
    for scenario in list_scenarios():
        objs = build_objects(scenario.scenario_id, ENGINE)
        if "cws" in objs:
            F = objs["cws"].ctx.map
            coords = sample_points(objs["sample_lower"], objs["sample_upper"], max(SIZES), 13,
                                   4e-5)
            out.append((F, [F.source.point(c) for c in coords]))
    cws, (low, high) = _fd_factor_product()
    F = cws.ctx.map
    coords = sample_points(np.full(3, low), np.full(3, high), max(SIZES), 13, 4e-5)
    return out + [(F, [F.source.point(c) for c in coords])]


@pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
def test_product_images_and_jacobians_bit_identical_to_single_points(scoped):
    for F, points in _product_maps():
        assert F.fn._stack is not None and F.jac._stack is not None
        want_images = np.stack([F.fn(p) for p in points])
        want_jacobians = np.stack([F.jac(p) for p in points])
        for n in SIZES[1:]:
            with evaluation_scope() if scoped else nullcontext():
                assert _same_bits(F.images(points[:n]), want_images[:n])
                assert _same_bits(F.jacobians_at(points[:n], ENGINE), want_jacobians[:n])


def _fd_maps():
    """(FD map, points), each set with points whose steps shrink at an edge
    of the box: the catalog's FD map, a map into the plane and a scalar one."""
    objs = build_objects("exp-spiral-r4", ENGINE)
    spiral = objs["ctx_fd"].map
    M = ChartManifold.euclidean(3, -1.0, 1.0)
    plane = SmoothMap(M, ChartManifold.euclidean(2),
                      lambda c: np.array([np.sin(c[0]) * c[1], c[2] ** 3 - c[0]]))
    line = SmoothMap(M, ChartManifold.euclidean(1), lambda c: float(c[0] * np.exp(c[1] + c[2])))
    rng = np.random.default_rng(17)
    out = []
    for F, low, high in ((spiral, objs["sample_lower"], objs["sample_upper"]),
                         (plane, M.lower, M.upper), (line, M.lower, M.upper)):
        coords = sample_points(low, high, max(SIZES), 17, 1e-3)
        # every third point sits 3e-6 (a third of that step) from a wall
        for i in range(0, len(coords), 3):
            axis = rng.integers(F.source.dim)
            wall = F.source.upper[axis] if i % 2 else F.source.lower[axis]
            coords[i, axis] = wall - np.sign(wall) * 3e-6
        out.append((F, [F.source.point(c) for c in coords]))
    return out


@pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_fd_jacobians_bit_identical_to_single_points(scheme, scoped, monkeypatch):
    engine = DiffEngine(scheme=scheme)
    maps = [(F, points, np.stack([F.jacobian_at(p, engine) for p in points]))
            for F, points in _fd_maps()]
    # one evaluation over the set's stencils, not a loop of single points
    monkeypatch.setattr(DiffEngine, "partial", None)
    for F, points, want in maps:
        assert F.jac is None
        for n in SIZES[1:]:
            with evaluation_scope() if scoped else nullcontext():
                assert _same_bits(F.jacobians_at(points[:n], engine), want[:n])


def test_fd_jacobians_raise_the_single_point_stencil_error():
    M = ChartManifold.euclidean(2, -1.0, 1.0)
    F = SmoothMap(M, ChartManifold.euclidean(1), lambda c: c[:1] * c[1])
    good, tight = M.point([0.1, 0.2]), M.point([0.3, 1.0 - 1e-11])
    want = _outcome(lambda: F.jacobian_at(tight, ENGINE))
    assert want[0] is StencilError and "room to boundary 1.000e-11" in want[1]
    for points in ([tight], [good, tight], [good, tight, tight, good]):
        assert _outcome(lambda: F.jacobians_at(points, ENGINE)) == want


def _with_single_point_callables(F: SmoothMap) -> SmoothMap:
    """``F`` with its callables and its charts' metrics behind plain
    functions, which carry no point-set form."""
    def plain(fn):
        return None if fn is None else (lambda c: fn(c))

    def chart(M):
        return replace(M, metric=plain(M.metric))

    return replace(F, source=chart(F.source), target=chart(F.target), fn=plain(F.fn),
                   jac=plain(F.jac))


def _product_bad_from_second_point(datum: str, fault) -> SubmersionContext:
    """The product of (x, y) |-> x on (-1, 1)^2 and the identity of (-1, 1),
    with warps e^{x/4} and e^{u/4}, whose first factor's ``datum`` ("metric",
    "jac", "fn" or the warp "f") is ``fault`` of its good value from
    x = 0.2 on."""
    def good_then(name, good):
        return good if name != datum else (lambda c: good(c) if c[0] < 0.2 else fault(good(c)))

    M1 = ChartManifold(2, -1.0, 1.0, good_then("metric", lambda c: np.eye(2)))
    N1 = ChartManifold.euclidean(1, -1.0, 1.0)
    phi1 = SmoothMap(M1, N1, good_then("fn", lambda c: c[:1]),
                     good_then("jac", lambda c: np.array([[1.0, 0.0]])))
    M2 = ChartManifold.euclidean(1, -1.0, 1.0)
    unit = ScalarField.constant(1.0)
    f = ScalarField(good_then("f", lambda c: float(np.exp(c[0] / 4.0))))
    rho = ScalarField(lambda y: float(np.exp(y[0] / 4.0)))
    return build_product_submersion(phi1, unit, identity_map(M2), unit, f, rho, ENGINE).ctx


PRODUCT_POINTS = [np.array([0.1, 0.2, 0.3]), np.array([0.3, 0.4, 0.5]),
                  np.array([0.5, 0.6, -0.2])]


@pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
@pytest.mark.parametrize("datum, fault, error", [
    ("metric", lambda g: np.stack([g, g]), "metric returned shape (2, 2, 2) at [0.3 0.4]"),
    ("jac", lambda J: J.T, "Jacobian of shape (2, 1) at [0.3 0.4], expected (1, 2)"),
    ("f", lambda v: np.nan, "warp nan is not in (0, inf) at first-factor point [0.3 0.4]"),
    ("f", lambda v: np.inf, "warp inf is not in (0, inf) at first-factor point [0.3 0.4]"),
    ("fn", lambda y: np.array([np.nan]),
     "image [nan 0.5] of [0.3 0.4 0.5] outside target domain"),
    ("jac", lambda J: J * np.nan, "Jacobian not finite at [0.3 0.4 0.5]"),
    ("fn", lambda y: y + 5.0, "image [5.3 0.5] of [0.3 0.4 0.5] outside target domain"),
], ids=["metric-shape", "jacobian-shape", "nan-warp", "inf-warp", "nan-image", "nan-jacobian",
        "image-outside-box"])
def test_a_bad_factor_datum_raises_the_single_point_error(datum, fault, error, scoped):
    ctx = _product_bad_from_second_point(datum, fault)
    plain = SubmersionContext(_with_single_point_callables(ctx.map), ENGINE)
    for points in (PRODUCT_POINTS, PRODUCT_POINTS[1:]):
        calls = [
            lambda c: c.map.source.metrics_at(points), lambda c: c.map.jacobians_at(points, ENGINE),
            lambda c: c.map.images(points), lambda c: c.splittings_at(points),
            lambda c: c.dilations(points),
        ]
        outcomes = []
        for call in calls:
            with evaluation_scope() if scoped else nullcontext():
                want = _outcome(lambda: call(plain))
            with evaluation_scope() if scoped else nullcontext():
                got = _outcome(lambda: call(ctx))
            if isinstance(want, tuple):
                assert got == want
                outcomes.append(want[1])
        assert error in outcomes


def _splitting_records_per_point(ctx, points, rng):
    """The split-decomposition check of ``suites.splitting_records`` walked
    point by point: one draw, ten small products and a Python ``max`` per
    point. The reference for its block residuals."""
    check = ResidualCheck("split-decomposition", TOLERANCES["split-decomposition"])
    dim = ctx.map.source.dim
    for _, s in _in_blocks(ctx.splittings_at, points):
        v = rng.uniform(-1.0, 1.0, size=dim)
        vert = s.vertical_part(v)
        horiz = s.horizontal_part(v)
        smax = float(s.singular_values[0]) if s.singular_values.size else 1.0
        residual = max(
            float(np.max(np.abs(v - vert - horiz))),
            float(np.max(np.abs(s.jacobian @ vert))) / (1.0 + smax),
            abs(float(vert @ s.metric @ horiz)),
            float(np.max(np.abs(s.vertical_part(horiz)))),  # idempotence
        )
        check.add(residual, residual_scale(v))
    return check


def _block_residuals(ctx, points, rng, monkeypatch):
    """The per-point residuals that ``suites.splitting_records`` adds, in order."""
    checks = []

    class Spy(ResidualCheck):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            checks.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(suites, "ResidualCheck", Spy)
        record = suites.splitting_records(ctx, points, rng)
    (check,) = checks
    assert record.max_residual == check.max_residual
    return check.residuals


@pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
@pytest.mark.parametrize("scenario", ["exp-spiral-r4", "cws-variable-dilation"])
def test_splitting_records_equal_the_point_by_point_walk(scenario, scoped, monkeypatch):
    objs = build_objects(scenario, DiffEngine())
    ctx = objs["ctx"]
    coords = sample_points(objs["sample_lower"], objs["sample_upper"], 130, 3, 4e-5)
    points = [ctx.map.source.point(c) for c in coords]
    for n in (1, 64, 65, 130):
        want_rng, got_rng = np.random.default_rng(n), np.random.default_rng(n)
        with evaluation_scope() if scoped else nullcontext():
            want = _splitting_records_per_point(ctx, points[:n], want_rng).residuals
        with evaluation_scope() if scoped else nullcontext():
            got = _block_residuals(ctx, points[:n], got_rng, monkeypatch)
        assert len(got) == n
        assert np.array(got).tobytes() == np.array(want).tobytes(), (scenario, n)
        # the later suites of a scenario draw from the same generator
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def _compatibility_per_point(cws, p):
    """``compatibility`` at one point on Python floats: the factor data of
    ``_positive_factor_data``, then r1, r2 and the residual in the same
    operand order. The reference for the entries of ``compatibility_report``."""
    l1, l2, fv, rv = _positive_factor_data(cws, p)
    r1 = l1 * l1
    r2 = (rv * rv) * (l2 * l2) / (fv * fv)
    residual = abs(r1 / r2 - 1.0)
    return SimpleNamespace(coords=p, r1=r1, r2=r2, residual=residual,
                           conformal_here=residual <= TOLERANCES["conformality/threshold"])


def _entries(entries) -> tuple:
    """The fields of compatibility entries, floats as bits."""
    return ([id(e.coords) for e in entries], [e.conformal_here for e in entries],
            np.array([[e.r1, e.r2, e.residual] for e in entries]).tobytes())


@pytest.mark.parametrize("scenario", ["cws-variable-dilation", "cws-incompatible",
                                      "cws-mixed-local"])
def test_compatibility_report_equals_the_point_by_point_walk(scenario):
    objs = build_objects(scenario, ENGINE)
    cws = objs["cws"]
    coords = sample_points(objs["sample_lower"], objs["sample_upper"], 130, 3, 4e-5)
    points = [cws.source.ambient.point(c) for c in coords]
    for n in (1, 64, 65, 130):
        want = [_compatibility_per_point(cws, p) for p in points[:n]]
        assert _entries(compatibility_report(cws, points[:n])) == _entries(want)
        assert _entries([compatibility(cws, p) for p in points[:n]]) == _entries(want)
    verdicts = {"cws-variable-dilation": {True}, "cws-incompatible": {False},
                "cws-mixed-local": {False}}  # conformal on a slice only
    assert {e.conformal_here for e in compatibility_report(cws, points)} == verdicts[scenario]


def _failing_factor_data():
    """A product of the identities of (-1, 1)^2 and (-1, 1), except that
    phi1's target is (-0.65, 1) x (-1, 1), whose data fail in these regions
    of (x, y, z): lambda1 = 0 at x > 0.6, lambda2 = -1 at z > 0.6, f = NaN at
    y > 0.6, phi1 leaves its target at x < -0.65, rho = 0 at y < -0.6, and
    f = 1e-170 at 0.4 < y < 0.5, so that f^2 is zero; lambda1 = 1e200 at
    0.4 < x < 0.5 and lambda2 = 1e200 at 0.4 < z < 0.5 overflow r1 and r2
    to a NaN residual."""
    M1 = ChartManifold.euclidean(2, -1.0, 1.0)
    N1 = ChartManifold.euclidean(2, [-0.65, -1.0], [1.0, 1.0])
    phi1 = SmoothMap(M1, N1, lambda c: c, lambda c: np.eye(2))
    M2 = ChartManifold.euclidean(1, -1.0, 1.0)
    lambda1 = ScalarField(lambda c: 0.0 if c[0] > 0.6 else 1e200 if 0.4 < c[0] < 0.5 else 1.0)
    lambda2 = ScalarField(lambda c: -1.0 if c[0] > 0.6 else 1e200 if 0.4 < c[0] < 0.5 else 1.0)
    f = ScalarField(lambda c: np.nan if c[1] > 0.6 else 1e-170 if 0.4 < c[1] < 0.5 else 1.0)
    rho = ScalarField(lambda y: 0.0 if y[1] < -0.6 else 1.0)
    return build_product_submersion(phi1, lambda1, identity_map(M2), lambda2, f, rho, ENGINE)


@pytest.mark.parametrize("order", [
    [[0.1, 0.1, 0.1], [0.7, 0.1, 0.7], [0.1, 0.7, 0.7]],  # lambda1 before lambda2
    [[0.1, 0.1, 0.1], [0.1, 0.7, 0.7], [0.7, 0.1, 0.7]],  # lambda2 before f
    [[0.1, 0.7, 0.1], [-0.7, -0.7, 0.1]],  # f first
    [[-0.7, -0.7, 0.1], [0.1, 0.7, 0.1]],  # the image before rho
    [[0.1, -0.7, 0.1], [0.7, 0.1, 0.1]],  # rho first
    [[0.1, 0.1, 0.1], [0.1, 0.45, 0.1], [0.2, 0.2, 0.2]],  # f^2 = 0 divides by zero
    [[0.1, 0.1, 0.1], [0.45, 0.1, 0.45], [0.2, 0.2, 0.2]],  # a NaN residual
], ids=["lambda1", "lambda2", "warp", "image", "rho", "zero-warp-squared", "nan-residual"])
def test_a_failing_compatibility_block_raises_as_the_point_by_point_walk(order):
    cws = _failing_factor_data()
    points = [cws.source.ambient.point(c) for c in order]
    want = _outcome(lambda: _entries([_compatibility_per_point(cws, p) for p in points]))
    assert _outcome(lambda: _entries(compatibility_report(cws, points))) == want
    if order[1] == [0.45, 0.1, 0.45]:
        assert np.isnan(compatibility_report(cws, points)[1].residual)
    else:
        assert isinstance(want, tuple) and len(want) == 4  # an error
    if order[1] == [0.1, 0.45, 0.1]:  # not a ZeroDivisionError
        message = f"source warp = 1e-170 squares to 0 at {points[1]}"
        assert want[:2] == (WarpPositivityError, message)


@pytest.mark.parametrize("call, shape", [
    (lambda cws: cws.ctx1.map.images([]), (0, 2)),
    (lambda cws: cws.ctx1.map.jacobians_at([], ENGINE), (0, 2, 2)),
    (lambda cws: replace(cws.ctx1.map, jac=None).jacobians_at([], ENGINE), (0, 2, 2)),
    (lambda cws: cws.ctx.map.images([]), (0, 3)),
    (lambda cws: cws.ctx.map.jacobians_at([], ENGINE), (0, 3, 3)),
    (lambda cws: compatibility_report(cws, []), None),
], ids=["images", "jacobians", "fd-jacobians", "product-images", "product-jacobians",
        "compatibility"])
def test_an_empty_point_set_returns_an_empty_stack(call, shape):
    # a 2-dimensional factor target and a 3-dimensional product, where an
    # empty stack was once numpy's (0,) and failed to broadcast or reshape
    value = call(_failing_factor_data())
    if shape is None:
        assert value == ()
    else:
        assert isinstance(value, np.ndarray) and value.shape == shape


def test_compatibility_evaluates_each_factor_datum_once_per_point():
    # each datum behind its own counter, even where the scenario shares one
    # field between two of them
    objs = build_objects("cws-variable-dilation", ENGINE)
    cws, counts = objs["cws"], Counter()

    def spied(field, label):
        return ScalarField(_counted(field.fn, counts, label, set()), field.partials)

    phi1 = replace(cws.ctx1.map, fn=_counted(cws.ctx1.map.fn, counts, "phi1", set()))
    cws = replace(cws, lambda1=spied(cws.lambda1, "lambda1"), lambda2=spied(cws.lambda2, "lambda2"),
                  source=replace(cws.source, warp=spied(cws.source.warp, "f")),
                  target=replace(cws.target, warp=spied(cws.target.warp, "rho")),
                  ctx1=replace(cws.ctx1, map=phi1))
    coords = sample_points(objs["sample_lower"], objs["sample_upper"], 65, 3, 4e-5)
    points = [cws.source.ambient.point(c) for c in coords]
    for call, n in ((lambda: compatibility_report(cws, points), 65),
                    (lambda: compatibility(cws, points[0]), 1)):
        counts.clear()
        call()
        assert counts == dict.fromkeys(["lambda1", "lambda2", "f", "rho", "phi1"], n)


def _hand_built_splitting(x, jacobian_xy=0.0, metric_yx=0.0):
    """The splitting at (x, 0) of (x, y) -> x on the Euclidean plane, with
    the Jacobian entry that acts on the vertical part and a metric entry
    that pairs it with the horizontal part replaced."""
    return Splitting(
        coords=np.array([x, 0.0]),
        vertical=np.array([[0.0], [1.0]]),
        horizontal=np.array([[1.0], [0.0]]),
        projector_v=np.array([[0.0, 0.0], [0.0, 1.0]]),
        rank=1,
        singular_values=np.array([1.0]),
        jacobian=np.array([[1.0, jacobian_xy]]),
        metric=np.array([[1.0, 0.0], [metric_yx, 1.0]]),
    )


@pytest.mark.parametrize("bad", [{"jacobian_xy": np.nan}, {"metric_yx": np.nan}],
                         ids=["jacobian", "metric"])
def test_a_nan_in_any_term_fails_split_decomposition(bad):
    # a NaN Jacobian entry reaches only the second term (J Vv) and a NaN
    # metric entry only the third (g(Vv, Hv)); a Python max(a, b, c, d)
    # drops a NaN anywhere but in the first position
    splittings = [_hand_built_splitting(0.1), _hand_built_splitting(0.2, **bad),
                  _hand_built_splitting(0.3)]
    ctx = SimpleNamespace(map=SimpleNamespace(source=SimpleNamespace(dim=2)),
                          splittings_at=lambda block: splittings[:len(block)])
    points = [s.coords for s in splittings]
    clean = suites.splitting_records(ctx, points[:1], np.random.default_rng(1))
    assert clean.passed and np.isfinite(clean.max_residual)
    record = suites.splitting_records(ctx, points, np.random.default_rng(1))
    assert not record.passed and not np.isfinite(record.max_residual)


def _combined(scheme, values, h):
    """The scheme's combine of the stencil values ``values[k]``, in call
    order, at step ``h``: a float, or an array that broadcasts over them."""
    calls = iter(values)
    return STENCILS[scheme][1](lambda t: next(calls), h)


def test_numpy_stacked_calls_equal_per_matrix_calls():
    rng = np.random.default_rng(20261018)
    for m, n in ((1, 1), (1, 2), (2, 4), (3, 5), (5, 5)):
        N = 17
        J = rng.standard_normal((N, m, n))
        A = rng.standard_normal((N, n, n))
        G = A @ A.transpose(0, 2, 1) + np.eye(n)
        B = rng.standard_normal((N, n, m))
        u, v = rng.standard_normal((2, N, n))
        Gt = G[:, :m, :m]
        W = A[:, m:]  # a row block, as the kernel slices its right singular vectors
        seed = int(rng.integers(2**32))
        one_by_one = np.random.default_rng(seed)
        draws = [one_by_one.uniform(-1.0, 1.0, size=n) for _ in range(N)]
        # the values a user's metric or Jacobian returns: arrays and lists
        items = [J[i].tolist() if i % 2 else J[i] for i in range(N)]
        # four stencil values per point, a step and a warp per point
        V = rng.standard_normal((4, N, n))
        h = rng.uniform(1e-7, 1e-4, size=N)
        f = rng.uniform(0.5, 2.0, size=N)
        cases = {
            "svd": (lambda: np.linalg.svd(J), lambda i: np.linalg.svd(J[i])),
            "solve": (lambda: np.linalg.solve(G, B), lambda i: np.linalg.solve(G[i], B[i])),
            "eigvalsh": (lambda: np.linalg.eigvalsh(G), lambda i: np.linalg.eigvalsh(G[i])),
            "(m x n)(n x m)": (lambda: J @ B, lambda i: J[i] @ B[i]),
            "(n x n)(n x 1)": (lambda: (G @ v[:, :, None])[:, :, 0], lambda i: G[i] @ v[i]),
            "(m x n)(n x 1)": (lambda: (J @ u[:, :, None])[:, :, 0], lambda i: J[i] @ u[i]),
            "uniform": (
                lambda: np.random.default_rng(seed).uniform(-1.0, 1.0, size=(N, n)),
                lambda i: draws[i],
            ),
            "B^T G B": (lambda: B.transpose(0, 2, 1) @ G @ B, lambda i: B[i].T @ G[i] @ B[i]),
            "W G W^T": (
                lambda: W @ G @ W.transpose(0, 2, 1), lambda i: W[i] @ G[i] @ W[i].T,
            ),
            "(1 x n)(n x n)(n x 1)": (
                lambda: (u[:, None, :] @ G @ v[:, :, None])[:, 0, 0],
                lambda i: u[i] @ G[i] @ v[i],
            ),
            "(J B)^T Gt (J B)": (
                lambda: (J @ B).transpose(0, 2, 1) @ Gt @ (J @ B),
                lambda i: (J[i] @ B[i]).T @ Gt[i] @ (J[i] @ B[i]),
            ),
            "trace": (lambda: np.trace(G, axis1=1, axis2=2), lambda i: np.trace(G[i])),
            "symmetrize": (lambda: manifold._symmetrized(A), lambda i: 0.5 * (A[i] + A[i].T)),
            "array of a list": (
                lambda: np.array(items, dtype=float), lambda i: np.asarray(items[i], dtype=float),
            ),
            "central2 combine": (
                lambda: _combined("central2", V, h[:, None]),
                lambda i: _combined("central2", V[:, i], float(h[i])),
            ),
            "central4 combine": (
                lambda: _combined("central4", V, h[:, None]),
                lambda i: _combined("central4", V[:, i], float(h[i])),
            ),
            "warp squared": (
                lambda: (f * f)[:, None, None] * Gt,
                lambda i: (float(f[i]) * float(f[i])) * Gt[i],
            ),
        }
        for name, (stacked, single) in cases.items():
            whole = stacked()
            for i in range(N):
                one = single(i)
                same = all(np.array_equal(a[i], b) for a, b in zip(whole, one)) \
                    if isinstance(one, tuple) else np.array_equal(whole[i], one)
                assert same, f"{name} on ({m}, {n}) matrices, matrix {i}: {STACKED_KERNEL}"


# -- user callables are evaluated as often as at one point at a time -------

SURVEY_POINTS = 65  # one full block of POINT_BLOCK points and one of a single point


def _user_callables(obj, path: str, seen: set):
    """``(label, holder, attribute)`` of every chart metric, map ``fn`` and
    ``jac`` and ``ScalarField.fn`` reachable from ``obj`` through dicts and
    dataclass fields, each holder once, labelled by its first path."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    attrs = {ChartManifold: ("metric",), SmoothMap: ("fn", "jac"), ScalarField: ("fn",)}
    for cls, names in attrs.items():
        if isinstance(obj, cls):
            for name in names:
                if getattr(obj, name) is not None:
                    yield f"{path}.{name}", obj, name
    if isinstance(obj, dict):
        children = obj.items()
    elif is_dataclass(obj) and not isinstance(obj, type):
        children = [(f.name, getattr(obj, f.name)) for f in fields(obj)]
    else:
        return
    for name, child in children:
        yield from _user_callables(child, f"{path}.{name}", seen)


def _counted(fn, counts: Counter, label: str, stacked: set):
    """``fn``, counting its evaluations under ``label``; where ``fn`` has a
    point-set form, a call of it counts one evaluation per point, and adds
    ``label`` to ``stacked``."""
    def counted(coords):
        counts[label] += 1
        return fn(coords)

    stack = getattr(fn, "_stack", None)
    if stack is not None:
        def counted_stack(coords):
            counts[label] += len(coords)
            stacked.add(label)
            return stack(coords)

        counted._stack = counted_stack
    return counted


def _dilation_survey_counts(scenario: str) -> tuple[dict, set]:
    """The evaluations of each user callable in one pass of the benchmark's
    dilation-survey calls on ``scenario``, at ``SURVEY_POINTS`` points, and
    the callables whose point-set form was called."""
    engine = DiffEngine()
    objs = build_objects(scenario, engine)
    counts, stacked = Counter(), set()
    with pytest.MonkeyPatch.context() as patch:
        for label, holder, name in list(_user_callables(objs, "objs", set())):
            patch.setitem(vars(holder), name,
                          _counted(getattr(holder, name), counts, label, stacked))
        cws = objs.get("cws")
        M = cws.source.ambient if cws is not None else objs["ctx"].map.source
        coords = sample_points(objs["sample_lower"], objs["sample_upper"], SURVEY_POINTS, 7,
                               4.0 * engine.step)
        points = [M.point(c) for c in coords]
        rng = np.random.default_rng(7)
        lam = objs["expected_lambda_sq"]
        if cws is None:
            suites.splitting_records(objs["ctx"], points, rng)
            suites.dilation_records(objs["ctx"], points, lam)
            suites.dilation_records(objs["ctx_fd"], points, lam, check_prefix="fd-")
        else:
            suites.splitting_records(cws.ctx, points, rng)
            suites.dilation_records(cws.ctx, points, lam, expect_conformal=lam is not None)
            _compatibility_records(cws, points, RunConfig(), lam is not None)
    return dict(counts), stacked


# evaluations per user callable in one dilation-survey pass, measured when
# the warped ambient metric, the product map and FD Jacobians were still
# evaluated one point at a time inside the point-set calls
SURVEY_COUNTS = {
    "exp-spiral-r4": {
        "objs.ctx.map.fn": 65, "objs.ctx.map.jac": 130, "objs.ctx.map.source.metric": 195,
        "objs.ctx.map.target.metric": 130, "objs.ctx_fd.map.fn": 585,
    },
    "cws-variable-dilation": {
        "objs.ctx.map.fn": 130, "objs.ctx.map.jac": 195, "objs.ctx.map.source.metric": 195,
        "objs.ctx.map.target.metric": 130, "objs.cws.ctx1.map.fn": 195,
        "objs.cws.ctx1.map.jac": 195, "objs.cws.ctx2.map.fn": 130, "objs.cws.ctx2.map.jac": 195,
        "objs.cws.lambda1.fn": 65, "objs.cws.lambda2.fn": 260,
        "objs.cws.source.first.metric": 195, "objs.cws.source.second.metric": 195,
        "objs.cws.source.warp.fn": 260, "objs.cws.target.first.metric": 130,
        "objs.cws.target.second.metric": 130,
    },
    "cws-incompatible": {
        "objs.ctx.map.fn": 65, "objs.ctx.map.jac": 130, "objs.ctx.map.source.metric": 130,
        "objs.ctx.map.target.metric": 65, "objs.cws.ctx1.map.fn": 130,
        "objs.cws.ctx1.map.jac": 130, "objs.cws.ctx2.map.fn": 65, "objs.cws.ctx2.map.jac": 130,
        "objs.cws.lambda1.fn": 130, "objs.cws.source.first.metric": 130,
        "objs.cws.source.second.metric": 130, "objs.cws.source.warp.fn": 195,
        "objs.cws.target.first.metric": 65, "objs.cws.target.second.metric": 65,
        "objs.cws.target.warp.fn": 130,
    },
}


@pytest.mark.parametrize("scenario", INPUT_SCENARIOS)
def test_point_sets_evaluate_each_user_callable_as_often_as_single_points(scenario):
    # a point-set form that evaluated more often, or raised and was redone
    # point by point, would count more; the catalog product's ambient
    # metrics, images and Jacobians are each read through their point-set form
    counts, stacked = _dilation_survey_counts(scenario)
    assert counts == SURVEY_COUNTS[scenario]
    product = {"objs.ctx.map.fn", "objs.ctx.map.jac", "objs.ctx.map.source.metric",
               "objs.ctx.map.target.metric"}
    assert stacked == (set() if scenario == "exp-spiral-r4" else product)
