"""Point-set splittings and dilations (``splittings_at``, ``dilations``):
bit-identical to the single-point calls, which compute a stack of one, on
every catalog context; the same first error in input order; and one memo
entry per point shared with ``splitting_at`` and ``dilation``; the kernels'
point-set inputs (``metrics_at``, ``jacobians_at``, ``images``) against
their single-point calls; the block residuals of ``splitting_records``
against a point-by-point walk; plus the numpy property the one stacked
kernel rests on."""

from contextlib import nullcontext
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from warpgeo import (
    ChartManifold,
    DegenerateMetricError,
    DiffEngine,
    RankError,
    SmoothMap,
    SubmersionContext,
    evaluation_scope,
)
from warpgeo import manifold, suites
from warpgeo.fd import SCHEMES
from warpgeo.report import TOLERANCES, ResidualCheck, residual_scale
from warpgeo.sampling import sample_points
from warpgeo.scenarios import build_objects, list_scenarios
from warpgeo.submersion import Splitting, _in_blocks

SIZES = (0, 1, 64, 65)
ENGINE = DiffEngine()

STACKED_KERNEL = (
    "the stacked kernel of SubmersionContext.splittings_at/dilations is only "
    "bit-identical to splitting_at/dilation, its point-set metrics and "
    "Jacobians to metric_at/jacobian_at, and the block residuals of "
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
    dim = shape[1]
    M = ChartManifold.euclidean(dim, -1.0, 1.0)
    F = SmoothMap(M, ChartManifold.euclidean(shape[0]), lambda c: c[:shape[0]], value)
    points = [M.point(np.full(dim, x)) for x in (0.1, -0.3, 0.7)]
    for n in (1, 3):
        got = F.jacobians_at(points[:n], ENGINE)
        assert got.shape == (n,) + shape
        assert _same_bits(got, np.stack([F.jacobian_at(p, ENGINE) for p in points[:n]]))


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
        }
        for name, (stacked, single) in cases.items():
            whole = stacked()
            for i in range(N):
                one = single(i)
                same = all(np.array_equal(a[i], b) for a, b in zip(whole, one)) \
                    if isinstance(one, tuple) else np.array_equal(whole[i], one)
                assert same, f"{name} on ({m}, {n}) matrices, matrix {i}: {STACKED_KERNEL}"
