"""The pointwise memo of evaluation_scope: one table of its promises over
the memoized calls; tensors, stencil points, read-only point sets and
Jacobian reuse in a scope; the one-pass O'Neill tensors; derivatives
contracted with a direction skip its zero components; each O'Neill suite
opens a scope of its own, reads a stencil point's splitting only where it
differentiates, and the catalog computes no splitting, dilation or metric
one point at a time."""

from contextlib import nullcontext
from functools import partial

import numpy as np
import pytest

from warpgeo import (
    ChartManifold,
    DegenerateMetricError,
    DiffEngine,
    RankError,
    RunConfig,
    ScalarField,
    SmoothMap,
    StencilError,
    SubmersionContext,
    VectorField,
    WarpPositivityError,
    build_warped_product,
    christoffel,
    conformal_a_formula,
    covariant_derivative,
    evaluation_scope,
    lie_bracket,
    oneill_a,
    oneill_t,
)
from warpgeo import manifold, submersion
from warpgeo.conformal_warped import (
    factor_vertical_bases,
    fiber_geometry_report,
    rescaled_context,
    verify_first_factor_a_identity,
    verify_second_factor_a_identity,
)
from warpgeo.fd import SCHEMES
from warpgeo.fields import vector_field_library
from warpgeo.scenarios import _points, build_objects, list_scenarios, run_scenario
from warpgeo.submersion import Splitting, fiber_mean_curvature
from warpgeo.suites import (
    a_crossval_records,
    horizontal_pairs,
    splitting_records,
    t_umbilicity_records,
)
from warpgeo.warped import projection_map

ENGINE = DiffEngine()
COORDS = np.array([0.3, -0.4, 0.2, 0.5])


@pytest.fixture(scope="module")
def cws():
    return build_objects("cws-variable-dilation", ENGINE)["cws"]


# -- the memo's promises: one row per memoized call --------------------------

ROWS = ("metric_at", "metric_at(check=False)", "christoffel", "splitting_at", "dilation")


@pytest.fixture(scope="module")
def rows(cws):
    """row -> (the memoized call at a point of the product, the same call for
    another owner: the check flag, a chart, an engine or a context)."""
    M = cws.source.ambient
    plain, offset = rescaled_context(cws, 0.0), rescaled_context(cws, 0.1)
    return {
        "metric_at": (M.metric_at, partial(M.metric_at, check=False)),
        "metric_at(check=False)": (partial(M.metric_at, check=False),
                                   partial(offset.map.source.metric_at, check=False)),
        "christoffel": (partial(christoffel, M, ENGINE),
                        partial(christoffel, M, DiffEngine(scheme="central4"))),
        "splitting_at": (cws.ctx.splitting_at, offset.splitting_at),
        "dilation": (plain.dilation, offset.dilation),
    }


def _counted(calls: list, fn):
    """``fn``, appending to ``calls`` each time it is called."""
    def counted(c):
        calls.append(1)
        return fn(c)
    return counted


def _checked_non_spd_metric(calls):
    """The checked metric diag(1, x), not positive definite at x = -0.5,
    after its unchecked entry there is stored."""
    M = ChartManifold(2, None, None, _counted(calls, lambda c: np.diag([1.0, c[0]])))
    assert M.metric_at([-0.5, 0.0], check=False)[1, 1] == -0.5
    return partial(M.metric_at, [-0.5, 0.0]), DegenerateMetricError, "not positive definite"


def _negative_warp(calls) -> ChartManifold:
    """The warped product of two lines with warp x, which is negative at x = -0.5."""
    line = ChartManifold.euclidean(1, [-2.0], [2.0])
    return build_warped_product(line, line, ScalarField(_counted(calls, lambda c: float(c[0])))
                                ).ambient


def _critical_point_splitting(calls):
    """The splitting of x^2 + y^2 at its critical point, of rank 0."""
    M = ChartManifold.euclidean(2, [-1, -1], [1, 1])
    radius = SmoothMap(M, ChartManifold.euclidean(1, [-9], [9]), lambda c: np.array([c @ c]),
                       _counted(calls, lambda c: np.array([2.0 * c])))
    return partial(SubmersionContext(radius, ENGINE).splitting_at, [0.0, 0.0]), RankError, "rank 0"


def _degenerate_pullback(calls):
    """A dilation under a target metric that vanishes, so that the pullback
    on the horizontal line is zero."""
    M = ChartManifold.euclidean(2, [-1, -1], [1, 1])
    N = ChartManifold(1, [-2.0], [2.0], lambda c: np.zeros((1, 1)))
    smap = SmoothMap(M, N, _counted(calls, lambda c: np.array([c[0]])),
                     lambda c: np.array([[1.0, 0.0]]))
    return (partial(SubmersionContext(smap, ENGINE).dilation, [0.2, 0.3]), RankError,
            "pullback metric degenerate")


# row -> a builder of a call that raises, given the list its user callable
# appends to: (the call, its error, the error's message)
FAILING = {
    "metric_at": _checked_non_spd_metric,
    "metric_at(check=False)": lambda calls: (
        partial(_negative_warp(calls).metric_at, [-0.5, 0.0], check=False),
        WarpPositivityError, "warp"),
    "christoffel": lambda calls: (
        partial(christoffel, _negative_warp(calls), ENGINE, np.array([-0.5, 0.0])),
        WarpPositivityError, "warp"),
    "splitting_at": _critical_point_splitting,
    "dilation": _degenerate_pullback,
}


def _arrays(value) -> list:
    """The arrays of a memoized value: the value, or its dataclass's array fields."""
    fields = [value] if isinstance(value, np.ndarray) else vars(value).values()
    return [a for a in fields if isinstance(a, np.ndarray)]


def _bits(value) -> list:
    """The bytes of the value, or of each field of its dataclass."""
    fields = [value] if isinstance(value, np.ndarray) else vars(value).values()
    return [np.asarray(v).tobytes() for v in fields]


@pytest.mark.parametrize("row", ROWS)
def test_a_scoped_value_is_bit_identical_to_the_unscoped_one(rows, row):
    want = [_bits(call(COORDS)) for call in rows[row]]
    with evaluation_scope():
        for _ in range(2):  # the second round is served from the memo
            assert [_bits(call(COORDS)) for call in rows[row]] == want


@pytest.mark.parametrize("row", ROWS)
def test_a_memoized_value_is_shared_and_read_only(rows, row):
    call = rows[row][0]
    coords = COORDS.copy()
    with evaluation_scope():
        value = call(coords)
        assert call(COORDS.copy()) is value
    want = _bits(value)
    for a in _arrays(value):
        with pytest.raises(ValueError):
            a[0] = 1.0
    assert coords.flags.writeable
    coords[0] = 0.0  # the caller's array stays its own
    assert _bits(value) == want


@pytest.mark.parametrize("row", ROWS)
def test_each_owner_gets_its_own_entry_and_a_nested_scope_shares_the_memo(rows, row):
    call, other = rows[row]
    # only the check flag leaves the numbers as they are
    assert (_bits(call(COORDS)) == _bits(other(COORDS))) == (row == "metric_at")
    with evaluation_scope():
        outer = call(COORDS)
        assert other(COORDS) is not outer
        with evaluation_scope():
            assert call(COORDS) is outer
            inner = call(COORDS + 0.1)
        assert call(COORDS + 0.1) is inner


@pytest.mark.parametrize("row", ROWS)
def test_a_failing_call_raises_on_every_call(row):
    calls = []
    with evaluation_scope():
        fail, error, message = FAILING[row](calls)
        before = len(calls)
        for _ in range(3):
            with pytest.raises(error, match=message):
                fail()
    assert len(calls) == before + 3  # the error was never stored


@pytest.mark.parametrize("row", ROWS)
def test_the_memo_is_dropped_on_exit(rows, row):
    call = rows[row][0]
    assert call(COORDS) is not call(COORDS)
    with evaluation_scope():
        kept = call(COORDS)
    with pytest.raises(RuntimeError), evaluation_scope():
        aborted = call(COORDS)
        assert aborted is not kept
        raise RuntimeError("abort")
    assert call(COORDS) is not kept and call(COORDS) is not aborted
    with evaluation_scope():
        assert call(COORDS) is not kept and call(COORDS) is not aborted


# -- tensors, stencil points, point sets and Jacobians in a scope -------------


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


@pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
@pytest.mark.parametrize("n", [1, 65])
@pytest.mark.parametrize("kind", ["splittings_at", "dilations"])
def test_point_set_splittings_and_dilations_are_read_only(cws, kind, n, scoped):
    M = cws.ctx.map.source
    coords = [M.point(COORDS * (1.0 - 0.01 * k)) for k in range(n)]
    want = [c.copy() for c in coords]
    with evaluation_scope() if scoped else nullcontext():
        values = getattr(cws.ctx, kind)(coords)
    for value in values:
        for a in _arrays(value):
            with pytest.raises(ValueError):
                a[0] = 1.0
    for c, w, value in zip(coords, want, values):
        assert c.flags.writeable
        c[0] = 0.0  # the caller's array stays its own
        assert np.array_equal(value.coords, w)


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


# -- O'Neill tensors: one stencil pass for VF and HF -----------------------


def _two_pass_oneill(ctx, part, E, F, p):
    """The O'Neill tensor with VF and HF differentiated in separate passes."""
    M = ctx.map.source
    s = ctx.splitting_at(p)
    D = VectorField.constant(part(s, E(p)))
    d_vert = covariant_derivative(M, ctx.engine, D, ctx.vertical_field(F), p)
    d_horiz = covariant_derivative(M, ctx.engine, D, ctx.horizontal_field(F), p)
    return s.horizontal_part(d_vert) + s.vertical_part(d_horiz)


def _oneill_outputs(ctx, p, stacked):
    """A, T and the fiber mean curvature at p, stacked or from the reference."""
    M = ctx.map.source
    E, F = vector_field_library(M, np.random.default_rng(11), 2)
    basis = ctx.splitting_at(p).vertical
    if stacked:
        return [oneill_a(ctx, E, F, p), oneill_t(ctx, E, F, p), fiber_mean_curvature(ctx, basis, p)]
    acc = np.zeros(basis.shape[0])
    for column in basis.T:
        u = VectorField.constant(column)
        acc += _two_pass_oneill(ctx, Splitting.vertical_part, u, u, p)
    return [_two_pass_oneill(ctx, Splitting.horizontal_part, E, F, p),
            _two_pass_oneill(ctx, Splitting.vertical_part, E, F, p),
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
    E, F = vector_field_library(M, np.random.default_rng(3), 2)
    basis = ctx.splitting_at(p).vertical
    calls = []
    partials = DiffEngine.partials

    def counting(self, *args, **kwargs):
        calls.append(1)
        return partials(self, *args, **kwargs)

    with evaluation_scope():
        christoffel(M, ENGINE, p)  # the tensors read it from the memo
        monkeypatch.setattr(DiffEngine, "partials", counting)
        oneill_a(ctx, E, F, p)
        assert len(calls) == 1
        oneill_t(ctx, E, F, p)
        assert len(calls) == 2
        fiber_mean_curvature(ctx, basis, p)
        assert len(calls) == 2 + basis.shape[1]


# -- direction-contracted derivatives skip the zero components ---------------


def _contracted_outputs(objs, p):
    """nabla_X Y, [X, Y], A_X Y and T_X Y for generic and coordinate fields."""
    ctx = objs["ctx"]
    M, engine = ctx.map.source, ctx.engine
    fields = vector_field_library(M, np.random.default_rng(7), 2)
    fields += [VectorField.coordinate(M.dim, 0), VectorField.coordinate(M.dim, M.dim - 1)]
    out = []
    for X in fields:
        for Y in fields:
            out.append(covariant_derivative(M, engine, X, Y, p))
            out.append(lie_bracket(M, engine, X, Y, p))
            out.append(oneill_a(ctx, X, Y, p))
            out.append(oneill_t(ctx, X, Y, p))
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


# -- the stencil points of the O'Neill suites --------------------------------

# single-point misses (keyed by memo tag), then point-set kernel calls
KERNELS = ("splitting", "dilation", "_stacked_splittings", "_stacked_dilations")


def _count_kernels(monkeypatch) -> dict:
    """Counts from now on the splittings and dilations that ``splitting_at``
    and ``dilation``, or a point-set call of one point, compute on a memo
    miss, and the other calls of the stacked kernels; a single-point miss is
    a stack of one, and it counts only as a miss."""
    counts = dict.fromkeys(KERNELS, 0)
    single = [0]  # > 0 while a single-point miss is computed
    memoized_many = manifold._memoized_many

    def spy(owner, coords_seq, tag, compute_many):
        if tag not in KERNELS or len(coords_seq) != 1:  # a metric or a Christoffel entry, or a set
            return memoized_many(owner, coords_seq, tag, compute_many)

        def counted(missing):
            counts[tag] += 1
            single[0] += 1
            try:
                return compute_many(missing)
            finally:
                single[0] -= 1

        return memoized_many(owner, coords_seq, tag, counted)

    # a set of one point, as splitting_at and dilation are, and the redo of a
    # failing set's points one at a time
    for module in (manifold, submersion):
        monkeypatch.setattr(module, "_memoized_many", spy)
    for name in KERNELS[2:]:
        kernel = getattr(SubmersionContext, name)

        def stacked(self, coords_list, name=name, kernel=kernel):
            counts[name] += not single[0]
            return kernel(self, coords_list)

        monkeypatch.setattr(SubmersionContext, name, stacked)
    return counts


def _warped_line(n):
    objs = build_objects("warped-line", ENGINE)
    rng = np.random.default_rng(3)
    coords = rng.uniform(objs["sample_lower"], objs["sample_upper"], size=(n, 2))
    return objs["ctx"], [objs["ctx"].map.source.point(c) for c in coords]


# each O'Neill suite, and fiber_mean_curvature, at the points of a cws
ONEILL_CALLS = {
    "a_crossval_records": lambda cws, pts: a_crossval_records(
        cws.ctx, pts, np.random.default_rng(1)),
    "t_umbilicity_records": lambda cws, pts: t_umbilicity_records(
        cws.ctx, pts, np.random.default_rng(2)),
    "verify_first_factor_a_identity": lambda cws, pts: verify_first_factor_a_identity(
        cws, pts, horizontal_pairs(cws.ctx1, np.random.default_rng(3), 2)),
    "verify_second_factor_a_identity": lambda cws, pts: verify_second_factor_a_identity(
        cws, pts, horizontal_pairs(cws.ctx2, np.random.default_rng(4), 2)),
    "fiber_geometry_report": lambda cws, pts: fiber_geometry_report(cws, pts, True, False),
    "fiber_mean_curvature": lambda cws, pts: fiber_mean_curvature(
        cws.ctx, factor_vertical_bases(cws, pts[0])[1], pts[0]).tobytes(),
}


@pytest.mark.parametrize("name", ONEILL_CALLS)
def test_outside_a_scope_an_oneill_call_opens_its_own(name, monkeypatch):
    config = RunConfig(samples=3)
    objs = build_objects("cws-variable-dilation", config.engine())
    points = _points(objs, config)
    counts = _count_kernels(monkeypatch)

    def run():
        before = dict(counts)
        value = repr(ONEILL_CALLS[name](objs["cws"], points))
        return value, {k: counts[k] - before[k] for k in KERNELS}

    def scoped():
        with evaluation_scope():
            return run()

    (outside, outside_counts), (inside, inside_counts) = run(), scoped()
    assert outside == inside
    assert outside_counts == inside_counts
    # a suite walks its three points as a set, and fetches the splittings
    # and dilations of their stencil points as sets; fiber_mean_curvature
    # is a stack of one
    singles = outside_counts["splitting"] + outside_counts["dilation"]
    assert (singles == 0) == (name != "fiber_mean_curvature")


def _inject_rank_error(monkeypatch, bad: np.ndarray):
    """The Jacobian of every map is zero at the coordinates ``bad``, as the
    splitting kernel reads it: through ``SmoothMap.jacobians_at``."""
    jacobians_at = SmoothMap.jacobians_at

    def patched(self, coords_seq, engine):
        J = jacobians_at(self, coords_seq, engine)
        for i, c in enumerate(coords_seq):
            c = np.asarray(c, dtype=float)
            if c.shape == bad.shape and np.array_equal(c, bad):
                J[i] = 0.0
        return J

    monkeypatch.setattr(SmoothMap, "jacobians_at", patched)


# (scenario, sample, axis, the scenario aborts): a stencil point that the
# O'Neill suites use, and one on an axis that none of them differentiates
INJECTIONS = [
    ("warped-line", 3, 0, True),
    ("warped-line", 5, 1, True),
    ("cws-variable-dilation", 2, 3, True),
    ("cws-incompatible", 1, 3, True),
    ("cws-mixed-local", 4, 4, False),
]


@pytest.mark.parametrize("scenario, sample, axis, aborts", INJECTIONS)
def test_a_rank_error_at_one_stencil_point_aborts_only_a_scenario_that_reads_it(
    scenario, sample, axis, aborts, monkeypatch
):
    config = RunConfig(samples=6)
    objs = build_objects(scenario, config.engine())
    M = objs["ctx"].map.source
    point = _points(objs, config)[sample]
    bad = config.engine().stencil_points(point, M.lower, M.upper, (axis,))[0]
    _inject_rank_error(monkeypatch, bad)
    report = run_scenario(scenario, config).to_json()
    assert ("scenario aborted by RankError" in report) == aborts


def test_a_stencil_that_does_not_fit_on_a_skipped_axis_is_never_built(monkeypatch):
    # christoffel symbols need every axis at a suite's base point, so the
    # skipped axis is exercised on the tensor, with zero symbols: T along the
    # vertical axis 1
    ctx, _ = _warped_line(0)
    M = ctx.map.source
    p = M.point([float(M.lower[0]) + 1e-10, 0.3])  # no room along axis 0
    with pytest.raises(StencilError):
        ENGINE.stencil_points(p, M.lower, M.upper, (0,))
    u = VectorField.constant([0.0, 1.0])
    counts = _count_kernels(monkeypatch)
    with monkeypatch.context() as m, evaluation_scope():
        m.setattr(submersion, "christoffels",
                  lambda M, engine, coords: [np.zeros((2, 2, 2)) for _ in coords])
        t = oneill_t(ctx, u, u, p)
    # the base point and the two stencil points of axis 1 only
    assert np.isfinite(t).all() and counts["splitting"] == 3
    with evaluation_scope(), pytest.raises(StencilError):
        a_crossval_records(ctx, [p], np.random.default_rng(0))


def test_a_rank_error_on_an_axis_the_tensor_skips_is_never_read(monkeypatch):
    ctx, (p,) = _warped_line(1)
    M = ctx.map.source
    u = VectorField.constant([0.0, 1.0])  # T along the vertical axis 1 only
    want = oneill_t(ctx, u, u, p)
    _inject_rank_error(monkeypatch, ENGINE.stencil_points(p, M.lower, M.upper, (0,))[0])
    with evaluation_scope():
        assert oneill_t(ctx, u, u, p).tobytes() == want.tobytes()


def test_the_catalog_computes_no_single_point_splitting_or_dilation(monkeypatch):
    counts = _count_kernels(monkeypatch)
    for s in list_scenarios():
        run_scenario(s.scenario_id, RunConfig())
    # the O'Neill kernels' split forms fetch their stencil points' splittings
    # as sets, and the A formula's reciprocal dilation field's form the
    # dilations it differentiates
    assert counts["splitting"] == 0 and counts["dilation"] == 0
    assert counts["_stacked_splittings"] > 0 and counts["_stacked_dilations"] > 0


def test_the_catalog_computes_no_single_point_metric(monkeypatch):
    # the engine-health kernel's directional walk reads the metrics of its
    # stencil points through the point-set form of g(Y, Z), and a rescaled
    # chart reads r1 and its source metrics as sets
    calls = []
    metric_at = ChartManifold.metric_at

    def spy(self, coords, check=True):
        calls.append((self.name, check))
        return metric_at(self, coords, check)

    monkeypatch.setattr(ChartManifold, "metric_at", spy)
    for s in list_scenarios():
        run_scenario(s.scenario_id, RunConfig())
    assert calls == []


def test_the_catalog_computes_every_checked_metric_in_a_set(monkeypatch):
    # the verifiers read a block's checked metrics in one metrics_at call,
    # and the Christoffel and gradient kernels the ones they are not handed
    sizes = []
    stacked = ChartManifold._stacked_metrics

    def spy(self, coords_list, check):
        if check:
            sizes.append(len(coords_list))
        return stacked(self, coords_list, check)

    monkeypatch.setattr(ChartManifold, "_stacked_metrics", spy)
    for s in list_scenarios():
        run_scenario(s.scenario_id, RunConfig(seed=42))
    assert sizes and min(sizes) >= 2, sorted(sizes)
