"""The point-set calls as one contract table.

Each row of ``ROWS`` is a point-set call with its single-point call, clean
inputs from the catalog, failing inputs with the error that the loop of
single-point calls raises, and the shape of its rule. Four promises are
written once over every row: values and layouts equal the single-point
calls bit for bit, and a clean set of two or more is computed as a set; a
failing set raises the loop's error; each user callable is evaluated as
often as by the loop, and by a failing lone point once; an empty set returns
an empty stack of the rule's shape. A completeness test names each kernel
handed to ``manifold._point_set`` or ``manifold._memoized_many`` without a
row. The
other tests cover memo sharing, the stacked kernels' own errors,
``splitting_records``', the connection verifiers' and the O'Neill
verifiers' block residuals, the evaluations of a dilation-survey pass, of a
connection pass and of an O'Neill pass, that a stencil walk reads a
point-set form only when its kernel hands one over and hands a form that
takes owners the base point of each stencil point, and the numpy property
the stacked kernels rest on."""

import functools
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, fields, is_dataclass, replace
from types import SimpleNamespace
from typing import Callable

import numpy as np
import pytest

from boundary_maps import BOUNDARY_FAULTS, POINTS, bad_from_second_point
from warpgeo import (
    ChartManifold,
    ConformalityError,
    DegenerateMetricError,
    DiffEngine,
    DomainError,
    GeometryError,
    RankError,
    RunConfig,
    ScalarField,
    SmoothMap,
    StencilError,
    SubmersionContext,
    VectorField,
    WarpPositivityError,
    build_product_submersion,
    build_warped_product,
    christoffel,
    compatibility,
    compatibility_report,
    coordinate_submanifold_form,
    covariant_derivative,
    evaluation_scope,
    gradient,
    identity_map,
    lie_bracket,
    lift,
    second_fundamental_form,
)
from warpgeo import conformal_warped, connection, manifold, suites, warped
from warpgeo.connection import christoffels, metric_orthogonal_projector
from warpgeo.conformal_warped import (
    _factor_data,
    _positive_factor_data,
    second_factor_variant_fields,
)
from warpgeo.fd import SCHEMES, STENCILS
from warpgeo.fields import field_pairs, modulated, modulated_constants, vector_field_library
from warpgeo.manifold import PointFields, _stack, gradients, scalar_partials
from warpgeo.report import TOLERANCES, ResidualCheck, residual_scale
from warpgeo.sampling import sample_points
from warpgeo.scenarios import _compatibility_records, build_objects, list_scenarios, run_scenario
from warpgeo.submersion import (
    Splitting,
    _conformal_a_formulas,
    _gram_schmidt,
    _horizontal,
    _in_blocks,
    _inner,
    _inverse_lambda_sq_field,
    _oneills,
    _vertical,
    conformal_a_formula,
    oneill_a,
    oneill_t,
    vertical_gradient,
)
from warpgeo.suites import horizontal_pairs

SIZES = (0, 1, 64, 65)
N = max(SIZES)
ENGINE = DiffEngine()

STACKED_KERNEL = (
    "the point-set calls and the block residuals of suites.splitting_records, "
    "of the connection verifiers and of the O'Neill verifiers are only "
    "bit-identical to their single-point calls and walks while numpy's stacked "
    "calls equal its per-matrix calls"
)


def _scope(scoped: bool):
    return evaluation_scope() if scoped else nullcontext()


def _outcome(compute):
    """What ``compute`` returned, or the type, message, rank and singular
    values of what it raised."""
    try:
        return compute()
    except Exception as exc:
        singular_values = getattr(exc, "singular_values", None)
        return (type(exc), str(exc), getattr(exc, "rank", None),
                None if singular_values is None else singular_values.tolist())


def _same(a, b) -> None:
    """Asserts that ``a`` and ``b`` are one value, bit for bit and in the same
    layout, item by item through dataclasses, lists and tuples."""
    assert type(a) is type(b), (type(a), type(b))
    if isinstance(a, np.ndarray):
        assert (a.shape, a.dtype, a.strides) == (b.shape, b.dtype, b.strides)
        assert a.tobytes() == b.tobytes()
    elif is_dataclass(a):
        for f in fields(a):
            _same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _same(x, y)
    else:
        assert np.array(a).tobytes() == np.array(b).tobytes(), (a, b)


# -- clean inputs: the catalog contexts and a few charts and maps they lack


@functools.lru_cache(maxsize=None)
def _catalog(engine: DiffEngine) -> tuple:
    """``(contexts, products)``: ``(context, points)`` for every submersion
    context of the catalog (the scenario maps, the FD-Jacobian map and both
    factor maps of each product) and ``(product, points)`` for every
    conformal product, at N sample points each."""
    contexts, products = [], []
    for scenario in list_scenarios():
        objs = build_objects(scenario.scenario_id, engine)
        coords = sample_points(objs["sample_lower"], objs["sample_upper"], N, 11,
                               4.0 * engine.step)
        for key in ("ctx", "ctx_fd"):
            if key in objs:
                ctx = objs[key]
                contexts.append((ctx, [ctx.map.source.point(c) for c in coords]))
        cws = objs.get("cws")
        if cws is not None:
            products.append((cws, [cws.source.ambient.point(c) for c in coords]))
            halves = [cws.source.split_coords(c) for c in coords]
            for ctx, k in ((cws.ctx1, 0), (cws.ctx2, 1)):
                contexts.append((ctx, [ctx.map.source.point(h[k]) for h in halves]))
    assert any(ctx.map.jac is None for ctx, _ in contexts)  # an FD Jacobian
    assert any(ctx.map.source.dim == ctx.map.target.dim for ctx, _ in contexts)  # no fiber
    return contexts, products


def _sampled(M: ChartManifold, seed: int) -> list:
    return [M.point(c) for c in sample_points(M.lower, M.upper, N, seed, 1e-3)]


def _charts(engine) -> list:
    """``(chart, points)`` for ``metrics_at``: every source and target chart
    of the catalog, a target at its source's images, and two charts whose
    metrics are not symmetric, as the catalog's are: a plain one and the
    ambient chart of a warped product with a warp that is not 1."""
    charts = {}
    for ctx, points in _catalog(engine)[0]:
        charts.setdefault(id(ctx.map.source), (ctx.map.source, points))
        charts.setdefault(id(ctx.map.target), (ctx.map.target, list(ctx.map.images(points))))
    plain = ChartManifold(2, -1.0, 1.0, lambda c: np.array([[1.0, c[0]], [0.1 * c[1], 1.0]]))
    second = ChartManifold(2, -1.0, 1.0,
                           lambda c: np.array([[1.0, 0.2 * c[0] ** 2], [-0.1, 1.0 + c[1] ** 2]]))
    W = build_warped_product(plain, second, ScalarField(lambda c: np.exp(0.4 * c[0] - c[1])))
    out = list(charts.values()) + [(M, _sampled(M, 9)) for M in (plain, W.ambient)]
    # warped ambient charts: 3 warped scenarios, 5 products' two, and W
    assert sum(hasattr(M.metric, "_stack") for M, _ in out) == 3 + 2 * 5 + 1
    # W's warp reaches its second block, and each block's asymmetry is symmetrized
    g = W.ambient.metrics_at(out[-1][1][:2])[0]
    assert g[2, 3] == g[3, 2] != 0.0 and g[0, 1] == g[1, 0] != 0.0
    return out


def _checked_charts(engine) -> list:
    """``(chart, points)`` for ``metrics_at(check=True)``: the catalog charts
    of ``_charts``, whose metrics are positive definite, a chart whose
    metric is not symmetric by less than ``SYM_TOL``, and the ambient chart
    of its warped product with a warp that is not 1."""
    near = ChartManifold(2, -1.0, 1.0, lambda c: np.array([[2.0 + c[0], 0.3 + 1e-12 * c[1]],
                                                           [0.3, 1.5 + c[1] ** 2]]))
    W = build_warped_product(near, near, ScalarField(lambda c: np.exp(0.4 * c[0] - c[1])))
    return _charts(engine)[:-2] + [(M, _sampled(M, 9)) for M in (near, W.ambient)]


def _maps(engine) -> list:
    """``(context, points)`` for ``images`` and ``jacobians_at``: the
    catalog's; FD maps with each third point 3e-6 from a wall, where the
    stencil shrinks; a product of FD factors; and maps that the fast path
    pads by the single-point shape rule (scalar, row and list values)."""
    out = list(_catalog(engine)[0])
    spiral = build_objects("exp-spiral-r4", engine)
    M = ChartManifold.euclidean(3, -1.0, 1.0)
    plane = SmoothMap(M, ChartManifold.euclidean(2),
                      lambda c: np.array([np.sin(c[0]) * c[1], c[2] ** 3 - c[0]]))
    line = SmoothMap(M, ChartManifold.euclidean(1), lambda c: float(c[0] * np.exp(c[1] + c[2])))
    rng = np.random.default_rng(17)
    for F, low, high in ((spiral["ctx_fd"].map, spiral["sample_lower"], spiral["sample_upper"]),
                         (plane, M.lower, M.upper), (line, M.lower, M.upper)):
        coords = sample_points(low, high, N, 17, 1e-3)
        for i in range(0, len(coords), 3):
            axis = rng.integers(F.source.dim)
            wall = F.source.upper[axis] if i % 2 else F.source.lower[axis]
            coords[i, axis] = wall - np.sign(wall) * 3e-6
        out.append((SubmersionContext(F, engine), [F.source.point(c) for c in coords]))
    M1, M2 = ChartManifold.euclidean(2, -2.0, 2.0), ChartManifold.euclidean(1, -2.0, 2.0)
    phi1 = SmoothMap(M1, ChartManifold.euclidean(1, [-9], [9]),
                     lambda c: np.array([np.sin(c[0]) + c[1]]))
    unit = ScalarField.constant(1.0)
    ctx = build_product_submersion(phi1, unit, SmoothMap(M2, M2, lambda c: 0.5 * c), unit, unit,
                                   unit, engine).ctx
    out.append((ctx, _sampled(ctx.map.source, 13)))
    for jac, (m, n) in (((lambda c: 2.0 * c[0]), (1, 1)),
                        ((lambda c: np.array([c[1], 2.0 * c[0]])), (1, 2)),
                        ((lambda c: [[1, c[0]], [0, 2]]), (2, 2))):
        M = ChartManifold.euclidean(n, -1.0, 1.0)
        fn = (lambda c: float(np.sum(c))) if m == 1 else (lambda c: c[:2])
        out.append((SubmersionContext(SmoothMap(M, ChartManifold.euclidean(m), fn, jac), engine),
                    _sampled(M, 5)))
    return out


# -- failing inputs: a builder returns the row's object and its point sets


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
    N1 = ChartManifold(1, [-5], [5], lambda y: np.array([[0.0 if y[0] == 0.25 else 1.0]]))
    return M, SubmersionContext(SmoothMap(M, N1, fn, jac), DiffEngine())


GUARDED_ORDERS = {
    "rank-deficient-first": [[0.2, 0.1], [0.0, 0.0], [0.5, 0.3], [0.3, 0.4]],
    "raising-map-first": [[0.2, 0.1], [0.5, 0.3], [0.0, 0.0], [0.3, 0.4]],
    "degenerate-pullback-first": [[0.2, 0.1], [0.0, 0.5], [0.0, 0.0], [0.3, 0.4]],
    "non-finite-metric-first": [[0.2, 0.1], [-0.6, 0.3], [-0.7, 0.2], [0.3, 0.4]],
    "non-finite-jacobian-first": [[0.2, 0.1], [-0.7, 0.2], [-0.6, 0.3], [0.3, 0.4]],
}


def _guarded(order: str) -> tuple:
    M, ctx = _guarded_map([])
    return ctx, [[M.point(c) for c in GUARDED_ORDERS[order]]]


def _boundary_fault(fault: str) -> tuple:
    """``bad_from_second_point`` with ``fault``, at POINTS, from the bad point, at it alone."""
    datum, bad, _ = BOUNDARY_FAULTS[fault]
    return bad_from_second_point(**{datum: bad}), [POINTS, POINTS[1:], POINTS[1:2]]


def _product_bad_from_second_point(datum: str, fault, start: float = 0.2):
    """The product of (x, y) |-> x on (-1, 1)^2 and the identity of (-1, 1),
    with warps e^{x/4} and e^{u/4}, whose first factor's ``datum`` ("metric",
    "jac", "fn" or the warp "f") is ``fault`` of its good value from
    x = ``start`` on."""
    def good_then(name, good):
        return good if name != datum else (lambda c: good(c) if c[0] < start else fault(good(c)))

    M1 = ChartManifold(2, -1.0, 1.0, good_then("metric", lambda c: np.eye(2)))
    N1 = ChartManifold.euclidean(1, -1.0, 1.0)
    phi1 = SmoothMap(M1, N1, good_then("fn", lambda c: c[:1]),
                     good_then("jac", lambda c: np.array([[1.0, 0.0]])))
    M2 = ChartManifold.euclidean(1, -1.0, 1.0)
    unit = ScalarField.constant(1.0)
    f = ScalarField(good_then("f", lambda c: float(np.exp(c[0] / 4.0))))
    rho = ScalarField(lambda y: float(np.exp(y[0] / 4.0)))
    return build_product_submersion(phi1, unit, identity_map(M2), unit, f, rho, ENGINE)


# fault -> (datum, its value from x = 0.2 on, the error at [0.3 0.4 0.5])
PRODUCT_FAULTS = {
    "metric-shape": ("metric", lambda g: np.stack([g, g]),
                     (DegenerateMetricError, "metric returned shape (2, 2, 2) at [0.3 0.4]")),
    "jacobian-shape": ("jac", lambda J: J.T, (
        RankError, "Jacobian of shape (2, 1) at [0.3 0.4], expected (1, 2)")),
    "nan-warp": ("f", lambda v: np.nan, (
        WarpPositivityError, "warp nan is not in (0, inf) at first-factor point [0.3 0.4]")),
    "inf-warp": ("f", lambda v: np.inf, (
        WarpPositivityError, "warp inf is not in (0, inf) at first-factor point [0.3 0.4]")),
    "nan-image": ("fn", lambda y: np.array([np.nan]), (
        DomainError, "image [nan 0.5] of [0.3 0.4 0.5] outside target domain")),
    "nan-jacobian": ("jac", lambda J: J * np.nan,
                     (RankError, "Jacobian not finite at [0.3 0.4 0.5]")),
    "image-outside-box": ("fn", lambda y: y + 5.0, (
        DomainError, "image [5.3 0.5] of [0.3 0.4 0.5] outside target domain")),
}
PRODUCT_POINTS = [np.array([0.1, 0.2, 0.3]), np.array([0.3, 0.4, 0.5]),
                  np.array([0.5, 0.6, -0.2])]


def _product_fault(fault: str) -> tuple:
    ctx = _product_bad_from_second_point(*PRODUCT_FAULTS[fault][:2]).ctx
    return ctx, [PRODUCT_POINTS, PRODUCT_POINTS[1:]]


def _product_source_fault(fault: str) -> tuple:
    ctx, sets = _product_fault(fault)
    return ctx.map.source, sets


def _metric_of_the_wrong_shape() -> tuple:
    N1 = ChartManifold(1, [-5], [5], lambda y: np.eye(1) if y[0] < 1.0 else np.ones(1))
    good, bad = N1.point([0.5]), N1.point([2.0])
    return N1, [[bad, bad], [good, bad, good], [bad]]


def _checked_metric_faults() -> ChartManifold:
    """The ambient chart of a product of (-1, 1)^2 and (-1, 1) whose first
    factor's metric is not positive definite at x > 0.6, not finite at
    x < -0.6 and not symmetric at 0.3 < x < 0.4, and whose warp is NaN at
    y > 0.6."""
    def metric(c):
        if c[0] > 0.6:
            return -np.eye(2)
        if c[0] < -0.6:
            return np.eye(2) * np.nan
        return np.array([[1.0, 0.5], [0.0, 1.0]]) if 0.3 < c[0] < 0.4 else np.eye(2)

    warp = ScalarField(lambda c: np.nan if c[1] > 0.6 else float(np.exp(c[0] / 4.0)))
    return build_warped_product(ChartManifold(2, -1.0, 1.0, metric),
                                ChartManifold.euclidean(1, -1.0, 1.0), warp).ambient


NON_PD, BAD_WARP = [0.7, 0.1, 0.1], [0.1, 0.7, 0.1]
NON_FINITE, ASYMMETRIC = [-0.7, 0.1, 0.1], [0.35, 0.1, 0.1]
# order -> (points after a good one, the error the loop of checked metrics raises)
CHECKED_ORDERS = {
    "non-pd-before-bad-warp": ([NON_PD, BAD_WARP], (
        DegenerateMetricError, "metric not positive definite at [0.7 0.1 0.1]: min eigenvalue "
                               "-1.000e+00")),
    "bad-warp-before-non-pd": ([BAD_WARP, NON_PD], (
        WarpPositivityError, "warp nan is not in (0, inf) at first-factor point [0.1 0.7]")),
    "non-pd-before-non-finite": ([NON_PD, NON_FINITE], (
        DegenerateMetricError, "metric not positive definite at [0.7 0.1 0.1]: min eigenvalue "
                               "-1.000e+00")),
    "non-finite-before-non-pd": ([NON_FINITE, NON_PD], (
        DegenerateMetricError, "metric not finite at [-0.7  0.1  0.1]")),
    "non-pd-before-asymmetric": ([NON_PD, ASYMMETRIC], (
        DegenerateMetricError, "metric not positive definite at [0.7 0.1 0.1]: min eigenvalue "
                               "-1.000e+00")),
    "asymmetric-before-non-pd": ([ASYMMETRIC, NON_PD], (
        DegenerateMetricError, "metric not symmetric at [0.35 0.1  0.1 ]")),
}


def _checked_order(order: str) -> tuple:
    """``_checked_metric_faults``' chart at a good point and the two of
    ``order``, and from the first of them."""
    M = _checked_metric_faults()
    points = [M.point(c) for c in [[0.1, 0.1, 0.1]] + CHECKED_ORDERS[order][0]]
    return M, [points, points[1:]]


def _stencil_off_the_box() -> tuple:
    """An FD map at a point 1e-11 from a wall, where no stencil fits."""
    M = ChartManifold.euclidean(2, -1.0, 1.0)
    F = SmoothMap(M, ChartManifold.euclidean(1), lambda c: c[:1] * c[1])
    good, tight = M.point([0.1, 0.2]), M.point([0.3, 1.0 - 1e-11])
    return SubmersionContext(F, ENGINE), [[tight], [good, tight], [good, tight, tight, good]]


def _image_rule_at_a_stencil_point() -> tuple:
    """An FD map whose images have shape (2,), not (1,), from x = 0.2 on. An
    FD Jacobian differentiates the checked image, so the first stencil point
    of [0.3 0.4] raises the image's DomainError, not a Jacobian shape error."""
    M = ChartManifold.euclidean(2, -1.0, 1.0)
    F = SmoothMap(M, ChartManifold.euclidean(1), lambda c: c[:1] if c[0] < 0.2 else c)
    points = [M.point(c) for c in ([0.1, 0.2], [0.3, 0.4], [0.5, 0.6])]
    return SubmersionContext(F, ENGINE), [points, points[1:]]


def _target_metric_before_a_failing_image() -> tuple:
    """(x, y) -> x, whose map raises at x = 0.5 and whose target metric raises
    at the image 0.25; the dilation kernel computes every image before it
    reads a target metric."""
    def fn(c):
        if c[0] == 0.5:
            raise ValueError(f"map undefined at {c}")
        return c[:1]

    def target_metric(y):
        if y[0] == 0.25:
            raise ValueError(f"target metric undefined at {y}")
        return np.eye(1)

    M, N1 = ChartManifold.euclidean(2, -1.0, 1.0), ChartManifold(1, [-5], [5], target_metric)
    F = SmoothMap(M, N1, fn, lambda c: np.array([[1.0, 0.0]]))
    return SubmersionContext(F, ENGINE), [[M.point(c) for c in ([0.1, 0.2], [0.25, 0.3],
                                                                 [0.5, 0.1], [0.3, 0.4])]]


def _failing_factor_data():
    """A product of the identities of (-1, 1)^2 and (-1, 1), except that
    phi1's target is (-0.65, 1) x (-1, 1), whose data fail in these regions
    of (x, y, z): lambda1 = 0 at x > 0.6, lambda2 = -1 at z > 0.6, f = NaN at
    y > 0.6, phi1 leaves its target at x < -0.65 and raises at x < -0.9,
    rho = 0 at y < -0.6, and f = 1e-170 at 0.4 < y < 0.5, so that f^2 is
    zero; lambda1 = 1e200 at 0.4 < x < 0.5 and lambda2 = 1e200 at
    0.4 < z < 0.5 overflow r1 and r2 to a NaN residual."""
    def phi1_fn(c):
        if c[0] < -0.9:
            raise ValueError(f"phi1 undefined at {c}")
        return c

    M1 = ChartManifold.euclidean(2, -1.0, 1.0)
    N1 = ChartManifold.euclidean(2, [-0.65, -1.0], [1.0, 1.0])
    phi1 = SmoothMap(M1, N1, phi1_fn, lambda c: np.eye(2))
    M2 = ChartManifold.euclidean(1, -1.0, 1.0)
    lambda1 = ScalarField(lambda c: 0.0 if c[0] > 0.6 else 1e200 if 0.4 < c[0] < 0.5 else 1.0)
    lambda2 = ScalarField(lambda c: -1.0 if c[0] > 0.6 else 1e200 if 0.4 < c[0] < 0.5 else 1.0)
    f = ScalarField(lambda c: np.nan if c[1] > 0.6 else 1e-170 if 0.4 < c[1] < 0.5 else 1.0)
    rho = ScalarField(lambda y: 0.0 if y[1] < -0.6 else 1.0)
    return build_product_submersion(phi1, lambda1, identity_map(M2), lambda2, f, rho, ENGINE)


# order -> (points, the error the loop raises)
FACTOR_ORDERS = {
    "lambda1-before-lambda2": ([[0.1, 0.1, 0.1], [0.7, 0.1, 0.7], [0.1, 0.7, 0.7]],
                               (WarpPositivityError, "lambda1 = 0.0 <= 0 at [0.7 0.1 0.7]")),
    "lambda2-before-warp": ([[0.1, 0.1, 0.1], [0.1, 0.7, 0.7], [0.7, 0.1, 0.7]],
                            (WarpPositivityError, "lambda2 = -1.0 <= 0 at [0.1 0.7 0.7]")),
    "warp-before-image": ([[0.1, 0.7, 0.1], [-0.7, -0.7, 0.1]],
                          (WarpPositivityError, "source warp = nan <= 0 at [0.1 0.7 0.1]")),
    "image-before-rho": ([[-0.7, -0.7, 0.1], [0.1, 0.7, 0.1]], (
        DomainError, "image [-0.7 -0.7] of [-0.7 -0.7] outside target domain")),
    "raising-image": ([[0.1, 0.1, 0.1], [-0.95, 0.1, 0.1]],
                      (ValueError, "phi1 undefined at [-0.95  0.1 ]")),
    "rho-first": ([[0.1, -0.7, 0.1], [0.7, 0.1, 0.1]],
                  (WarpPositivityError, "target warp = 0.0 <= 0 at [ 0.1 -0.7  0.1]")),
    # not a ZeroDivisionError
    "zero-warp-squared": ([[0.1, 0.1, 0.1], [0.1, 0.45, 0.1], [0.2, 0.2, 0.2]], (
        WarpPositivityError, "source warp = 1e-170 squares to 0 at [0.1  0.45 0.1 ]")),
    # r1 and r2 overflow to inf, and the loop returns a NaN residual
    "nan-residual": ([[0.1, 0.1, 0.1], [0.45, 0.1, 0.45], [0.2, 0.2, 0.2]], None),
}
FACTOR_ERRORS = {order: error for order, (_, error) in FACTOR_ORDERS.items()}


def _factor_fault(order: str) -> tuple:
    cws = _failing_factor_data()
    return cws, [[cws.source.ambient.point(c) for c in FACTOR_ORDERS[order][0]]]


def _each(family, errors: dict) -> dict:
    """``{id: (build, error)}`` of ``family(key)`` for each ``key: error``."""
    name = family.__name__.strip("_").replace("_", "-")
    return {f"{name}-{key}": (functools.partial(family, key), error)
            for key, error in errors.items()}


def _errors(faults: dict, *data) -> dict:
    """``{fault: error}`` of the ``faults`` that replace one of ``data``."""
    return {fault: error for fault, (datum, _, error) in faults.items() if datum in data}


def _factor_row(cws, p) -> np.ndarray:
    """``_factor_data`` at one point on Python floats: ``_positive_factor_data``,
    then r1 and r2 in the kernel's operand order."""
    l1, l2, f, rho = _positive_factor_data(cws, p)
    return np.array([l1, l2, f, rho, l1 * l1, (rho * rho) * (l2 * l2) / (f * f)])


# -- connection inputs: the catalog's warped products with seeded fields


@dataclass(frozen=True)
class Fields:
    """The inputs of a connection verifier besides its points: a warped
    product ``W`` with field pairs on its factors, or a chart ``M`` with the
    three fields of the engine-health checks."""

    engine: DiffEngine
    W: object = None
    pairs1: tuple = ()
    pairs2: tuple = ()
    M: object = None
    fields: tuple = ()


WARPED_SCENARIOS = ("warped-line", "sphere-warped", "product-plain")


def _warped_fields(W, engine) -> Fields:
    rng = np.random.default_rng(5)
    return Fields(engine, W, tuple(field_pairs(W.first, rng, 3)),
                  tuple(field_pairs(W.second, rng, 3)))


def _chart_fields(M, engine) -> Fields:
    return Fields(engine, M=M, fields=tuple(vector_field_library(M, np.random.default_rng(5), 3)))


@functools.lru_cache(maxsize=None)
def _warped_inputs(engine: DiffEngine) -> list:
    """``(fields, points)`` of the catalog's warped products, at N points each."""
    out = []
    for scenario in WARPED_SCENARIOS:
        objs = build_objects(scenario, engine)
        W = objs["warped"]
        coords = sample_points(objs["sample_lower"], objs["sample_upper"], N, 11,
                               4.0 * engine.step)
        out.append((_warped_fields(W, engine), [W.ambient.point(c) for c in coords]))
    return out


def _chart_inputs(engine: DiffEngine) -> list:
    """``(fields, points)`` of the warped ambient charts and of the sources of
    exp-spiral-r4 and cws-variable-dilation, at N points each."""
    out = [(_chart_fields(f.W.ambient, engine), points) for f, points in _warped_inputs(engine)]
    for scenario in ("exp-spiral-r4", "cws-variable-dilation"):
        objs = build_objects(scenario, engine)
        M = objs["ctx"].map.source
        coords = sample_points(objs["sample_lower"], objs["sample_upper"], N, 11,
                               4.0 * engine.step)
        out.append((_chart_fields(M, engine), [M.point(c) for c in coords]))
    return out


# fault -> its value of a chart metric from x = 0.2 on, and the error at
# [0.3 0.4] of a checked metric
METRIC_FAULTS = {
    "non-finite-metric": (lambda c: np.eye(2) * np.nan,
                          (DegenerateMetricError, "metric not finite at [0.3 0.4]")),
    "non-spd-metric": (lambda c: -np.eye(2), (
        DegenerateMetricError, "metric not positive definite at [0.3 0.4]: min eigenvalue "
                               "-1.000e+00")),
    "metric-shape": (lambda c: np.eye(3),
                     (DegenerateMetricError, "metric returned shape (3, 3) at [0.3 0.4]")),
}


def _metric_fault(fault: str) -> tuple:
    """``bad_from_second_point`` with the source metric ``fault``, at POINTS,
    from the bad point, at it alone."""
    return bad_from_second_point(metric=METRIC_FAULTS[fault][0]), [POINTS, POINTS[1:], POINTS[1:2]]


def _warped_fault(fault: str) -> tuple:
    """The source of ``_product_bad_from_second_point`` with ``fault``, and
    its field pairs, at PRODUCT_POINTS and from the bad point."""
    W = _product_bad_from_second_point(*PRODUCT_FAULTS[fault][:2]).source
    return _warped_fields(W, ENGINE), [PRODUCT_POINTS, PRODUCT_POINTS[1:]]


def _warped_stencil_off_the_box() -> tuple:
    """The plane as the product of two lines, at a point 1e-11 from a wall of
    its first axis. (A lone point's loop differentiates axis by axis, and
    each stencil point along the first axis reads the second factor's metric
    at the same point, so a wall of the second axis would count that
    metric once per stencil point before the error.)"""
    line = ChartManifold.euclidean(1, -1.0, 1.0)
    W = build_warped_product(line, line, ScalarField.constant(1.0))
    good, tight = W.ambient.point([0.1, 0.2]), W.ambient.point([1.0 - 1e-11, 0.3])
    return _warped_fields(W, ENGINE), [[tight], [good, tight, good]]


def _chart_fault(fault: str) -> tuple:
    """``_metric_fault``'s chart and sets, with the engine-health fields."""
    ctx, sets = _metric_fault(fault) if fault in METRIC_FAULTS else _stencil_off_the_box()
    return _chart_fields(ctx.map.source, ENGINE), sets


def _connection_rule(f: Fields) -> tuple:
    return (len(f.pairs1) + min(len(f.pairs1), len(f.pairs2)) + 2 * len(f.pairs2), 2)


# -- O'Neill inputs: catalog contexts and products with seeded fields


@dataclass(frozen=True)
class Tensor:
    """The inputs of an O'Neill call besides its points: a context ``ctx``
    with fields ``E`` and ``F`` and the ``part`` of E to differentiate
    along (``_horizontal`` for A, ``_vertical`` for T), or with horizontal
    field ``pairs``; or a conformal product ``cws`` with one factor's
    horizontal field ``pairs``. An ``extension`` (``EXTENSIONS``) puts in
    the place of E and F the fields of each point that extend their values
    there."""

    ctx: object = None
    part: object = None
    E: object = None
    F: object = None
    pairs: tuple = ()
    cws: object = None
    extension: str = ""


def _oneill(t: Tensor, p):
    """``oneill_a`` or ``oneill_t`` at p, as ``t.part`` says."""
    return (oneill_a if t.part is _horizontal else oneill_t)(t.ctx, t.E, t.F, p)


def _with_fields(ctx, part=_horizontal) -> Tensor:
    E, F = field_pairs(ctx.map.source, np.random.default_rng(5), 1)[0]
    return Tensor(ctx, part, E, F)


def _with_pairs(ctx) -> Tensor:
    return Tensor(ctx, pairs=tuple(horizontal_pairs(ctx, np.random.default_rng(5), 2)))


def _first_pairs(cws) -> Tensor:
    return Tensor(pairs=tuple(horizontal_pairs(cws.ctx1, np.random.default_rng(5), 2)), cws=cws)


def _second_pairs(cws) -> Tensor:
    return Tensor(pairs=tuple(horizontal_pairs(cws.ctx2, np.random.default_rng(5), 2)), cws=cws)


# the O'Neill rows split fields and differentiate dilations at every stencil
# point, so their clean sets hold fewer points than N: still sets of two or
# more, at about a second a case
ONEILL_POINTS = 9


@functools.lru_cache(maxsize=None)
def _oneill_inputs(engine: DiffEngine) -> tuple:
    """``(contexts, products)`` at ``ONEILL_POINTS`` points each: the
    contexts of warped-line, exp-spiral-r4 and cws-variable-dilation, the
    first factor of cws-variable-dilation and the second of cws-mixed-local
    (which has no fiber); the products cws-variable-dilation and
    cws-mixed-local."""
    contexts, products = [], []
    for scenario in ("warped-line", "exp-spiral-r4", "cws-variable-dilation", "cws-mixed-local"):
        objs = build_objects(scenario, engine)
        coords = sample_points(objs["sample_lower"], objs["sample_upper"], ONEILL_POINTS, 11,
                               4.0 * engine.step)
        cws = objs.get("cws")
        if scenario != "cws-mixed-local":
            ctx = objs["ctx"]
            contexts.append((ctx, [ctx.map.source.point(c) for c in coords]))
        if cws is not None:
            products.append((cws, [cws.source.ambient.point(c) for c in coords]))
            ctx, k = (cws.ctx1, 0) if scenario == "cws-variable-dilation" else (cws.ctx2, 1)
            contexts.append((ctx, [ctx.map.source.point(cws.source.split_coords(c)[k])
                                   for c in coords]))
    assert any(ctx.map.source.dim == ctx.map.target.dim for ctx, _ in contexts)  # no fiber
    return contexts, products


def _tensors(engine) -> list:
    """``(tensor, points)``: A and T of fixed fields on each O'Neill context."""
    return [(_with_fields(ctx, part), points) for ctx, points in _oneill_inputs(engine)[0]
            for part in (_horizontal, _vertical)]


def _conformal_inputs(engine, tensor, count=4) -> list:
    """``(tensor(ctx), points)`` on the last ``count`` O'Neill contexts that
    are conformal at every point, as the formula requires: all but the
    fiberless factor (cws-variable-dilation's product and first factor are
    the last two)."""
    conformal = [(ctx, points) for ctx, points in _oneill_inputs(engine)[0]
                 if ctx.map.source.dim > ctx.map.target.dim]
    return [(tensor(ctx), points) for ctx, points in conformal[-count:]]


def _product_inputs(engine, tensor) -> list:
    return [(tensor(cws), points) for cws, points in _oneill_inputs(engine)[1]]


def _gradient_inputs(engine) -> list:
    """``(fields, points)`` for ``gradients``: the log-warp, with analytic
    partials, on each warped ambient chart, an FD field on each of them and
    on the spiral's source, and the reciprocal dilation field of each
    conformal O'Neill context, whose point-set form the walk is handed."""
    def wave(M):
        w = np.linspace(0.3, 0.9, M.dim)
        return ScalarField(lambda c: float(np.sin(w @ c)))

    out = []
    for f, points in _warped_inputs(engine):
        M = f.W.ambient
        out += [(Fields(engine, M=M, fields=(f.W.log_warp(),)), points),
                (Fields(engine, M=M, fields=(wave(M),)), points)]
    ctx, points = _oneill_inputs(engine)[0][1]  # exp-spiral-r4
    out.append((Fields(engine, M=ctx.map.source, fields=(wave(ctx.map.source),)), points))
    return out + [(Fields(engine, M=ctx.map.source, fields=(_inverse_lambda_sq_field(ctx),)),
                   points) for ctx, points in _conformal_inputs(engine, lambda ctx: ctx)]


def _off_the_box() -> tuple:
    """``_guarded_map``'s context at a point off its box, after a good point."""
    M, ctx = _guarded_map([])
    good, off = M.point([0.2, 0.1]), np.array([0.3, 1.5])
    return ctx, [[good, off], [off], [good, off, good]]


def _gradient_fault(fault: str) -> tuple:
    """``_metric_fault``'s chart and sets, or those of a stencil off the box,
    with an FD scalar field."""
    ctx, sets = _metric_fault(fault) if fault in METRIC_FAULTS else _stencil_off_the_box()
    phi = ScalarField(lambda c: float(c[0] * c[1] + c[1]))
    return Fields(ENGINE, M=ctx.map.source, fields=(phi,)), sets


def _as(tensor, family):
    """``family``, a builder of ``(obj, point sets)``, with ``tensor(obj)`` in
    place of its object, under the family's name."""
    def build(*key):
        obj, sets = family(*key)
        return tensor(obj), sets
    build.__name__ = family.__name__
    return build


def _product_cws_fault(fault: str) -> tuple:
    """``_product_fault``'s product itself, and its sets."""
    return (_product_bad_from_second_point(*PRODUCT_FAULTS[fault][:2]),
            [PRODUCT_POINTS, PRODUCT_POINTS[1:]])


# -- per-point fields: the extensions of each point's own vectors

# name -> (the fields of a set from the vectors V at its coordinates, the
# field of one point p from its vector v), each modulated along ``axis``
EXTENSIONS = {
    "constant": (lambda ctx, V, coords, axis: PointFields.constant(V),
                 lambda ctx, v, p, axis: VectorField.constant(v)),
    "horizontal-constant": (
        lambda ctx, V, coords, axis: ctx.horizontal_field(PointFields.constant(V)),
        lambda ctx, v, p, axis: ctx.horizontal_field(VectorField.constant(v))),
    "horizontal-modulated": (
        lambda ctx, V, coords, axis: ctx.horizontal_field(modulated_constants(V, axis, coords)),
        lambda ctx, v, p, axis: ctx.horizontal_field(modulated(VectorField.constant(v), axis, p))),
}


def _extended_set(t: Tensor, points):
    """``_oneills`` at ``points`` on the fields of each point that extend E's
    and F's values there, E's modulated along the first axis and F's along
    the last, as ``a_crossval_records``' are."""
    dim = t.ctx.map.source.dim
    coords = np.array(points, dtype=float).reshape(len(points), dim)
    extend = EXTENSIONS[t.extension][0]
    return _oneills(t.ctx, t.part, extend(t.ctx, t.E.values_at(coords), coords, 0),
                    extend(t.ctx, t.F.values_at(coords), coords, dim - 1), points)


def _extended_one(t: Tensor, p):
    """``oneill_a`` or ``oneill_t`` at p on the fields of p alone that extend
    E's and F's values there."""
    extend = EXTENSIONS[t.extension][1]
    return _oneill(replace(t, E=extend(t.ctx, t.E(p), p, 0),
                           F=extend(t.ctx, t.F(p), p, t.ctx.map.source.dim - 1)), p)


def _extended(extension: str, part=_horizontal):
    """A builder of the tensor of ``extension`` on a context."""
    def build(ctx) -> Tensor:
        return replace(_with_fields(ctx, part), extension=extension)
    return build


def _extended_tensors(engine) -> list:
    """``(tensor, points)``: on each O'Neill context, T of constant
    extensions, as the umbilicity and fiber suites take it, and A of
    horizontal constant and modulated extensions, as the A
    cross-validation does."""
    kinds = ((_vertical, "constant"), (_horizontal, "horizontal-constant"),
             (_horizontal, "horizontal-modulated"))
    return [(_extended(extension, part)(ctx), points)
            for ctx, points in _oneill_inputs(engine)[0] for part, extension in kinds]


def _with_draws(ctx, points: list) -> list:
    """Each point followed by its draws of ``t_umbilicity_records``, from a
    seeded generator: the samples of ``suites._umbilicity_rows``."""
    nv = max(ctx.map.source.dim - ctx.map.target.dim, 0)
    draws = np.random.default_rng(5).uniform(-1.0, 1.0, size=(len(points), 4 * nv))
    return [np.concatenate([p, d]) for p, d in zip(points, draws)]


def _umbilicity_samples(engine) -> list:
    return [(Tensor(ctx), _with_draws(ctx, points)) for ctx, points in _oneill_inputs(engine)[0]]


def _umbilicity_fault(order: str) -> tuple:
    """``_guarded``'s context and sets, with their draws."""
    ctx, sets = _guarded(order)
    return Tensor(ctx), [_with_draws(ctx, points) for points in sets]


def _umbilicity_rule(t: Tensor) -> tuple:
    return (2 if t.ctx.map.source.dim > t.ctx.map.target.dim else 1, 2)


def _product(cws) -> Tensor:
    return Tensor(cws=cws)


def _fiber_rule(t: Tensor) -> tuple:
    k1, k2 = (c.map.source.dim - c.map.target.dim for c in (t.cws.ctx1, t.cws.ctx2))
    return (2 + k1 * k2, 2)


# -- walk inputs: stencil walks handed a point-set form, and lifted fields


@dataclass(frozen=True)
class Walk:
    """The inputs of a stencil walk besides its points: ``fn`` on the chart
    ``M``, with the point-set form ``stack`` that its kernel hands over,
    differentiated along ``direction``'s value at each point (every axis
    when None)."""

    engine: DiffEngine
    M: ChartManifold
    fn: Callable
    stack: Callable
    direction: object = None


def _metric_walk(M: ChartManifold, engine: DiffEngine) -> Walk:
    """The Christoffel kernel's walk: the unchecked metric, whose form is
    ``metrics_at``."""
    return Walk(engine, M, lambda c: M.metric_at(c, check=False),
                lambda coords: np.array(M.metrics_at(coords)))


def _field_walk(M: ChartManifold, engine: DiffEngine, Y: VectorField, X=None) -> Walk:
    """The covariant-derivative kernel's walk of a lifted field ``Y``, whose
    form the lift attached, along ``X`` (every axis when None)."""
    return Walk(engine, M, Y.fn, Y.fn._stack, X)


def _walk_set(w: Walk, points: list) -> list:
    """``stacked_partials`` at ``points`` with ``w``'s form, as a list: an
    empty set has no value shape to stack."""
    coords = np.array(points, dtype=float).reshape(len(points), w.M.dim)
    along = None if w.direction is None else np.array(
        [w.direction(c) for c in coords]).reshape(coords.shape)
    return list(w.engine.stacked_partials(w.fn, coords, w.M.lower, w.M.upper, along,
                                          stack=w.stack))


def _walk_one(w: Walk, p) -> np.ndarray:
    along = None if w.direction is None else w.direction(p)
    return w.engine.partials(w.fn, p, w.M.lower, w.M.upper, along=along)


def _half_idle(points: list) -> VectorField:
    """A direction that uses no axis at the points whose first coordinate is
    below the median of ``points``'."""
    median = float(np.median([p[0] for p in points]))
    return VectorField(lambda c: np.linspace(1.0, 2.0, len(c)) * float(c[0] >= median))


def _walk_inputs(engine: DiffEngine) -> list:
    """``(walk, points)``: the metric walks of each catalog warped ambient
    chart (a form of its own) and of its first factor (``metrics_at``'s
    loop over a plain callable), and walks of its lifted fields along a
    lifted field, along every axis and along a direction that uses no axis
    at some points."""
    out = []
    for f, points in _warped_inputs(engine):
        W, M = f.W, f.W.ambient
        (E1, F1), (E2, F2) = f.pairs1[0], f.pairs2[0]
        out += [(_metric_walk(M, engine), points),
                (_metric_walk(W.first, engine), [p[W.block("first")] for p in points]),
                (_field_walk(M, engine, lift(W, "first", F1), lift(W, "first", E1)), points),
                (_field_walk(M, engine, lift(W, "second", F2), lift(W, "second", E2)), points),
                (_field_walk(M, engine, lift(W, "second", F2)), points),
                (_field_walk(M, engine, lift(W, "first", F1), _half_idle(points)), points)]
    return out


@dataclass(frozen=True)
class ChartField:
    """A vector field ``Y`` on the chart ``M``."""

    M: ChartManifold
    Y: VectorField


def _lifted_inputs(engine: DiffEngine) -> list:
    """``(field, points)``: a lift of each factor field of the catalog warped
    products' first pairs, on the ambient chart."""
    return [(ChartField(f.W.ambient, lift(f.W, which, field)), points)
            for f, points in _warped_inputs(engine)
            for which, pairs in (("first", f.pairs1), ("second", f.pairs2))
            for field in pairs[0]]


def _raising_factor_field():
    """A line times a line, and a field of the first line that raises from
    x = 0.2 on."""
    line = ChartManifold.euclidean(1, -1.0, 1.0)
    W = build_warped_product(line, line, ScalarField(lambda c: float(np.exp(c[0] / 4.0))))

    def fn(c):
        if c[0] >= 0.2:
            raise ValueError(f"field undefined at {c}")
        return np.array([1.0 + c[0] ** 2])

    points = [W.ambient.point(c) for c in ([0.1, 0.2], [0.3, 0.4], [0.5, 0.6])]
    return W, VectorField(fn), points


def _lifted_raising() -> tuple:
    W, field, points = _raising_factor_field()
    return ChartField(W.ambient, lift(W, "first", field)), [points, points[1:]]


def _field_raising() -> tuple:
    """The raising field of ``_raising_factor_field`` on its own line."""
    W, field, points = _raising_factor_field()
    points = [p[W.block("first")] for p in points]
    return ChartField(W.first, field), [points, points[1:]]


def _projected_inputs(engine: DiffEngine) -> list:
    """``(field, points)``: the vertical and horizontal parts of a seeded
    coordinate and affine field on each O'Neill context
    (``SubmersionContext.vertical_field``, ``horizontal_field``)."""
    return [(ChartField(ctx.map.source, project(Y)), points)
            for ctx, points in _oneill_inputs(engine)[0]
            for Y in vector_field_library(ctx.map.source, np.random.default_rng(5), 2)
            for project in (ctx.vertical_field, ctx.horizontal_field)]


def _projected_fault(order: str) -> tuple:
    """The horizontal part of a constant field on ``_guarded``'s context."""
    ctx, sets = _guarded(order)
    return ChartField(ctx.map.source, ctx.horizontal_field(VectorField.constant([0.3, -0.2]))), sets


def _field_inputs(engine: DiffEngine) -> list:
    """``(field, points)`` for ``values_at``: the engine-health fields of each
    chart of ``_chart_inputs`` (coordinate, affine and trigonometric), a
    user field with no point-set form on each of those charts, the lifted
    fields of ``_lifted_inputs`` and the projected ones of
    ``_projected_inputs``."""
    user = VectorField(lambda c: np.cos(c) * c[0])
    return [(ChartField(f.M, Y), points) for f, points in _chart_inputs(engine)
            for Y in f.fields + (user,)] + _lifted_inputs(engine) + _projected_inputs(engine)


def _walk_raising() -> tuple:
    W, field, points = _raising_factor_field()
    return _field_walk(W.ambient, ENGINE, lift(W, "first", field)), [points, points[1:]]


def _walk_metric_fault(fault: str) -> tuple:
    """The metric walk of ``_warped_fault``'s ambient chart and its sets."""
    f, sets = _warped_fault(fault)
    return _metric_walk(f.W.ambient, ENGINE), sets


def _walk_chart_fault(fault: str) -> tuple:
    """The metric walk of ``_metric_fault``'s chart and its sets."""
    ctx, sets = _metric_fault(fault)
    return _metric_walk(ctx.map.source, ENGINE), sets


def _directional_walks(M: ChartManifold, engine: DiffEngine, fields, points: list) -> list:
    """The engine-health kernel's set ``directional`` of g(Y, Z), handed the
    form ``suites._metric_inner_form``, along X and along a direction that
    is zero at some of ``points``."""
    X, Y, Z = fields
    form = suites._metric_inner_form(M, Y, Z)
    fn = manifold._single(form)
    return [Walk(engine, M, fn, form, X), Walk(engine, M, fn, form, _half_idle(points))]


def _directional_inputs(engine: DiffEngine) -> list:
    """``(walk, points)``: ``_directional_walks`` on each chart of
    ``_chart_inputs``."""
    return [(w, points) for f, points in _chart_inputs(engine)
            for w in _directional_walks(f.M, engine, f.fields, points)]


def _directional_set(w: Walk, points: list) -> np.ndarray:
    coords = np.array(points, dtype=float).reshape(len(points), w.M.dim)
    along = np.array([w.direction(c) for c in coords]).reshape(coords.shape)
    return w.engine.directional(w.fn, coords, along, w.M.lower, w.M.upper, stack=w.stack)


def _directional_one(w: Walk, p) -> np.float64:
    """A lone point's ``directional``, a float, as the item of a stack."""
    return np.float64(w.engine.directional(w.fn, p, w.direction(p), w.M.lower, w.M.upper))


def _directional_fault(fault: str) -> tuple:
    """The walk along X on ``_metric_fault``'s chart, with the engine-health
    fields, at its sets."""
    ctx, sets = _metric_fault(fault)
    f = _chart_fields(ctx.map.source, ENGINE)
    return _directional_walks(f.M, ENGINE, f.fields, sets[0])[0], sets


def _directional_off_the_box() -> tuple:
    """The walk along (1, 1) on ``_stencil_off_the_box``'s chart, whose tight
    point is 1e-11 from the wall of its second axis."""
    ctx, sets = _stencil_off_the_box()
    X, Y, Z = _chart_fields(ctx.map.source, ENGINE).fields
    return replace(_directional_walks(ctx.map.source, ENGINE, (X, Y, Z), sets[0])[0],
                   direction=VectorField.constant([1.0, 1.0])), sets


def _directional_raising() -> tuple:
    """The walk along (1, 0.5) on the square, of g(Y, Z) with a Y that raises
    from x = 0.2 on, at ``POINTS``."""
    def fn(c):
        if c[0] >= 0.2:
            raise ValueError(f"field undefined at {c}")
        return np.array([1.0 + c[1], c[0]])

    M = ChartManifold.euclidean(2, -1.0, 1.0)
    Y, Z = VectorField(fn), VectorField.constant([0.5, 2.0])
    walk = _directional_walks(M, ENGINE, (VectorField.constant([1.0, 0.5]), Y, Z), POINTS)[0]
    return walk, [POINTS, POINTS[1:]]


@dataclass(frozen=True)
class Submanifold:
    """The coordinate submanifold along ``axes`` of the chart ``M``."""

    engine: DiffEngine
    M: ChartManifold
    axes: tuple


def _submanifold_inputs(engine: DiffEngine) -> list:
    """``(submanifold, points)``: the first axis and the other axes of each
    chart of ``_chart_inputs``; on a warped ambient chart, its leaf and
    fiber."""
    return [(Submanifold(engine, f.M, axes), points) for f, points in _chart_inputs(engine)
            for axes in ((0,), tuple(range(1, f.M.dim)))]


def _submanifold_set(s: Submanifold, points: list) -> list:
    """The set kernel's II and H at ``points``, from their checked metrics and
    Christoffel symbols, as ``(values, mean_curvature)`` per point."""
    coords = np.array(points, dtype=float).reshape(len(points), s.M.dim)
    G = np.reshape(s.M.metrics_at(coords, check=True), (len(coords),) + (s.M.dim,) * 2)
    gammas = np.reshape(christoffels(s.M, s.engine, coords, G), (len(coords),) + (s.M.dim,) * 3)
    return list(zip(*connection._submanifold_form(G, gammas, s.axes)))


def _submanifold_one(s: Submanifold, p) -> tuple:
    form = coordinate_submanifold_form(s.M, s.engine, s.axes, p)
    return form.values, form.mean_curvature


def _submanifold_fault(fault: str) -> tuple:
    ctx, sets = _metric_fault(fault) if fault in METRIC_FAULTS else _stencil_off_the_box()
    return Submanifold(ENGINE, ctx.map.source, (0,)), sets


def _rescaled_charts(engine: DiffEngine) -> list:
    """``(chart, points)``: the rescaled source chart of each conformal
    product of the catalog, with no offset and with the probe's, at the
    points where the product is conformal."""
    out = []
    for cws, points in _catalog(engine)[1]:
        conformal = conformal_warped._conformal_points(cws, points)
        if len(conformal) > 1:
            out += [(conformal_warped.rescaled_context(cws, offset).map.source, conformal)
                    for offset in (0.0, conformal_warped.PROBE_OFFSET)]
    return out


def _rescaled_fault(order: str) -> tuple:
    """The rescaled source chart of ``_factor_fault``'s product, at its set."""
    cws, sets = _factor_fault(order)
    return conformal_warped.rescaled_context(cws).map.source, sets


def _rescaled_non_conformal() -> tuple:
    """The rescaled source chart of cws-mixed-local, which is conformal only
    where x3 = 0, at a point off that slice between two on it."""
    cws = build_objects("cws-mixed-local", ENGINE)["cws"]
    points = [cws.source.ambient.point(c) for c in (
        [0.3, 0.4, 0.0, 0.1, 0.2], [0.3, 0.4, 0.2, 0.1, 0.3], [0.2, -0.1, 0.0, 0.2, 0.0])]
    return conformal_warped.rescaled_context(cws).map.source, [points, points[1:]]


# -- the table


@dataclass(frozen=True)
class Row:
    """``point_set(obj, points)`` and its ``single(obj, p)``; ``clean(engine)``
    lists ``(obj, points)`` of N points; ``rule(obj)`` is one value's shape,
    or the type of the list or tuple returned; ``sites`` name the kernels
    handed to ``_point_set`` or ``_memoized_many`` that the row covers
    (``_kernel_name``); ``failing`` maps
    an id to ``(build, error)``: ``build()`` returns ``(obj, point sets)`` and
    ``error`` is the loop of single-point calls' ``(type, message)``, or None;
    ``holds`` names the field of each value that is the point passed in;
    ``per_point`` lists the single-point conversions of ``SINGLE_POINT`` that
    the set call makes once per point by design; ``reads_once`` is False for
    a pass that reads a point's data more than once before a later step
    fails there (a splitting's metric, then the checked one), so that a
    failing lone point evaluates a callable more than once, as its loop does."""

    point_set: Callable
    single: Callable
    clean: Callable
    rule: Callable
    sites: tuple
    failing: dict
    schemes: tuple = ("central2",)
    holds: str = ""
    per_point: tuple = ()
    reads_once: bool = True


def _block_pass(kernel, args, rule, clean, failing, one_of=lambda rows: None, **kwargs) -> Row:
    """The row of a verifier's rows ``kernel``, over all schemes: its set
    call is the block pass's per-block call (``submersion._add_in_blocks``)
    of ``_point_set`` on ``rows = partial(kernel, *args(obj))``, of the shape
    ``rule(obj)`` and with ``one_of(rows)``, and its single-point call is
    that ``one``, or ``rows`` on a stack of one when None."""
    def point_set(obj, points):
        rows = functools.partial(kernel, *args(obj))
        return manifold._point_set(rows, points, rule(obj), one_of(rows))

    def single(obj, p):
        rows, p = functools.partial(kernel, *args(obj)), np.asarray(p, dtype=float)
        one = one_of(rows)
        return rows(p[None])[0] if one is None else one(p)

    return Row(point_set, single, clean, rule, (kernel.__name__,), failing, SCHEMES, **kwargs)


RANK_DEFICIENT = (RankError, "rank 0 below target dimension 1 at [0. 0.]")
JACOBIAN_UNDEFINED = (ValueError, "Jacobian undefined at [0.5 0.3]")
GUARDED_JACOBIAN = (RankError, "Jacobian not finite at [-0.7  0.2]")
GUARDED_ERRORS = {  # of the splittings; a dilation's differs at a degenerate pullback
    "rank-deficient-first": RANK_DEFICIENT, "raising-map-first": JACOBIAN_UNDEFINED,
    "degenerate-pullback-first": RANK_DEFICIENT,
    "non-finite-metric-first": (DegenerateMetricError, "metric not finite at [-0.6  0.3]"),
    "non-finite-jacobian-first": GUARDED_JACOBIAN,
}
DILATION_ERRORS = GUARDED_ERRORS | {"degenerate-pullback-first": (
    RankError, "pullback metric degenerate on horizontal space at [0.  0.5]")}
# the single-point conversions and the point-by-point redo of _memoized_many,
# which no clean point-set call of two or more points calls; DiffEngine.partial
# and DiffEngine.directional have a set form too, and only that is allowed
# (SET_FORMS)
SINGLE_POINT = ((ChartManifold, "metric_at"), (ChartManifold, "_raw_metric"),
                (SmoothMap, "__call__"), (SmoothMap, "image_point"), (SmoothMap, "jacobian_at"),
                (DiffEngine, "partial"), (DiffEngine, "partials"), (DiffEngine, "directional"),
                (SubmersionContext, "splitting_at"), (SubmersionContext, "dilation"),
                (conformal_warped, "compatibility"), (conformal_warped, "_positive_factor_data"),
                (manifold, "_one_at_a_time"))


def _alone(*args, **kwargs):
    """A single-point conversion that fails when called: a ``None`` would
    read as no conversion where one is optional (``_point_set``'s ``one``)."""
    raise AssertionError(f"a point computed on its own: {args[1:]}")


def _sets_only(method):
    """``method(self, fn, coords, ...)`` that fails at a lone point."""
    def on_sets(self, fn, coords, *args, **kwargs):
        assert np.ndim(coords) == 2, f"a point computed on its own: {coords}"
        return method(self, fn, coords, *args, **kwargs)
    return on_sets


def _idle_only(method):
    """``method(self, fn, coords, lower, upper, along)`` that fails unless
    ``along`` uses no axis: the one evaluation, for the shape, at a point
    of a set that uses none."""
    def idle(self, fn, coords, lower, upper, along=None):
        assert along is not None and not np.any(along), f"a point computed on its own: {coords}"
        return method(self, fn, coords, lower, upper, along)
    return idle


SET_FORMS = {(DiffEngine, "partial"): _sets_only(DiffEngine.partial),
             (DiffEngine, "directional"): _sets_only(DiffEngine.directional),
             (DiffEngine, "partials"): _idle_only(DiffEngine.partials)}

STENCIL_ERROR = (StencilError, "stencil does not fit: room to boundary 1.000e-11 allows step "
                 "5.000e-12 < min_step 1.000e-10")
# the product faults that a splitting reads, and those that a dilation reads
SPLITTING_FAULTS = _errors(PRODUCT_FAULTS, "metric", "f", "jac")
DILATION_FAULTS = _errors(PRODUCT_FAULTS, "metric", "f", "fn", "jac")
# the O'Neill kernels split a field at a point whose direction uses no axis
# on a stack of one (the walk's one evaluation there, for the value's
# shape), whose splitting reads that point's Jacobian alone
ONEILL_WALK = ((ChartManifold, "_raw_metric"), (SmoothMap, "jacobian_at"))
# at the first stencil point of [0.3 0.4]; the image at [0.3 0.4] itself
STENCIL_IMAGE_SHAPE = (DomainError, "image of shape (2,) at [0.30001 0.4    ]")

ROWS = {
    "metrics_at": Row(
        lambda M, points: M.metrics_at(points),
        lambda M, p: M.metric_at(p, check=False),
        # _raw_metrics hands _point_set the metric's point-set form: a warped
        # ambient metric's, else _stack_of's loop over the plain callable
        _charts, lambda M: list, ("_stacked_metrics", "_stack_of", "build_warped_product"),
        {"metric-of-the-wrong-shape": (_metric_of_the_wrong_shape, (
            DegenerateMetricError, "metric returned shape (1,) at [2.]")),
         **_each(_product_source_fault, _errors(PRODUCT_FAULTS, "metric", "f"))},
    ),
    # the checked metric: one stacked test per check over the set, so a set
    # whose points fail different checks is redone point by point
    "metrics_at-checked": Row(
        lambda M, points: M.metrics_at(points, check=True),
        lambda M, p: M.metric_at(p),
        _checked_charts, lambda M: list, ("_stacked_metrics", "_stack_of", "build_warped_product"),
        {**_each(_checked_order, {k: e for k, (_, e) in CHECKED_ORDERS.items()}),
         "metric-of-the-wrong-shape": (_metric_of_the_wrong_shape, (
             DegenerateMetricError, "metric returned shape (1,) at [2.]")),
         **_each(_as(lambda ctx: ctx.map.source, _metric_fault),
                 {k: e for k, (_, e) in METRIC_FAULTS.items()}),
         **_each(_product_source_fault, _errors(PRODUCT_FAULTS, "metric", "f"))},
    ),
    "images": Row(
        lambda ctx, points: ctx.map.images(points),
        lambda ctx, p: ctx.map.image_point(p),
        _maps, lambda ctx: (ctx.map.target.dim,), ("images",),
        {**_each(_guarded, dict.fromkeys(["rank-deficient-first", "raising-map-first"],
                                         (ValueError, "map undefined at [0.5 0.3]"))),
         "image-rule-at-a-stencil-point": (_image_rule_at_a_stencil_point,
                                           BOUNDARY_FAULTS["image-shape"][2]),
         **_each(_boundary_fault, _errors(BOUNDARY_FAULTS, "fn")),
         **_each(_product_fault, _errors(PRODUCT_FAULTS, "fn"))},
    ),
    "jacobians_at": Row(
        lambda ctx, points: ctx.map.jacobians_at(points, ctx.engine),
        lambda ctx, p: ctx.map.jacobians_at([p], ctx.engine)[0],
        _maps, lambda ctx: (ctx.map.target.dim, ctx.map.source.dim), ("jacobians_at",),
        {**_each(_guarded, {"rank-deficient-first": JACOBIAN_UNDEFINED,
                            "raising-map-first": JACOBIAN_UNDEFINED,
                            "non-finite-metric-first": GUARDED_JACOBIAN,
                            "non-finite-jacobian-first": GUARDED_JACOBIAN}),
         "stencil-off-the-box": (_stencil_off_the_box, STENCIL_ERROR),
         "image-rule-at-a-stencil-point": (_image_rule_at_a_stencil_point, STENCIL_IMAGE_SHAPE),
         **_each(_boundary_fault, _errors(BOUNDARY_FAULTS, "jac")),
         **_each(_product_fault, _errors(PRODUCT_FAULTS, "jac"))},
        SCHEMES,
    ),
    "splittings_at": Row(
        lambda ctx, points: ctx.splittings_at(points),
        lambda ctx, p: ctx.splitting_at(p),
        lambda engine: _catalog(engine)[0], lambda ctx: list, ("_stacked_splittings",),
        {**_each(_guarded, GUARDED_ERRORS),
         **_each(_metric_fault, {"non-spd-metric": METRIC_FAULTS["non-spd-metric"][1]}),
         "image-rule-at-a-stencil-point": (_image_rule_at_a_stencil_point, STENCIL_IMAGE_SHAPE),
         **_each(_boundary_fault, _errors(BOUNDARY_FAULTS, "jac")),
         **_each(_product_fault, SPLITTING_FAULTS)},
        SCHEMES,
    ),
    "dilations": Row(
        lambda ctx, points: ctx.dilations(points),
        lambda ctx, p: ctx.dilation(p),
        lambda engine: _catalog(engine)[0], lambda ctx: list, ("_stacked_dilations",),
        {**_each(_guarded, DILATION_ERRORS),
         "target-metric-before-a-failing-image": (_target_metric_before_a_failing_image, (
             ValueError, "target metric undefined at [0.25]")),
         **_each(_boundary_fault, _errors(BOUNDARY_FAULTS, "fn", "jac")),
         **_each(_product_fault, DILATION_FAULTS)},
        SCHEMES,
    ),
    # the squared dilation field's form: one box check for the set, then one
    # dilations call; a point off the box raises before any dilation is read,
    # so a failing lone point reads nothing. A single value is a float, and
    # a stack's item a numpy float
    "lambda_sq_field-form": Row(
        lambda ctx, points: _stack(ctx.lambda_sq_field())(
            np.array(points, dtype=float).reshape(len(points), ctx.map.source.dim)),
        lambda ctx, p: np.float64(ctx.lambda_sq_field()(p)),
        lambda engine: _catalog(engine)[0], lambda ctx: (), (),
        {**_each(_guarded, DILATION_ERRORS),
         "point-off-the-box": (_off_the_box, (
             DomainError, "point [0.3 1.5] outside domain of chart"))},
        reads_once=False,
    ),
    "compatibility_report": Row(
        compatibility_report, compatibility,
        lambda engine: _catalog(engine)[1], lambda cws: tuple, ("compatibility_report",),
        _each(_factor_fault, FACTOR_ERRORS), holds="coords",
    ),
    # the kernel alone raises a DomainError of its images before any datum's
    # error; compatibility_report redoes such a set point by point, so the
    # warp-before-image order is that row's only
    "_factor_data": Row(
        lambda cws, points: _factor_data(
            cws, np.array(points, dtype=float).reshape(len(points), cws.source.ambient.dim)),
        _factor_row,
        lambda engine: _catalog(engine)[1], lambda cws: (6,), ("compatibility_report",),
        _each(_factor_fault, {k: e for k, e in FACTOR_ERRORS.items() if k != "warp-before-image"}),
    ),
    "christoffels": Row(
        lambda ctx, points: christoffels(ctx.map.source, ctx.engine, points),
        lambda ctx, p: christoffel(ctx.map.source, ctx.engine, p),
        lambda engine: _catalog(engine)[0], lambda ctx: list, ("christoffels",),
        {**_each(_metric_fault, {k: e for k, (_, e) in METRIC_FAULTS.items()}),
         "stencil-off-the-box": (_stencil_off_the_box, STENCIL_ERROR)},
        SCHEMES,
    ),
    "_connection_rows": _block_pass(
        warped._connection_rows, lambda f: (f.W, f.engine, f.pairs1, f.pairs2), _connection_rule,
        _warped_inputs,
        {**_each(_warped_fault, _errors(PRODUCT_FAULTS, "metric", "f")),
         "stencil-off-the-box": (_warped_stencil_off_the_box, STENCIL_ERROR)},
    ),
    "_leaf_fiber_rows": _block_pass(
        warped._leaf_fiber_rows, lambda f: (f.W, f.engine), lambda f: (3, 2), _warped_inputs,
        {**_each(_warped_fault, _errors(PRODUCT_FAULTS, "metric", "f")),
         "stencil-off-the-box": (_warped_stencil_off_the_box, STENCIL_ERROR)},
    ),
    "gradients": Row(
        lambda f, points: gradients(f.M, f.engine, f.fields[0], points),
        lambda f, p: gradient(f.M, f.engine, f.fields[0], p),
        _gradient_inputs, lambda f: (f.M.dim,), ("gradients",),
        _each(_gradient_fault, {**{k: e for k, (_, e) in METRIC_FAULTS.items()},
                                "stencil-off-the-box": STENCIL_ERROR}),
        SCHEMES,
    ),
    "_oneills": Row(
        lambda t, points: _oneills(t.ctx, t.part, t.E, t.F, points), _oneill,
        _tensors, lambda t: (t.ctx.map.source.dim,), ("_oneills",),
        {**_each(_as(_with_fields, _guarded), GUARDED_ERRORS),
         **_each(_as(_with_fields, _boundary_fault), _errors(BOUNDARY_FAULTS, "jac")),
         **_each(_as(_with_fields, _product_fault), SPLITTING_FAULTS),
         **_each(_as(_with_fields, _metric_fault), {k: e for k, (_, e) in METRIC_FAULTS.items()}),
         "stencil-off-the-box": (_as(_with_fields, _stencil_off_the_box), STENCIL_ERROR)},
        SCHEMES, per_point=ONEILL_WALK,
    ),
    # the O'Neill set call on fields that belong to their points (PointFields):
    # the extensions of each point's own vectors, in one walk whose split form
    # takes the owners of the stencil points; a point's single-point call, and
    # a failing set's redo, is oneill_a or oneill_t on that point's own fields
    "_oneills-per-point": Row(
        _extended_set, _extended_one, _extended_tensors, lambda t: (t.ctx.map.source.dim,),
        ("_oneills",),
        {**_each(_as(_extended("horizontal-modulated"), _guarded), GUARDED_ERRORS),
         **_each(_as(_extended("horizontal-constant"), _product_fault), SPLITTING_FAULTS),
         "stencil-off-the-box": (_as(_extended("constant", _vertical), _stencil_off_the_box),
                                 STENCIL_ERROR)},
        SCHEMES, per_point=ONEILL_WALK,
    ),
    "_conformal_a_formulas": Row(
        lambda t, points: _conformal_a_formulas(t.ctx, t.E, t.F, points),
        lambda t, p: conformal_a_formula(t.ctx, t.E, t.F, p),
        lambda engine: _conformal_inputs(engine, _with_fields), lambda t: (t.ctx.map.source.dim,),
        ("_conformal_a_formulas",),
        {**_each(_as(_with_fields, _guarded), DILATION_ERRORS),
         **_each(_as(_with_fields, _boundary_fault), _errors(BOUNDARY_FAULTS, "fn", "jac")),
         **_each(_as(_with_fields, _product_fault), DILATION_FAULTS)},
        SCHEMES, per_point=ONEILL_WALK,
    ),
    "_crossval_rows": _block_pass(
        suites._crossval_rows, lambda t: (t.ctx, t.pairs), lambda t: (3 * len(t.pairs), 2),
        lambda engine: _conformal_inputs(engine, _with_pairs, 2),
        {**_each(_as(_with_pairs, _guarded), DILATION_ERRORS),
         **_each(_as(_with_pairs, _product_fault), DILATION_FAULTS)},
        per_point=ONEILL_WALK, reads_once=False,
    ),
    # columns [check, gap] per pair
    "_first_factor_rows": _block_pass(
        conformal_warped._first_factor_rows, lambda t: (t.cws, t.pairs),
        lambda t: (2 * len(t.pairs), 2), lambda engine: _product_inputs(engine, _first_pairs),
        # the first factor's splitting fails before the product's
        _each(_as(_first_pairs, _product_cws_fault), SPLITTING_FAULTS | {
            "nan-jacobian": (RankError, "Jacobian not finite at [0.3 0.4]")}),
        per_point=ONEILL_WALK, reads_once=False,
    ),
    # one column per variant, two variants per pair
    "_second_factor_rows": _block_pass(
        conformal_warped._second_factor_rows,
        lambda t: (t.cws, t.pairs, second_factor_variant_fields(t.cws)),
        lambda t: (2 * len(t.pairs), 2), lambda engine: _product_inputs(engine, _second_pairs),
        _each(_as(_second_pairs, _product_cws_fault), SPLITTING_FAULTS),
        per_point=ONEILL_WALK,
    ),
    # the samples are points followed by their draws
    "_umbilicity_rows": _block_pass(
        suites._umbilicity_rows, lambda t: (t.ctx,), _umbilicity_rule, _umbilicity_samples,
        _each(_umbilicity_fault, GUARDED_ERRORS), per_point=ONEILL_WALK,
    ),
    # columns: each block's mean curvature, then each mixed pair
    "_fiber_rows": _block_pass(
        conformal_warped._fiber_rows, lambda t: (t.cws,), _fiber_rule,
        lambda engine: _product_inputs(engine, _product),
        # the first factor's splitting fails before the product's metric
        _each(_as(_product, _product_cws_fault), SPLITTING_FAULTS | {
            "nan-jacobian": (RankError, "Jacobian not finite at [0.3 0.4]")}),
        per_point=ONEILL_WALK,
    ),
    # a stencil walk handed a point-set form: a set's used stencil points in
    # one call of the form, in the per-point loop's order; a lone point is
    # partials' loop over fn. Each failing set raises at a stencil point of
    # its first bad point, where the loop does. (A walk's StencilError comes
    # before any evaluation: tests/test_fd.py.)
    "stacked_partials-with-a-form": Row(
        _walk_set, _walk_one, _walk_inputs, lambda w: list, (),
        {"raising-lifted-field": (_walk_raising, (
            ValueError, "field undefined at [0.30001]")),
         **_each(_walk_metric_fault, {
             "metric-shape": (DegenerateMetricError, "metric returned shape (2, 2, 2) at "
                                                     "[0.30001 0.4    ]"),
             "nan-warp": (WarpPositivityError, "warp nan is not in (0, inf) at first-factor "
                                               "point [0.30001 0.4    ]")}),
         **_each(_walk_chart_fault, {
             "metric-shape": (DegenerateMetricError, "metric returned shape (3, 3) at "
                                                     "[0.30001 0.4    ]")})},
        SCHEMES,
    ),
    # the set directional derivative handed a point-set form: a set's stencil
    # points in one call of the form, in the per-point loop's order, a zero
    # direction an exact 0.0 that is not evaluated; a lone point is the loop
    # over fn. (Its StencilError comes before any evaluation: tests/test_fd.py.)
    "directional-with-a-form": Row(
        _directional_set, _directional_one, _directional_inputs, lambda w: (), (),
        {"raising-field": (_directional_raising, (
            ValueError, "field undefined at [0.30001  0.400005]")),
         "stencil-off-the-box": (_directional_off_the_box, STENCIL_ERROR),
         **_each(_directional_fault, {
             "non-finite-metric": None, "non-spd-metric": None,
             "metric-shape": (DegenerateMetricError, "metric returned shape (3, 3) at "
                                                     "[0.30001 0.4    ]")})},
        SCHEMES,
    ),
    # the second fundamental form of a set's coordinate submanifolds, from
    # its checked metrics and Christoffel symbols; a single point's is the
    # kernel on a stack of one
    "_submanifold_form": Row(
        _submanifold_set, _submanifold_one, _submanifold_inputs, lambda s: list, (),
        _each(_submanifold_fault, {**{k: e for k, (_, e) in METRIC_FAULTS.items()},
                                   "stencil-off-the-box": STENCIL_ERROR}),
        SCHEMES,
    ),
    # a rescaled chart's metrics (conformal_warped.rescaled_context): r1 from
    # one compatibility_report call and the source metrics from one
    # metrics_at call; a set with a point where the product is not conformal
    # is redone point by point
    "rescaled-metrics": Row(
        lambda M, points: M.metrics_at(points), lambda M, p: M.metric_at(p, check=False),
        _rescaled_charts, lambda M: list, ("rescaled_context",),
        {"non-conformal": (_rescaled_non_conformal, (
            ConformalityError, "product not conformal at [0.3 0.4 0.2 0.1 0.3]: "
                               "r1=1.491825e+00, r2=1.000000e+00")),
         **_each(_rescaled_fault, {k: e for k, e in FACTOR_ERRORS.items() if e is not None})},
    ),
    # a lifted vector field's form: the factor field point by point, written
    # into the zero-padded rows of one array
    "lifted-field-form": Row(
        lambda l, points: l.Y.fn._stack(np.array(points, dtype=float).reshape(len(points),
                                                                             l.M.dim)),
        lambda l, p: l.Y(p), _lifted_inputs, lambda l: (l.M.dim,), (),
        {"raising-factor-field": (_lifted_raising, (
            ValueError, "field undefined at [0.3]"))},
    ),
    # a field's values at a set: one call of the form a builder attached (the
    # affine, trigonometric, lifted and projected fields'), else the field
    # point by point; a projected field's form reads the set's splittings in
    # one splittings_at call
    "values_at": Row(
        lambda l, points: l.Y.values_at(np.array(points, dtype=float).reshape(len(points),
                                                                              l.M.dim)),
        lambda l, p: l.Y(p), _field_inputs, lambda l: (l.M.dim,), (),
        {"raising-field": (_field_raising, (ValueError, "field undefined at [0.3]")),
         "raising-lifted-field": (_lifted_raising, (ValueError, "field undefined at [0.3]")),
         **_each(_projected_fault, GUARDED_ERRORS)},
    ),
    # a failing point's sample is recorded as failed, so no failing set raises
    "_health_rows": _block_pass(
        suites._health_rows, lambda f: (f.M, f.engine, f.fields), lambda f: (2, 2), _chart_inputs,
        _each(_chart_fault, dict.fromkeys([*METRIC_FAULTS, "stencil-off-the-box"])),
        one_of=lambda rows: functools.partial(suites._health_row, rows, []),
    ),
}


def _assert_as_loop(row: Row, obj, got, loop: list, points: list) -> None:
    """``got`` is the loop's values at ``points`` in the row's rule: one float
    stack of the rule's shape, else a list or tuple of them."""
    rule = row.rule(obj)
    if isinstance(rule, tuple):
        assert type(got) is np.ndarray and got.dtype == float and got.shape == (len(loop),) + rule
    else:
        assert type(got) is rule
    _same(list(got), loop)
    assert not row.holds or all(getattr(v, row.holds) is p for v, p in zip(got, points))


def _patch_everywhere(monkeypatch, helper: str, wrap) -> None:
    """``wrap(manifold.<helper>)`` in place of it in every warpgeo module."""
    real = getattr(manifold, helper)
    spy = wrap(real)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "warpgeo" and getattr(module, helper, None) is real:
            monkeypatch.setattr(module, helper, spy)


def _spy_on_redos(monkeypatch) -> list:
    """The list that ``_point_set``'s ``one`` appends to from now on, each
    time it redoes a point of a set of two or more."""
    redos = []

    def spy(real):
        def point_set(stack, coords_seq, shape, one=None):
            single = (lambda c: stack(c[None])[0]) if one is None else one

            def redo(c):
                redos.append(shape)
                return single(c)

            return real(stack, coords_seq, shape, one if len(coords_seq) < 2 else redo)
        return point_set

    _patch_everywhere(monkeypatch, "_point_set", spy)
    return redos


def _user_callables(obj, path: str, seen: set, closures: bool):
    """``(label, holder, attribute)`` of every chart metric, map ``fn`` and
    ``jac``, ``ScalarField.fn`` and ``VectorField.fn`` reachable from ``obj``
    through dicts, tuples, dataclass fields and, with ``closures``, a
    builder's closure variables; each holder once, labelled by its first
    path."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    attrs = {ChartManifold: ("metric",), SmoothMap: ("fn", "jac"), ScalarField: ("fn",),
             VectorField: ("fn",)}
    for cls, names in attrs.items():
        if isinstance(obj, cls):
            for name in names:
                if getattr(obj, name) is not None:
                    yield f"{path}.{name}", obj, name
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, tuple):
        children = enumerate(obj)
    elif is_dataclass(obj) and not isinstance(obj, type):
        children = [(f.name, getattr(obj, f.name)) for f in fields(obj)]
    elif closures and getattr(obj, "__closure__", None):
        children = [(name, cell.cell_contents)
                    for name, cell in zip(obj.__code__.co_freevars, obj.__closure__)]
    else:
        return
    for name, child in children:
        yield from _user_callables(child, f"{path}.{name}", seen, closures)


def _counted(fn, counts: Counter, label: str, stacked: set):
    """``fn``, counting its evaluations under ``(label, point)``; a call of its
    point-set form counts each point and adds ``label`` to ``stacked``."""
    def counted(coords):
        counts[label, tuple(np.asarray(coords, dtype=float).tolist())] += 1
        return fn(coords)

    stack = getattr(fn, "_stack", None)
    if stack is not None:
        def counted_stack(coords):
            counts.update((label, tuple(c)) for c in np.asarray(coords, dtype=float).tolist())
            stacked.add(label)
            return stack(coords)

        counted._stack = counted_stack
    return counted


def _count_evaluations(patch, obj, path: str = "obj", closures: bool = True) -> tuple:
    """``(counts, stacked)`` of ``_counted``, filled by every user callable
    reachable from ``obj`` until ``patch`` is undone."""
    counts, stacked = Counter(), set()
    for label, holder, name in list(_user_callables(obj, path, set(), closures)):
        patch.setitem(vars(holder), name, _counted(getattr(holder, name), counts, label, stacked))
    return counts, stacked


# -- the four promises, and the completeness of the table

VALUE_CASES = [(name, scheme) for name, row in ROWS.items() for scheme in row.schemes]
ERROR_CASES = [(name, case) for name, row in ROWS.items() for case in row.failing]


@pytest.fixture(scope="module")
def references() -> dict:
    """(row, scheme) -> the single-point values at each clean case's points,
    in order: the unscoped and the scoped case compute them alike, outside
    any scope, so they share them."""
    return {}


@pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
@pytest.mark.parametrize("name, scheme", VALUE_CASES, ids=[f"{n}-{s}" for n, s in VALUE_CASES])
def test_values_equal_the_single_point_calls_bit_for_bit(name, scheme, scoped, references,
                                                          monkeypatch):
    row = ROWS[name]
    cases = row.clean(DiffEngine(scheme=scheme))  # per case: only the values are shared
    if (name, scheme) not in references:
        references[name, scheme] = [[row.single(obj, p) for p in points] for obj, points in cases]
    redos = _spy_on_redos(monkeypatch)
    for (obj, points), want in zip(cases, references[name, scheme]):
        for n in dict.fromkeys(min(n, len(points)) for n in SIZES):
            with _scope(scoped), pytest.MonkeyPatch.context() as patch:
                if n != 1:  # a lone point is its single-point conversion
                    for owner, attr in SINGLE_POINT:
                        if (owner, attr) not in row.per_point:
                            patch.setattr(owner, attr, SET_FORMS.get((owner, attr), _alone))
                got = row.point_set(obj, points[:n])
            _assert_as_loop(row, obj, got, want[:n], points[:n])
    # a clean set of two or more points is never computed one point at a time:
    # not inside its point-set form (SINGLE_POINT), not by a redo
    assert redos == []


@pytest.mark.boundary
@pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
@pytest.mark.parametrize("name, case", ERROR_CASES, ids=[f"{n}-{c}" for n, c in ERROR_CASES])
def test_a_failing_set_raises_as_the_single_point_loop(name, case, scoped):
    row = ROWS[name]
    build, error = row.failing[case]
    obj, sets = build()
    for points in sets:
        with _scope(scoped):
            want = _outcome(lambda: [row.single(obj, p) for p in points])
        with _scope(scoped):
            got = _outcome(lambda: row.point_set(obj, points))
        if error is None:
            _assert_as_loop(row, obj, got, want, points)
        else:
            assert want[:2] == error and got == want


@pytest.mark.boundary
@pytest.mark.parametrize("name", ROWS)
def test_each_user_callable_is_evaluated_as_often_as_by_the_single_point_loop(name):
    # a point-set form that raised and was redone point by point would count
    # more; a failing lone point is its checked single-point conversion alone
    row = ROWS[name]
    cases = [(obj, [points[:1], points], False) for obj, points in row.clean(ENGINE)]
    for build, error in row.failing.values():
        if error is not None:
            obj, sets = build()
            # the first point whose single-point call raises: an outcome tuple
            lone = next(p for p in sets[0] if type(_outcome(lambda: row.single(obj, p))) is tuple)
            cases.append((obj, [[lone]], True))
    for obj, sets, failing in cases:
        with pytest.MonkeyPatch.context() as patch:
            counts, _ = _count_evaluations(patch, obj)
            for points in sets:
                counts.clear()
                _outcome(lambda: row.point_set(obj, points))
                got = Counter(counts)
                counts.clear()
                _outcome(lambda: [row.single(obj, p) for p in points])
                assert got == counts
                assert not (failing and row.reads_once) or set(got.values()) == {1}, got


@pytest.mark.boundary
@pytest.mark.parametrize("name", ROWS)
def test_an_empty_set_returns_an_empty_stack_of_the_rule(name):
    row = ROWS[name]
    objs = [obj for obj, _ in row.clean(ENGINE)] + [build()[0] for build, _ in row.failing.values()]
    for obj in objs:
        _assert_as_loop(row, obj, row.point_set(obj, []), [], [])


def _kernel_name(kernel) -> str:
    """The name of a point-set kernel: a partial's function's, a function's
    or method's own, and a local function's (a lambda's) enclosing one."""
    kernel = getattr(kernel, "func", kernel)
    return kernel.__qualname__.split(".<locals>")[0].rsplit(".", 1)[-1]


def test_every_caller_of_the_point_set_helpers_has_a_row(monkeypatch):
    # keyed on the kernel, not on the calling frame: every verifier's block
    # pass calls _point_set from submersion._add_in_blocks
    kernels = set()

    def spy(real, position):
        def spied(*args):
            kernels.add(_kernel_name(args[position]))
            return real(*args)
        return spied

    _patch_everywhere(monkeypatch, "_point_set", lambda real: spy(real, 0))
    _patch_everywhere(monkeypatch, "_memoized_many", lambda real: spy(real, 3))
    for scenario in list_scenarios():
        run_scenario(scenario.scenario_id, RunConfig(samples=3))
    covered = {site for row in ROWS.values() for site in row.sites}
    assert sorted(kernels - covered) == [], "kernels of _point_set or _memoized_many without a row"
    assert sorted(covered - kernels) == [], "row sites that a catalog pass never calls"


# -- memo entries shared by the point-set and single-point calls


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


INPUT_SCENARIOS = ("exp-spiral-r4", "cws-variable-dilation", "cws-incompatible")


@pytest.mark.parametrize("scenario", INPUT_SCENARIOS)
def test_point_set_metrics_share_read_only_scope_entries(scenario):
    objs = build_objects(scenario, ENGINE)
    F = objs["ctx"].map
    coords = sample_points(objs["sample_lower"], objs["sample_upper"], 6, 5, 4.0 * ENGINE.step)
    points = [F.source.point(c) for c in coords]
    for M, coords in ((F.source, points), (F.target, [F(p) for p in points])):
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


# -- the block residuals of splitting_records against a point-by-point walk


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


# -- the block residuals of the connection verifiers against point-by-point walks


def _connection_per_point(W, engine, points, pairs1, pairs2) -> list:
    """``warped.verify_warped_connection``'s checks walked point by point
    with the single-point calls. The reference for its block residuals."""
    first, second = W.block("first"), W.block("second")
    checks = [ResidualCheck(check_id, 1e-6) for check_id in (
        "warped-conn-first-pair", "warped-conn-mixed", "warped-conn-fiber-normal",
        "warped-conn-fiber-tangent")]
    log_warp = W.log_warp()
    for p in points:
        c1, c2 = W.split_coords(p)
        g = W.ambient.metric_at(p)
        for E1, F1 in pairs1:
            lhs = covariant_derivative(W.ambient, engine, lift(W, "first", E1),
                                       lift(W, "first", F1), p)
            rhs = W.pad("first", covariant_derivative(W.first, engine, E1, F1, c1))
            checks[0].add(np.linalg.norm(lhs - rhs), residual_scale(lhs, rhs))
        for (E1, _), (E2, _) in zip(pairs1, pairs2):
            E1l, E2l = lift(W, "first", E1), lift(W, "second", E2)
            lhs_a = covariant_derivative(W.ambient, engine, E1l, E2l, p)
            lhs_b = covariant_derivative(W.ambient, engine, E2l, E1l, p)
            df_along = float(np.dot(scalar_partials(W.first, engine, W.warp, c1), E1(c1)))
            rhs = (df_along / W.warp(c1)) * E2l(p)
            checks[1].add(max(np.linalg.norm(lhs_a - rhs), np.linalg.norm(lhs_b - rhs)),
                          residual_scale(lhs_a, lhs_b, rhs))
        grad_log = gradient(W.ambient, engine, log_warp, p)
        for E2, F2 in pairs2:
            E2l, F2l = lift(W, "second", E2), lift(W, "second", F2)
            full = covariant_derivative(W.ambient, engine, E2l, F2l, p)
            normal = W.pad("first", full[first])
            rhs3 = -float(E2l(p) @ g @ F2l(p)) * grad_log
            checks[2].add(np.linalg.norm(normal - rhs3), residual_scale(normal, rhs3))
            rhs4 = covariant_derivative(W.second, engine, E2, F2, c2)
            checks[3].add(np.linalg.norm(full[second] - rhs4), residual_scale(full[second], rhs4))
    return checks


def _leaf_fiber_per_point(W, engine, points) -> list:
    """``warped.verify_leaf_fiber_geometry``'s checks walked point by point."""
    checks = [ResidualCheck(check_id, 1e-6) for check_id in (
        "leaf-totally-geodesic", "fiber-umbilical", "fiber-mean-curvature-warp")]
    second = W.block("second")
    for p in points:
        leaf = second_fundamental_form(W, engine, "leaf", p)
        checks[0].add(np.max(np.abs(leaf.values)), residual_scale(leaf.values))
        fiber = second_fundamental_form(W, engine, "fiber", p)
        expected = np.einsum("ab,k->abk", W.ambient.metric_at(p)[second, second],
                             fiber.mean_curvature)
        checks[1].add(np.max(np.abs(fiber.values - expected)),
                      residual_scale(fiber.values, expected))
        grad_log = gradient(W.ambient, engine, W.log_warp(), p)
        checks[2].add(np.linalg.norm(fiber.mean_curvature + grad_log),
                      residual_scale(fiber.mean_curvature, grad_log))
    return checks


def _health_per_point(M, engine, points, rng) -> list:
    """``suites.engine_health_records``' checks walked point by point; a
    point that raises a GeometryError counts once against each check."""
    checks = [ResidualCheck("torsion-free", 1e-6), ResidualCheck("metric-compatibility", 1e-5)]
    X, Y, Z = vector_field_library(M, rng, 3)

    def g_inner_field(c):
        return float(Y(c) @ M.metric_at(c, check=False) @ Z(c))

    for p in points:
        try:
            g = M.metric_at(p)
            dxy = covariant_derivative(M, engine, X, Y, p)
            dyx = covariant_derivative(M, engine, Y, X, p)
            br = lie_bracket(M, engine, X, Y, p)
            dxz = covariant_derivative(M, engine, X, Z, p)
            lhs = engine.directional(g_inner_field, p, X(p), M.lower, M.upper)
        except GeometryError as exc:
            for check in checks:
                check.add(np.inf)
                check.note(f"error at {p}: {exc}")
            continue
        checks[0].add(np.max(np.abs(dxy - dyx - br)), residual_scale(dxy, dyx, br))
        rhs = float(dxy @ g @ Z(p)) + float(Y(p) @ g @ dxz)
        checks[1].add(abs(lhs - rhs), 1.0 + max(abs(lhs), abs(rhs)))
    return checks


def _checks_made(module, monkeypatch, verify) -> list:
    """The ResidualChecks that ``module`` makes while ``verify()`` runs."""
    checks = []

    class Spy(ResidualCheck):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            checks.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(module, "ResidualCheck", Spy)
        verify()
    return checks


def _walks(verifier: str, scenario: str, engine):
    """``(module, verify(points, rng), per_point(points, rng), points)`` of a
    connection verifier on ``scenario``'s objects; engine health also runs on
    a chart whose metric is not positive definite at x > 0.5."""
    if scenario == "spd-below-0.5":
        M = ChartManifold(2, -1.0, 1.0, lambda c: np.eye(2) * (0.75 - c[0]))
        coords = sample_points(M.lower, M.upper, 130, 3, 1e-3)
    else:
        objs = build_objects(scenario, engine)
        W = objs["warped"]
        M = W.ambient
        coords = sample_points(objs["sample_lower"], objs["sample_upper"], 130, 3, 4e-5)
    points = [M.point(c) for c in coords]
    if verifier == "engine-health":
        return (suites, lambda pts, rng: suites.engine_health_records(M, engine, pts, rng),
                lambda pts, rng: _health_per_point(M, engine, pts, rng), points)
    pairs = lambda rng: (field_pairs(W.first, rng, 3), field_pairs(W.second, rng, 3))
    if verifier == "warped-connection":
        return (warped,
                lambda pts, rng: warped.verify_warped_connection(W, engine, pts, *pairs(rng)),
                lambda pts, rng: _connection_per_point(W, engine, pts, *pairs(rng)), points)
    return (warped, lambda pts, rng: warped.verify_leaf_fiber_geometry(W, engine, pts),
            lambda pts, rng: _leaf_fiber_per_point(W, engine, pts), points)


WALKS = [(v, s) for v in ("warped-connection", "leaf-fiber", "engine-health")
         for s in WARPED_SCENARIOS + (("spd-below-0.5",) if v == "engine-health" else ())]


@pytest.mark.parametrize("verifier, scenario", WALKS, ids=[f"{v}-{s}" for v, s in WALKS])
def test_connection_verifiers_equal_the_point_by_point_walk(verifier, scenario, monkeypatch):
    module, verify, per_point, points = _walks(verifier, scenario, DiffEngine())
    for n in (1, 64, 65, 130):
        with evaluation_scope():  # each point's Christoffel symbols are built once
            want = per_point(points[:n], np.random.default_rng(n))
        for scoped in (False, True):
            with _scope(scoped):
                got = _checks_made(module, monkeypatch,
                                   lambda: verify(points[:n], np.random.default_rng(n)))
            assert [c.check_id for c in got] == [c.check_id for c in want]
            for a, b in zip(got, want):
                assert len(a.residuals) == len(b.residuals)
                assert np.array(a.residuals).tobytes() == np.array(b.residuals).tobytes(), \
                    (a.check_id, n, scoped)
                assert a.notes == b.notes
    # the chart's failing points are recorded, not raised
    assert scenario != "spd-below-0.5" or any(c.notes for c in want)


# -- the block residuals of the O'Neill verifiers against point-by-point walks


def _crossval_per_point(ctx, points, rng) -> list:
    """``suites.a_crossval_records``' checks walked point by point with the
    single-point calls. The reference for its block residuals."""
    crossval = ResidualCheck("a-vs-bracket-formula", TOLERANCES["a-vs-bracket-formula"])
    extension = ResidualCheck("a-extension-independence", TOLERANCES["a-vs-bracket-formula"])
    pairs = horizontal_pairs(ctx, rng, 2)
    M = ctx.map.source
    for p in points:
        for X, Y in pairs:
            a_direct = oneill_a(ctx, X, Y, p)
            a_formula = conformal_a_formula(ctx, X, Y, p)
            crossval.add(np.linalg.norm(a_direct - a_formula), residual_scale(a_direct, a_formula))
            x_const = ctx.horizontal_field(VectorField.constant(X(p)))
            y_const = ctx.horizontal_field(VectorField.constant(Y(p)))
            x_mod = ctx.horizontal_field(modulated(VectorField.constant(X(p)), 0, p))
            y_mod = ctx.horizontal_field(modulated(VectorField.constant(Y(p)), M.dim - 1, p))
            a_ext1 = oneill_a(ctx, x_const, y_const, p)
            a_ext2 = oneill_a(ctx, x_mod, y_mod, p)
            extension.add(np.linalg.norm(a_ext1 - a_ext2), residual_scale(a_ext1, a_ext2))
            extension.add(np.linalg.norm(a_ext1 - a_direct), residual_scale(a_ext1, a_direct))
    return [crossval, extension]


def _mean_curvature_per_point(ctx, basis, p):
    """``fiber_mean_curvature`` as the loop of single-point T calls it was."""
    acc = np.zeros(basis.shape[0])
    for column in basis.T:
        u = VectorField.constant(column)
        acc += oneill_t(ctx, u, u, p)
    return acc / max(basis.shape[1], 1)


def _umbilicity_per_point(ctx, points, rng) -> list:
    """``suites.t_umbilicity_records``' check walked point by point with the
    single-point calls, drawing each point's pairs in turn."""
    check = ResidualCheck("t-umbilical", TOLERANCES["t-umbilical"])
    for p in points:
        s = ctx.splitting_at(p)
        nv = s.vertical.shape[1]
        if nv == 0:
            check.add(0.0)
            continue
        basis = _gram_schmidt(s.vertical, s.metric)
        mean = _mean_curvature_per_point(ctx, basis, p)
        for _ in range(2):
            cu = basis @ rng.uniform(-1.0, 1.0, size=nv)
            cw = basis @ rng.uniform(-1.0, 1.0, size=nv)
            t_val = oneill_t(ctx, VectorField.constant(cu), VectorField.constant(cw), p)
            expected = float(cu @ s.metric @ cw) * mean
            check.add(np.linalg.norm(t_val - expected), residual_scale(t_val, expected))
    return [check]


def _fiber_geometry_per_point(cws, points) -> list:
    """``conformal_warped.fiber_geometry_report``'s checks, expecting the
    first block minimal and the second not, walked point by point with the
    single-point calls."""
    tolerance = TOLERANCES["fiber-minimality-first"]
    checks = [ResidualCheck(name, tolerance) for name in (
        "fiber-minimality-first", "fiber-minimality-second", "mixed-fiber-geodesic")]
    W = cws.source
    for p in points:
        c1, c2 = W.split_coords(p)
        s1, s2 = cws.ctx1.splitting_at(c1), cws.ctx2.splitting_at(c2)
        g = W.ambient.metric_at(p)
        v1 = _gram_schmidt(W.pad("first", s1.vertical), g)
        v2 = _gram_schmidt(W.pad("second", s2.vertical), g)
        for check, basis in zip(checks, (v1, v2)):
            h = _mean_curvature_per_point(cws.ctx, basis, p)
            check.add(np.linalg.norm(h), residual_scale(h))
        for a in range(v1.shape[1]):
            for b in range(v2.shape[1]):
                t_mixed = oneill_t(cws.ctx, VectorField.constant(v1[:, a]),
                                   VectorField.constant(v2[:, b]), p)
                checks[2].add(np.linalg.norm(t_mixed), residual_scale(t_mixed))
    checks[0].note("expected minimal")
    checks[1].note("expected non-minimal")
    return checks


def _first_factor_per_point(cws, points, pairs1) -> list:
    """``verify_first_factor_a_identity``'s check and its unrecorded
    convention gaps walked point by point, at conformal points, with the
    single-point calls; the largest gap is the check's note."""
    check = ResidualCheck("product-a-first-factor", TOLERANCES["product-a-first-factor"])
    gap = ResidualCheck("gradient-convention-gap", check.tolerance)
    inv_l1_partials = None
    if cws.lambda1.partials is not None:
        def inv_l1_partials(c):
            return -2.0 * np.asarray(cws.lambda1.partials(c), float) / cws.lambda1(c) ** 3
    inv_l1 = ScalarField(lambda c: 1.0 / cws.lambda1(c) ** 2, inv_l1_partials)
    inv_l1_lifted = lift(cws.source, "first", inv_l1)
    engine = cws.ctx.engine
    used = [e.coords for e in compatibility_report(cws, points) if e.conformal_here]
    for p in used:
        c1, _ = cws.source.split_coords(p)
        g1 = cws.source.first.metric_at(c1)
        lam1_sq = cws.lambda1(c1) ** 2
        s1, s = cws.ctx1.splitting_at(c1), cws.ctx.splitting_at(p)
        for X1, Y1 in pairs1:
            Xl, Yl = lift(cws.source, "first", X1), lift(cws.source, "first", Y1)
            lhs = oneill_a(cws.ctx, Xl, Yl, p)
            inner = float(X1(c1) @ g1 @ Y1(c1))
            br1 = lie_bracket(cws.source.first, engine, X1, Y1, c1)
            grad1 = vertical_gradient(cws.ctx1, inv_l1, c1)
            rhs_a = cws.source.pad("first", 0.5 * (s1.vertical_part(br1) - lam1_sq * inner * grad1))
            br = lie_bracket(cws.source.ambient, engine, Xl, Yl, p)
            grad_m = vertical_gradient(cws.ctx, inv_l1_lifted, p)
            rhs_b = 0.5 * (s.vertical_part(br) - lam1_sq * inner * grad_m)
            scale = residual_scale(lhs, rhs_a, rhs_b)
            check.add(max(np.linalg.norm(lhs - rhs_a), np.linalg.norm(lhs - rhs_b)), scale)
            gap.add(np.linalg.norm(rhs_a - rhs_b), scale)
    if len(used) < len(points):
        check.note(f"skipped {len(points) - len(used)} non-conformal points")
    check.note(f"gradient-convention gap {max(gap.residuals, default=0.0):.2e}")
    return [check, gap]


def _second_factor_per_point(cws, points, pairs2) -> list:
    """``verify_second_factor_a_identity``'s check and its unrecorded
    per-variant residuals walked point by point, at conformal points, with
    the single-point calls."""
    check = ResidualCheck("product-a-second-factor", TOLERANCES["product-a-second-factor"])
    variants = second_factor_variant_fields(cws)
    per_variant = {name: ResidualCheck(name, check.tolerance) for name in variants}
    used = [e.coords for e in compatibility_report(cws, points) if e.conformal_here]
    for p in used:
        _, c2 = cws.source.split_coords(p)
        g2 = cws.source.second.metric_at(c2)
        lam2_sq = cws.lambda2(c2) ** 2
        for X2, Y2 in pairs2:
            Xl, Yl = lift(cws.source, "second", X2), lift(cws.source, "second", Y2)
            lhs = oneill_a(cws.ctx, Xl, Yl, p)
            skew = cws.source.pad("second", oneill_a(cws.ctx2, X2, Y2, c2)
                                  - oneill_a(cws.ctx2, Y2, X2, c2))
            inner = float(X2(c2) @ g2 @ Y2(c2))
            for name, field in variants.items():
                rhs = 0.5 * (skew - lam2_sq * inner * vertical_gradient(cws.ctx, field, p))
                per_variant[name].add(np.linalg.norm(lhs - rhs), residual_scale(lhs, rhs))
    worst = {name: max(c.residuals, default=0.0) for name, c in per_variant.items()}
    for _ in used:
        check.add(min(worst.values()))
    passing = sorted(name for name, r in worst.items() if r <= check.tolerance)
    check.note("passing variant(s): " + (", ".join(passing) if passing else "none"))
    for name in sorted(worst):
        check.note(f"{name} residual {worst[name]:.3e}")
    if len(used) < len(points):
        check.note(f"skipped {len(points) - len(used)} non-conformal points")
    return [check, *per_variant.values()]


def _failing_above_half(on_context: bool):
    """A context, or a product, whose (first factor's) source metric is not
    finite at x > 0.5, with points on (-0.9, 0.9)^2 (x (-0.9, 0.9))."""
    if on_context:
        M = ChartManifold(2, -1.0, 1.0, lambda c: np.eye(2) * (np.nan if c[0] > 0.5 else 1.0))
        ctx = SubmersionContext(SmoothMap(M, ChartManifold.euclidean(1, -1.0, 1.0),
                                          lambda c: c[:1], lambda c: np.array([[1.0, 0.0]])),
                                DiffEngine())
        return ctx, [M.point(c) for c in sample_points([-0.9] * 2, [0.9] * 2, 65, 3, 1e-3)]
    cws = _product_bad_from_second_point("metric", lambda g: g * np.nan, start=0.5)
    M = cws.source.ambient
    return cws, [M.point(c) for c in sample_points([-0.9] * 3, [0.9] * 3, 65, 3, 1e-3)]


def _oneill_walks(verifier: str, scenario: str, engine):
    """``(module, verify(points, rng), per_point(points, rng), points)`` of an
    O'Neill verifier on ``scenario``'s objects, or on ``_failing_above_half``'s."""
    on_context = verifier in ("a-crossval", "t-umbilicity")
    if scenario == "failing-above-0.5":
        obj, points = _failing_above_half(on_context)
    else:
        objs = build_objects(scenario, engine)
        obj = objs["ctx"] if on_context else objs["cws"]
        M = obj.map.source if on_context else obj.source.ambient
        coords = sample_points(objs["sample_lower"], objs["sample_upper"], 65, 3, 4e-5)
        points = [M.point(c) for c in coords]
    if verifier == "a-crossval":
        return (suites, lambda pts, rng: suites.a_crossval_records(obj, pts, rng),
                lambda pts, rng: _crossval_per_point(obj, pts, rng), points)
    if verifier == "t-umbilicity":
        return (suites, lambda pts, rng: suites.t_umbilicity_records(obj, pts, rng),
                lambda pts, rng: _umbilicity_per_point(obj, pts, rng), points)
    if verifier == "fiber-geometry":
        return (conformal_warped,
                lambda pts, rng: conformal_warped.fiber_geometry_report(obj, pts, True, False),
                lambda pts, rng: _fiber_geometry_per_point(obj, pts), points)
    if verifier == "first-factor":
        pairs = lambda rng: horizontal_pairs(obj.ctx1, rng, 2)
        return (conformal_warped,
                lambda pts, rng: conformal_warped.verify_first_factor_a_identity(
                    obj, pts, pairs(rng)),
                lambda pts, rng: _first_factor_per_point(obj, pts, pairs(rng)), points)
    pairs = lambda rng: horizontal_pairs(obj.ctx2, rng, 2)
    return (conformal_warped,
            lambda pts, rng: conformal_warped.verify_second_factor_a_identity(obj, pts, pairs(rng)),
            lambda pts, rng: _second_factor_per_point(obj, pts, pairs(rng)), points)


ONEILL_WALKS = [(v, s) for v in ("a-crossval", "t-umbilicity", "first-factor", "second-factor",
                                 "fiber-geometry")
                for s in (("exp-spiral-r4",) if v in ("a-crossval", "t-umbilicity") else ())
                + ("cws-variable-dilation", "failing-above-0.5")]


@pytest.mark.parametrize("verifier, scenario", ONEILL_WALKS,
                         ids=[f"{v}-{s}" for v, s in ONEILL_WALKS])
def test_oneill_verifiers_equal_the_point_by_point_walk(verifier, scenario, monkeypatch):
    module, verify, per_point, points = _oneill_walks(verifier, scenario, DiffEngine())
    failures = 0
    for n in (1, 25, 64, 65):
        with evaluation_scope():  # each point's splittings and dilations are built once
            want = _outcome(lambda: per_point(points[:n], np.random.default_rng(n)))
        for scoped in (False, True):
            with _scope(scoped):
                got = _outcome(lambda: _checks_made(
                    module, monkeypatch, lambda: verify(points[:n], np.random.default_rng(n))))
            if type(want) is tuple:  # the first failing point raises its own error
                assert got == want
                failures += 1
                continue
            assert [c.check_id for c in got] == [c.check_id for c in want]
            for a, b in zip(got, want):
                assert len(a.residuals) == len(b.residuals)
                assert np.array(a.residuals).tobytes() == np.array(b.residuals).tobytes(), \
                    (a.check_id, n, scoped)
                assert a.notes == b.notes
    assert (failures > 0) == (scenario == "failing-above-0.5")


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
    # a stack of 17 points, and a stack of one: a single point of a derived
    # field is its point-set form on a stack of one (manifold._single)
    for N, seed in ((17, 20261018), (1, 20261020)):
        rng = np.random.default_rng(seed)
        for m, n in ((1, 1), (1, 2), (2, 4), (3, 5), (5, 5)):
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
            T = rng.standard_normal((N, n, n, n))  # Christoffel symbols, or metric partials
            # a coordinate submanifold along the first m axes: its tangent
            # basis, the ambient part of its Christoffel symbols, and II
            E = np.eye(n)[:, :m]
            tangential = np.moveaxis(T[:, :, :m, :m], 1, -1)
            II = rng.standard_normal((N, m, m, n))
            cases = {
                "svd": (lambda: np.linalg.svd(J), lambda i: np.linalg.svd(J[i])),
                "solve": (lambda: np.linalg.solve(G, B), lambda i: np.linalg.solve(G[i], B[i])),
                "solve, a vector right-hand side": (
                    lambda: np.linalg.solve(G, u[..., None])[..., 0],
                    lambda i: np.linalg.solve(G[i], u[i]),
                ),
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
                # the checked metric's scale and asymmetry
                "max |g|": (lambda: np.abs(A).max(axis=(1, 2)), lambda i: np.abs(A[i]).max()),
                "max |g - g^T|": (
                    lambda: np.abs(A - A.swapaxes(1, 2)).max(axis=(1, 2)),
                    lambda i: np.abs(A[i] - A[i].T).max(),
                ),
                "array of a list": (
                    lambda: np.array(items, dtype=float),
                    lambda i: np.asarray(items[i], dtype=float),
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
                "inv": (lambda: np.linalg.inv(G), lambda i: np.linalg.inv(G[i])),
                "Christoffel contraction": (
                    lambda: np.einsum("nkl,nijl->nkij", G, T),
                    lambda i: np.einsum("kl,ijl->kij", G[i], T[i]),
                ),
                "Christoffel term": (
                    lambda: np.einsum("...kij,...i,...j->...k", T, u, v),
                    lambda i: np.einsum("kij,i,j->k", T[i], u[i], v[i]),
                ),
                "(1 x n)(n x n)": (lambda: (u[:, None, :] @ A)[:, 0], lambda i: u[i] @ A[i]),
                # the affine and trigonometric fields' forms: one shared matrix
                "shared (n x n)(n x 1)": (
                    lambda: (A[0] @ u[..., None])[..., 0], lambda i: A[0] @ u[i],
                ),
                "sin": (lambda: np.sin(u), lambda i: np.sin(u[i])),
                # the engine-health kernel's g(Y, Z) and its right-hand side
                "_inner, against 1-D y @ g @ z": (
                    lambda: _inner(u, G, v)[:, 0], lambda i: u[i] @ G[i] @ v[i],
                ),
                # the second fundamental form kernel: the tangent projector of a
                # basis shared by the stack, the normal part of each
                # Christoffel column, and the mean curvature
                "projector, a shared basis": (
                    lambda: metric_orthogonal_projector(G, np.broadcast_to(E, (N, n, m))),
                    lambda i: metric_orthogonal_projector(G[i], E),
                ),
                "normal_proj @ gamma[:, i, j]": (
                    lambda: (A[:, None, None] @ tangential[..., None])[..., 0],
                    lambda i: np.array([[A[i] @ T[i][:, a, b] for b in range(m)]
                                        for a in range(m)]),
                ),
                "mean curvature, stacked inv": (
                    lambda: np.einsum("nab,nabk->nk", np.linalg.inv(Gt), II) / m,
                    lambda i: np.einsum("ab,abk->k", np.linalg.inv(Gt[i]), II[i]) / m,
                ),
            }
            for name, (stacked, single) in cases.items():
                whole = stacked()
                for i in range(N):
                    one = single(i)
                    same = all(np.array_equal(a[i], b) for a, b in zip(whole, one)) \
                        if isinstance(one, tuple) else np.array_equal(whole[i], one)
                    assert same, (f"{name} on a stack of {N} ({m}, {n}) matrices, matrix {i}: "
                                  f"{STACKED_KERNEL}")


# -- the evaluations of a dilation-survey pass

SURVEY_POINTS = 65  # one full block of POINT_BLOCK points and one of a single point


def _dilation_survey_counts(scenario: str) -> tuple[dict, set]:
    """The evaluations of each user callable in one pass of the benchmark's
    dilation-survey calls on ``scenario``, at ``SURVEY_POINTS`` points, and
    the callables whose point-set form was called."""
    engine = DiffEngine()
    objs = build_objects(scenario, engine)
    with pytest.MonkeyPatch.context() as patch:
        counts, stacked = _count_evaluations(patch, objs, "objs", closures=False)
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
    return dict(Counter(label for (label, _) in counts.elements())), stacked


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


# -- the evaluations of a connection pass


def _connection_pass_counts(scenario: str) -> tuple[dict, set]:
    """The evaluations of each user callable in one pass of the benchmark's
    connection-central4 calls on ``scenario``, at ``SURVEY_POINTS`` points,
    as ``{label: (at sample points, at stencil points)}``, where the sample
    points include their factor parts; and the callables whose point-set
    form was called. The engine-health fields are counted as they are made."""
    engine = DiffEngine(scheme="central4")
    objs = build_objects(scenario, engine)
    W = objs["warped"]
    coords = sample_points(objs["sample_lower"], objs["sample_upper"], SURVEY_POINTS, 7,
                           4.0 * engine.step)
    points = [W.ambient.point(c) for c in coords]
    rng = np.random.default_rng(7)
    pairs1, pairs2 = field_pairs(W.first, rng, 3), field_pairs(W.second, rng, 3)
    counts, stacked = Counter(), set()
    holders = {"first.metric": (W.first, "metric"), "second.metric": (W.second, "metric"),
               "ambient.metric": (W.ambient, "metric"), "warp": (W.warp, "fn")}
    for name, pairs in (("pairs1", pairs1), ("pairs2", pairs2)):
        for i, (E, F) in enumerate(pairs):
            holders.update({f"{name}.{i}.E": (E, "fn"), f"{name}.{i}.F": (F, "fn")})
    with pytest.MonkeyPatch.context() as patch:
        for label, (holder, name) in holders.items():
            counted = _counted(getattr(holder, name), counts, label, stacked)
            patch.setitem(vars(holder), name, counted)

        def library(M, rng, n):
            fields = vector_field_library(M, rng, n)
            for i, field in enumerate(fields):
                patch.setitem(vars(field), "fn", _counted(field.fn, counts, f"health.{i}", stacked))
            return fields

        patch.setattr(suites, "vector_field_library", library)
        warped.verify_warped_connection(W, engine, points, pairs1, pairs2)
        warped.verify_leaf_fiber_geometry(W, engine, points)
        suites.engine_health_records(W.ambient, engine, points, rng)
    samples = {tuple(p[block].tolist()) for p in points
               for block in (slice(None), W.block("first"), W.block("second"))}
    split = {}
    for (label, point), k in counts.items():
        split.setdefault(label, [0, 0])[point not in samples] += k
    return {label: tuple(n) for label, n in sorted(split.items())}, stacked


# evaluations per user callable in one connection pass, as (at sample points,
# at stencil points), measured when the verifiers still walked one point and
# one axis at a time; the engine-health kernel then read X five times at each
# sample point, Y four times and Z twice, and now reads each field once
_LINE_COUNTS = {
    "ambient.metric": (195, 1820), "first.metric": (1040, 1300),
    "health.0": (65, 1040), "health.1": (65, 780), "health.2": (65, 520),
    **{f"pairs1.{i}.E": (585, 0) for i in range(3)},
    **{f"pairs1.{i}.F": (130, 520) for i in range(3)},
    **{f"pairs2.{i}.E": (650, 0) for i in range(3)},
    **{f"pairs2.{i}.F": (195, 520) for i in range(3)},
    "second.metric": (1300, 1040), "warp": (1300, 1040),
}
CONNECTION_COUNTS = {
    "warped-line": _LINE_COUNTS,
    "sphere-warped": _LINE_COUNTS,
    "product-plain": {
        "ambient.metric": (195, 2600), "first.metric": (1040, 2340),
        "health.0": (65, 1560), "health.1": (65, 780), "health.2": (65, 520),
        **{f"pairs1.{i}.E": (585, 0) for i in range(3)},
        "pairs1.0.F": (130, 520), "pairs1.1.F": (130, 1040), "pairs1.2.F": (130, 1040),
        "pairs2.0.E": (650, 0), "pairs2.1.E": (910, 0), "pairs2.2.E": (910, 0),
        **{f"pairs2.{i}.F": (195, 520) for i in range(3)},
        "second.metric": (2080, 1040), "warp": (1300, 1820),
    },
}


@pytest.mark.parametrize("scenario", WARPED_SCENARIOS)
def test_a_connection_pass_evaluates_each_user_callable_as_often_as_single_points(scenario):
    # chart metrics, the warp and the vector fields, at the sample points and
    # on the FD stencils; a stencil walk reads only the point-set form its
    # kernel hands it: the Christoffel kernel's metrics_at, which reads the
    # warped ambient metric's form (a factor chart's metric has none), and a
    # field's form, which the kernels also read at the sample points
    # (values_at): the affine and trigonometric fields' own, and a lifted
    # field's, which reads its factor field's; coordinate fields have none
    counts, stacked = _connection_pass_counts(scenario)
    assert counts == CONNECTION_COUNTS[scenario]
    assert stacked == {"ambient.metric", "health.1", "health.2", "pairs1.0.F", "pairs1.1.E",
                       "pairs1.2.E", "pairs1.2.F", "pairs2.0.F", "pairs2.1.E", "pairs2.2.E",
                       "pairs2.2.F"}


def test_the_walk_reads_a_form_only_when_its_kernel_hands_it_over():
    # the form rides on fn as a builder attaches it; handed to partial,
    # partials, jacobian, directional (at a point or a set) or
    # stacked_partials without stack=, fn is evaluated point by point and the
    # form is never called
    engine = DiffEngine(scheme="central4")
    lower, upper = np.full(3, -1.0), np.full(3, 1.0)
    coords = np.array([[0.1, -0.2, 0.3], [0.4, 0.5, -0.6], [-0.7, 0.2, 0.05]])
    along = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [3.0, 3.0, 3.0]])
    seen, forms = [], []

    def one(c):
        seen.append(c.copy())
        return np.array([c[0] * c[1], np.sin(c[2])])

    def form(points):
        forms.append(points.copy())
        return np.array([one(c) for c in points])

    fn = manifold._with_stack(one, form)
    scalar = manifold._with_stack(lambda c: float(one(c)[0]), lambda points: form(points)[:, 0])
    engine.partial(fn, coords, 0, lower, upper)
    engine.partials(fn, coords[0], lower, upper)
    engine.jacobian(fn, coords, lower, upper)
    engine.directional(scalar, coords[0], along[0], lower, upper)
    engine.directional(scalar, coords, along, lower, upper)
    engine.stacked_partials(fn, coords, lower, upper, along)
    assert forms == [] and seen
    # handed over, a set's used stencil points go to the form in one call, in
    # the per-point loop's order; a lone point is partials' loop over fn
    seen.clear()
    want = np.stack([engine.partials(one, c, lower, upper, along=a) for c, a in zip(coords, along)])
    loop = np.array(seen)
    seen.clear()
    got = engine.stacked_partials(fn, coords, lower, upper, along, stack=form)
    assert got.tobytes() == want.tobytes() and len(forms) == 1
    assert forms[0].tobytes() == loop.tobytes()
    forms.clear()
    engine.stacked_partials(fn, coords[:1], lower, upper, along[:1], stack=form)
    assert forms == []


def test_a_form_that_takes_owners_gets_the_base_point_of_each_stencil_point():
    # row n's function is c -> (n + 1) [c0 c1, sin c2]; the first and last
    # points coincide, so only the owners tell their stencil points apart
    engine = DiffEngine(scheme="central4")
    lower, upper = np.full(3, -1.0), np.full(3, 1.0)
    coords = np.array([[0.1, -0.2, 0.3], [0.4, 0.5, -0.6], [-0.7, 0.2, 0.05], [0.1, -0.2, 0.3]])
    along = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [3.0, 3.0, 3.0]])
    seen, forms = [], []

    def fn(c, n):
        seen.append((c.copy(), n))
        return (n + 1.0) * np.array([c[0] * c[1], np.sin(c[2])])

    def form(points, owners):
        forms.append((points.copy(), owners.copy()))
        return (owners + 1.0)[:, None] * np.stack([points[:, 0] * points[:, 1],
                                                   np.sin(points[:, 2])], axis=1)

    want = np.stack([engine.partials(lambda c, n=n: fn(c, n), c, lower, upper, along=a)
                     for n, (c, a) in enumerate(zip(coords, along))])
    idle = [(c, n) for c, n in seen if n == 2]  # one evaluation, for the shape
    loop = [(c, n) for c, n in seen if n != 2]
    seen.clear()
    got = engine.stacked_partials(fn, coords, lower, upper, along, stack=form, owned=True)
    assert got.tobytes() == want.tobytes() and len(forms) == 1
    points, owners = forms[0]
    assert points.tobytes() == np.array([c for c, _ in loop]).tobytes()
    assert owners.tolist() == [n for _, n in loop]
    # the point with no used axis is its own partials call, which evaluates
    # its own function once; no other row's function is called
    assert len(idle) == 1 and [(c.tobytes(), n) for c, n in seen] == [(coords[2].tobytes(), 2)]
    # a lone point is partials' loop over its own function
    forms.clear()
    seen.clear()
    lone = engine.stacked_partials(fn, coords[1:2], lower, upper, along[1:2], stack=form,
                                   owned=True)
    assert forms == [] and {n for _, n in seen} == {0}
    assert lone.tobytes() == engine.partials(lambda c: fn(c, 0), coords[1], lower, upper,
                                             along=along[1])[None].tobytes()


# -- the evaluations of an O'Neill pass


def _oneill_pass_counts(scenario: str) -> tuple[dict, set]:
    """The evaluations of each user callable in one pass of the O'Neill
    suites on ``scenario`` (T umbilicity and the A cross-validation; on a
    conformal product also both product-A identities and the fiber
    geometry), at ``SURVEY_POINTS`` points, and the callables whose
    point-set form was called. The seeded library fields are counted as
    they are made, in order."""
    engine = DiffEngine()
    objs = build_objects(scenario, engine)
    with pytest.MonkeyPatch.context() as patch:
        counts, stacked = _count_evaluations(patch, objs, "objs", closures=False)
        made = []

        def pairs(M, rng, n):
            out = field_pairs(M, rng, n)
            for field in (field for pair in out for field in pair):
                label = f"field.{len(made)}"
                made.append(label)
                patch.setitem(vars(field), "fn", _counted(field.fn, counts, label, stacked))
            return out

        patch.setattr(suites, "field_pairs", pairs)
        ctx, cws = objs["ctx"], objs.get("cws")
        coords = sample_points(objs["sample_lower"], objs["sample_upper"], SURVEY_POINTS, 7,
                               4.0 * engine.step)
        points = [ctx.map.source.point(c) for c in coords]
        rng = np.random.default_rng(7)
        suites.t_umbilicity_records(ctx, points, rng)
        suites.a_crossval_records(ctx, points, rng)
        if cws is not None:
            conformal_warped.verify_first_factor_a_identity(
                cws, points, horizontal_pairs(cws.ctx1, rng, 2))
            conformal_warped.verify_second_factor_a_identity(
                cws, points, horizontal_pairs(cws.ctx2, rng, 2))
            conformal_warped.fiber_geometry_report(cws, points, True, False)
    return dict(Counter(label for (label, _) in counts.elements())), stacked


# evaluations per user callable in one O'Neill pass, measured when the O'Neill
# suites still walked one point at a time; since the second-factor identity
# computes each variant's vertical gradients once per block, not once per
# field pair, cws-variable-dilation's lambda1, lambda2 and source warp are
# evaluated 65, 65 and 130 times fewer (585, 910 and 3640 before); since the
# A cross-validation reads each pair field's values at a block's points once
# for both extensions, not once each, field.0 to field.3 are evaluated 65
# times fewer; and since no suite warms its stencil points up, the second-
# factor identity no longer fetches splittings at stencil points that no
# kernel reads, so cws-variable-dilation's three maps' Jacobians are
# evaluated 130 times fewer (2145, 2535 and 2405 before)
ONEILL_COUNTS = {
    "warped-line": {
        "field.0": 412, "field.1": 520, "field.2": 336, "field.3": 564,
        "objs.ctx.map.fn": 325, "objs.ctx.map.jac": 520, "objs.ctx.map.source.metric": 780,
        "objs.ctx.map.target.metric": 975, "objs.warped.second.metric": 780,
        "objs.warped.warp.fn": 780,
    },
    "exp-spiral-r4": {
        "field.0": 780, "field.1": 1204, "field.2": 728, "field.3": 1300,
        "objs.ctx.map.fn": 585, "objs.ctx.map.jac": 1170, "objs.ctx.map.source.metric": 1300,
        "objs.ctx.map.target.metric": 325,
    },
    "cws-variable-dilation": {
        "field.0": 678, "field.1": 780, "field.2": 520, "field.3": 1096, "field.4": 780,
        "field.5": 1040, "field.6": 780, "field.7": 1040, "field.8": 390, "field.9": 520,
        "field.10": 325, "field.11": 520,
        "objs.ctx.map.fn": 585, "objs.ctx.map.jac": 2015, "objs.ctx.map.source.metric": 3250,
        "objs.ctx.map.target.metric": 455, "objs.cws.ctx1.map.fn": 715,
        "objs.cws.ctx1.map.jac": 2405, "objs.cws.ctx2.map.fn": 585,
        "objs.cws.ctx2.map.jac": 2275, "objs.cws.lambda1.fn": 520, "objs.cws.lambda2.fn": 845,
        "objs.cws.source.first.metric": 3705, "objs.cws.source.second.metric": 3705,
        "objs.cws.source.warp.fn": 3510, "objs.cws.target.first.metric": 455,
        "objs.cws.target.second.metric": 455,
    },
}
# the point-set forms an O'Neill pass reads: the kernels' stacked splittings
# and dilations of the warped and the product ambients, the dilations also
# at stencil points, through the form of the A formula's reciprocal dilation
# field, and the seeded affine and trigonometric fields' own forms, which the
# projected fields' forms (``horizontal_field``) read at a set's points and,
# through the O'Neill kernels' split forms, at its stencil points; the
# coordinate fields (field.0, field.3, ...) have none
_SEEDED_FORMS = {"field.1", "field.2"}
ONEILL_STACKED = {
    "warped-line": {"objs.ctx.map.source.metric"} | _SEEDED_FORMS,
    "exp-spiral-r4": _SEEDED_FORMS,
    "cws-variable-dilation": {"objs.ctx.map.fn", "objs.ctx.map.jac",
                              "objs.ctx.map.source.metric", "objs.ctx.map.target.metric",
                              "field.5", "field.6", "field.9", "field.10"} | _SEEDED_FORMS,
}


@pytest.mark.parametrize("scenario", ONEILL_COUNTS)
def test_an_oneill_pass_evaluates_each_user_callable_as_often_as_single_points(scenario):
    # chart metrics, maps, warps, dilations and the seeded fields, at the
    # sample points and on the FD stencils: the stacked O'Neill kernels
    # evaluate each as often as the point-by-point suites did
    counts, stacked = _oneill_pass_counts(scenario)
    assert counts == ONEILL_COUNTS[scenario]
    assert stacked == ONEILL_STACKED[scenario]
