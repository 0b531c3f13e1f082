"""The point-set calls as one contract table.

Each row of ``ROWS`` is a point-set call with its single-point call, clean
inputs from the catalog, failing inputs with the error that the loop of
single-point calls raises, and the shape of its rule. Four promises are
written once over every row: values and layouts equal the single-point
calls bit for bit, and a clean set of two or more is computed as a set; a
failing set raises the loop's error; each user callable is evaluated as
often as by the loop, and by a failing lone point once; an empty set returns
an empty stack of the rule's shape. A completeness test names each caller of
``manifold._point_set`` or ``manifold._memoized_many`` without a row. The
other tests cover memo sharing, the stacked kernels' own errors,
``splitting_records``' block residuals, a dilation-survey pass's evaluations
and the numpy property the stacked kernels rest on."""

import functools
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, fields, is_dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np
import pytest

from boundary_maps import BOUNDARY_FAULTS, POINTS, bad_from_second_point
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
from warpgeo import conformal_warped, manifold, suites
from warpgeo.conformal_warped import _factor_data, _positive_factor_data
from warpgeo.fd import SCHEMES, STENCILS
from warpgeo.report import TOLERANCES, ResidualCheck, residual_scale
from warpgeo.sampling import sample_points
from warpgeo.scenarios import _compatibility_records, build_objects, list_scenarios, run_scenario
from warpgeo.submersion import Splitting, _in_blocks

SIZES = (0, 1, 64, 65)
N = max(SIZES)
ENGINE = DiffEngine()

STACKED_KERNEL = (
    "the point-set calls and the block residuals of suites.splitting_records are "
    "only bit-identical to their single-point calls and walks while numpy's "
    "stacked calls equal its per-matrix calls"
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
    ctx = _product_bad_from_second_point(*PRODUCT_FAULTS[fault][:2])
    return ctx, [PRODUCT_POINTS, PRODUCT_POINTS[1:]]


def _product_source_fault(fault: str) -> tuple:
    ctx, sets = _product_fault(fault)
    return ctx.map.source, sets


def _metric_of_the_wrong_shape() -> tuple:
    N1 = ChartManifold(1, [-5], [5], lambda y: np.eye(1) if y[0] < 1.0 else np.ones(1))
    good, bad = N1.point([0.5]), N1.point([2.0])
    return N1, [[bad, bad], [good, bad, good], [bad]]


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


# -- the table


@dataclass(frozen=True)
class Row:
    """``point_set(obj, points)`` and its ``single(obj, p)``; ``clean(engine)``
    lists ``(obj, points)`` of N points; ``rule(obj)`` is one value's shape,
    or the type of the list or tuple returned; ``sites`` are the callers of
    ``_point_set`` or ``_memoized_many`` that the row covers; ``failing`` maps
    an id to ``(build, error)``: ``build()`` returns ``(obj, point sets)`` and
    ``error`` is the loop of single-point calls' ``(type, message)``, or None;
    ``holds`` names the field of each value that is the point passed in."""

    point_set: Callable
    single: Callable
    clean: Callable
    rule: Callable
    sites: tuple
    failing: dict
    schemes: tuple = ("central2",)
    holds: str = ""


RANK_DEFICIENT = (RankError, "rank 0 below target dimension 1 at [0. 0.]")
JACOBIAN_UNDEFINED = (ValueError, "Jacobian undefined at [0.5 0.3]")
GUARDED_JACOBIAN = (RankError, "Jacobian not finite at [-0.7  0.2]")
GUARDED_ERRORS = {  # of the splittings; a dilation's differs at a degenerate pullback
    "rank-deficient-first": RANK_DEFICIENT, "raising-map-first": JACOBIAN_UNDEFINED,
    "degenerate-pullback-first": RANK_DEFICIENT,
    "non-finite-metric-first": (DegenerateMetricError, "metric not finite at [-0.6  0.3]"),
    "non-finite-jacobian-first": GUARDED_JACOBIAN,
}
# the single-point conversions and the point-by-point redo of _memoized_many,
# which no clean point-set call of two or more points calls
SINGLE_POINT = ((ChartManifold, "metric_at"), (ChartManifold, "_raw_metric"),
                (SmoothMap, "__call__"), (SmoothMap, "image_point"), (SmoothMap, "jacobian_at"),
                (DiffEngine, "partial"), (DiffEngine, "partials"),
                (SubmersionContext, "splitting_at"), (SubmersionContext, "dilation"),
                (conformal_warped, "compatibility"), (conformal_warped, "_positive_factor_data"),
                (manifold, "_one_at_a_time"))
STENCIL_ERROR = (StencilError, "stencil does not fit: room to boundary 1.000e-11 allows step "
                 "5.000e-12 < min_step 1.000e-10")
# at the first stencil point of [0.3 0.4]; the image at [0.3 0.4] itself
STENCIL_IMAGE_SHAPE = (DomainError, "image of shape (2,) at [0.30001 0.4    ]")

ROWS = {
    "metrics_at": Row(
        lambda M, points: M.metrics_at(points),
        lambda M, p: M.metric_at(p, check=False),
        _charts, lambda M: list, ("metrics_at", "_raw_metrics"),
        {"metric-of-the-wrong-shape": (_metric_of_the_wrong_shape, (
            DegenerateMetricError, "metric returned shape (1,) at [2.]")),
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
        lambda engine: _catalog(engine)[0], lambda ctx: list, ("splittings_at",),
        {**_each(_guarded, GUARDED_ERRORS),
         "image-rule-at-a-stencil-point": (_image_rule_at_a_stencil_point, STENCIL_IMAGE_SHAPE),
         **_each(_boundary_fault, _errors(BOUNDARY_FAULTS, "jac")),
         **_each(_product_fault, _errors(PRODUCT_FAULTS, "metric", "f", "jac"))},
        SCHEMES,
    ),
    "dilations": Row(
        lambda ctx, points: ctx.dilations(points),
        lambda ctx, p: ctx.dilation(p),
        lambda engine: _catalog(engine)[0], lambda ctx: list, ("dilations", "_stacked_dilations"),
        {**_each(_guarded, GUARDED_ERRORS | {"degenerate-pullback-first": (
            RankError, "pullback metric degenerate on horizontal space at [0.  0.5]")}),
         "target-metric-before-a-failing-image": (_target_metric_before_a_failing_image, (
             ValueError, "target metric undefined at [0.25]")),
         **_each(_boundary_fault, _errors(BOUNDARY_FAULTS, "fn", "jac")),
         **_each(_product_fault, _errors(PRODUCT_FAULTS, "metric", "f", "fn", "jac"))},
        SCHEMES,
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
        def point_set(one, stack, coords_seq, shape):
            redo = one if len(coords_seq) < 2 else (lambda c: redos.append(shape) or one(c))
            return real(redo, stack, coords_seq, shape)
        return point_set

    _patch_everywhere(monkeypatch, "_point_set", spy)
    return redos


def _user_callables(obj, path: str, seen: set, closures: bool):
    """``(label, holder, attribute)`` of every chart metric, map ``fn`` and
    ``jac`` and ``ScalarField.fn`` reachable from ``obj`` through dicts,
    dataclass fields and, with ``closures``, a builder's closure variables;
    each holder once, labelled by its first path."""
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


@pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
@pytest.mark.parametrize("name, scheme", VALUE_CASES, ids=[f"{n}-{s}" for n, s in VALUE_CASES])
def test_values_equal_the_single_point_calls_bit_for_bit(name, scheme, scoped, monkeypatch):
    row = ROWS[name]
    cases = [(obj, points, [row.single(obj, p) for p in points])
             for obj, points in row.clean(DiffEngine(scheme=scheme))]
    redos = _spy_on_redos(monkeypatch)
    for obj, points, want in cases:
        for n in SIZES:
            with _scope(scoped), pytest.MonkeyPatch.context() as patch:
                if n != 1:  # a lone point is its single-point conversion
                    for owner, attr in SINGLE_POINT:
                        patch.setattr(owner, attr, None)
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
                assert not failing or set(got.values()) == {1}, got


@pytest.mark.boundary
@pytest.mark.parametrize("name", ROWS)
def test_an_empty_set_returns_an_empty_stack_of_the_rule(name):
    row = ROWS[name]
    objs = [obj for obj, _ in row.clean(ENGINE)] + [build()[0] for build, _ in row.failing.values()]
    for obj in objs:
        _assert_as_loop(row, obj, row.point_set(obj, []), [], [])


def test_every_caller_of_the_point_set_helpers_has_a_row(monkeypatch):
    callers = set()

    def spy(real):
        def spied(*args):
            callers.add(sys._getframe(1).f_code.co_name)
            return real(*args)
        return spied

    for helper in ("_point_set", "_memoized_many"):
        _patch_everywhere(monkeypatch, helper, spy)
    for scenario in list_scenarios():
        run_scenario(scenario.scenario_id, RunConfig(samples=3))
    covered = {site for row in ROWS.values() for site in row.sites}
    assert sorted(callers - covered) == [], "callers of _point_set or _memoized_many without a row"
    assert sorted(covered - callers) == [], "row sites that a catalog pass never calls"


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
