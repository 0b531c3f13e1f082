"""Reusable verification suites.

Each helper runs one family of identity checks over sampled points and
seeded fields and returns CheckRecords. Only ``engine_health_records``
records a bad sample (a ``GeometryError``) as a failure with a note and goes
on; the other suites let the error propagate, and ``run_scenario`` turns it
into a failed report for the whole scenario.

The O'Neill suites open their own evaluation scope, which shares
``run_scenario``'s when nested. ``a_crossval_records``,
``t_umbilicity_records`` and ``engine_health_records`` are each one rows
kernel (``_crossval_rows``, ``_umbilicity_rows``, ``_health_rows``) handed
to the block pass ``submersion._add_in_blocks``. The O'Neill kernels
compute A or T over the block, on fixed field pairs and on the fields that
belong to each point (``manifold.PointFields``): the extensions of a
point's own vectors, and its vertical basis vectors, with one set call per
field pair and block, whose walks fetch the splittings and dilations at
their stencil points as sets. ``engine_health_records`` opens no scope: its
kernel hands the block's checked metrics to one ``christoffels`` call, its
Christoffel symbols to the point-set covariant derivatives, and the form
of g(Y, Z) to one set ``directional``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .connection import _covariant_derivatives, _lie_brackets, christoffels
from .errors import ConfigurationError, GeometryError
from .fd import DiffEngine
from .fields import field_pairs, modulated_constants, vector_field_library
from .manifold import (
    ChartManifold,
    PointFields,
    ScalarField,
    VectorField,
    _single,
    check_scalar_field,
    evaluation_scope,
)
from .report import TOLERANCES, CheckRecord, ResidualCheck, residual_scale, residual_scales
from .submersion import (
    SubmersionContext,
    _add_in_blocks,
    _blocks,
    _conformal_a_formulas,
    _fiber_mean_curvatures,
    _gram_schmidt,
    _horizontal,
    _in_blocks,
    _inner,
    _oneills,
    _vertical,
)

Array = np.ndarray


def engine_health_records(
    M: ChartManifold,
    engine: DiffEngine,
    points: Sequence[Array],
    rng: np.random.Generator,
    torsion_tol: float = TOLERANCES["torsion-free"],
    compat_tol: float = TOLERANCES["metric-compatibility"],
) -> list[CheckRecord]:
    """Torsion-free and metric-compatibility residuals of the connection; the
    metric is evaluated and checked once per point, and each field is read
    once per point. The samples are one block pass of ``_health_rows``
    (``_add_in_blocks``), whose residuals, and their order, are those of a
    point-by-point walk; X g(Y, Z) is one set ``directional`` per block,
    which evaluates g(Y, Z) at the block's stencil points in one call of
    its point-set form. A point that raises a ``GeometryError`` counts once
    against each check, with a note (``_health_row``)."""
    checks = [ResidualCheck("torsion-free", torsion_tol),
              ResidualCheck("metric-compatibility", compat_tol)]
    rows = partial(_health_rows, M, engine, vector_field_library(M, rng, 3))
    _add_in_blocks(checks, rows, points, partial(_health_row, rows, checks))
    return [check.record() for check in checks]


# the row of a failed sample: an infinite residual in both checks
_FAILED_SAMPLE = np.array([[np.inf, 1.0], [np.inf, 1.0]])


def _health_row(rows, checks: list, c: Array) -> Array:
    """``rows`` at the point ``c`` alone; a point that raises a
    ``GeometryError`` gets ``_FAILED_SAMPLE``, and its note goes to each
    check of ``checks``."""
    try:
        return rows(c[None])[0]
    except GeometryError as exc:
        for check in checks:
            check.note(f"error at {c}: {exc}")
        return _FAILED_SAMPLE


def _health_rows(M: ChartManifold, engine: DiffEngine, fields, coords: Array) -> Array:
    """The (residual, scale) of the torsion and compatibility checks at each
    row of the (N, dim) array ``coords``, as an (N, 2, 2) array: each field
    is read at the block's points once, the block's checked metrics go to
    one ``christoffels`` call, and its Christoffel symbols to the point-set
    covariant derivatives; X g(Y, Z) is one set ``directional`` handed the
    point-set form of g(Y, Z) (``_metric_inner_form``)."""
    X, Y, Z = fields
    x, y, z = (F.values_at(coords) for F in fields)
    G = np.array(M.metrics_at(coords, check=True))
    gammas = christoffels(M, engine, coords, G)

    def nabla(v, B, b):
        return _covariant_derivatives(M, engine, v, B, coords, gammas, b)

    dxy, dyx = nabla(x, Y, y), nabla(y, X, x)
    br = _lie_brackets(M, engine, X, Y, coords, (x, y))
    dxz = nabla(x, Z, z)
    form = _metric_inner_form(M, Y, Z)
    lhs = engine.directional(_single(form), coords, x, M.lower, M.upper, stack=form)
    rhs = _inner(dxy, G, z)[:, 0] + _inner(y, G, dxz)[:, 0]
    torsion = dxy - dyx - br
    return np.stack([
        np.stack([np.abs(torsion).max(axis=1), residual_scales(dxy, dyx, br)], axis=1),
        np.stack([np.abs(lhs - rhs), 1.0 + np.maximum(np.abs(lhs), np.abs(rhs))], axis=1),
    ], axis=1)


def _metric_inner_form(M: ChartManifold, Y: VectorField, Z: VectorField):
    """The point-set form of c -> g(Y(c), Z(c)) with the unchecked metric of
    ``M``: the fields' values and the metrics of a set, each read in one
    call, and one stacked product."""
    return lambda coords: _inner(Y.values_at(coords), np.array(M.metrics_at(coords)),
                                 Z.values_at(coords))[:, 0]


def splitting_records(
    ctx: SubmersionContext,
    points: Sequence[Array],
    rng: np.random.Generator,
    tolerance: float = TOLERANCES["split-decomposition"],
) -> CheckRecord:
    """v = Vv + Hv with J Vv = 0 and g(Vv, Hv) = 0, idempotently, for one
    uniform draw v per point.

    Each block of ``POINT_BLOCK`` points is one set of stacked calls: one
    ``splittings_at``, one ``rng.uniform`` (the same stream as one draw per
    point) and one product per term on the stacked projectors, Jacobians
    and metrics. numpy's stacked products give each point the bits of its
    own call, so every residual, and its order, is that of a point-by-point
    walk. A point's residual is the largest of its four terms, NaN when any
    of them is NaN.
    """
    check = ResidualCheck("split-decomposition", tolerance)
    dim = ctx.map.source.dim
    for block in _blocks(points):
        splittings = ctx.splittings_at(block)
        v = rng.uniform(-1.0, 1.0, size=(len(block), dim))
        P = np.stack([s.projector_v for s in splittings])
        J = np.stack([s.jacobian for s in splittings])
        G = np.stack([s.metric for s in splittings])
        smax = np.array([s.singular_values[0] for s in splittings])
        vert = _vertical(P, v)
        horiz = v - vert
        terms = np.stack([
            np.max(np.abs(v - vert - horiz), axis=1),
            np.max(np.abs(J @ vert[:, :, None]), axis=(1, 2)) / (1.0 + smax),
            np.abs(_inner(vert, G, horiz)[:, 0]),
            np.max(np.abs(_vertical(P, horiz)), axis=1),  # idempotence
        ], axis=1)
        for residual, scale in zip(np.max(terms, axis=1), 1.0 + np.max(np.abs(v), axis=1)):
            check.add(residual, scale)
    return check.record()


def dilation_records(
    ctx: SubmersionContext,
    points: Sequence[Array],
    expected_lambda_sq: Optional[Callable[[Array], float]],
    conformality_tol: float = TOLERANCES["conformality"],
    value_tol: float = TOLERANCES["dilation-value"],
    check_prefix: str = "",
    expect_conformal: bool = True,
) -> list[CheckRecord]:
    """Anisotropy stays at 1 (or fails, for negative scenarios) and the
    squared dilation matches the scenario's closed form when given."""
    conf = ResidualCheck(check_prefix + "conformality", conformality_tol,
                         expected_fail=not expect_conformal,
                         informational=not expect_conformal)
    records = []
    value: Optional[ResidualCheck] = None
    if expected_lambda_sq is not None:
        value = ResidualCheck(check_prefix + "dilation-value", value_tol)
    for p, d in _in_blocks(ctx.dilations, points):
        conf.add(d.anisotropy - 1.0)
        if value is not None:
            want = float(expected_lambda_sq(p))
            value.add(abs(d.lambda_sq - want), abs(want))
    if not expect_conformal:
        fails = sum(1 for r in conf.residuals if r > conformality_tol)
        conf.note(f"non-conformal at {fails}/{len(conf.residuals)} points")
    records.append(conf.record())
    if value is not None:
        records.append(value.record())
    return records


def horizontal_pairs(
    ctx: SubmersionContext, rng: np.random.Generator, n_pairs: int
) -> list[tuple[VectorField, VectorField]]:
    """Seeded library field pairs projected pointwise onto the horizontal space."""
    return [(ctx.horizontal_field(X), ctx.horizontal_field(Y))
            for X, Y in field_pairs(ctx.map.source, rng, n_pairs)]


def a_crossval_records(
    ctx: SubmersionContext,
    points: Sequence[Array],
    rng: np.random.Generator,
    tolerance: float = TOLERANCES["a-vs-bracket-formula"],
) -> list[CheckRecord]:
    """O'Neill A evaluated literally agrees with the bracket/dilation-gradient
    formula, and is insensitive to how horizontal vectors are extended.

    The samples are one block pass of ``_crossval_rows``
    (``_add_in_blocks``), whose residuals, and their order, are those of a
    point-by-point walk."""
    crossval = ResidualCheck("a-vs-bracket-formula", tolerance)
    extension = ResidualCheck("a-extension-independence", tolerance)
    pairs = horizontal_pairs(ctx, rng, 2)
    with evaluation_scope():
        _add_in_blocks([crossval, extension, extension] * len(pairs),
                       partial(_crossval_rows, ctx, pairs), points)
    return [crossval.record(), extension.record()]


def _crossval_rows(ctx: SubmersionContext, pairs, coords: Array) -> Array:
    """The (residual, scale) of the three samples of ``a_crossval_records``
    per pair at each row of the (N, dim) array ``coords``, as an
    (N, 3 * pairs, 2) array: A and the formula of each fixed pair from one
    ``_oneills`` and one ``_conformal_a_formulas`` call over the set, and A
    of each extension of the points' own vectors, fields of their points
    (``PointFields``), from one ``_oneills`` call over the set."""
    M = ctx.map.source
    rows = [[] for _ in coords]
    for X, Y in pairs:
        a_direct = _oneills(ctx, _horizontal, X, Y, coords)
        a_formula = _conformal_a_formulas(ctx, X, Y, coords)
        # same horizontal vectors at each point, different extensions
        x, y = X.values_at(coords), Y.values_at(coords)
        x_const = ctx.horizontal_field(PointFields.constant(x))
        y_const = ctx.horizontal_field(PointFields.constant(y))
        x_mod = ctx.horizontal_field(modulated_constants(x, 0, coords))
        y_mod = ctx.horizontal_field(modulated_constants(y, M.dim - 1, coords))
        a_ext1 = _oneills(ctx, _horizontal, x_const, y_const, coords)
        a_ext2 = _oneills(ctx, _horizontal, x_mod, y_mod, coords)
        for row, direct, formula, ext1, ext2 in zip(rows, a_direct, a_formula, a_ext1, a_ext2):
            row += [(np.linalg.norm(direct - formula), residual_scale(direct, formula)),
                    (np.linalg.norm(ext1 - ext2), residual_scale(ext1, ext2)),
                    (np.linalg.norm(ext1 - direct), residual_scale(ext1, direct))]
    return np.array(rows, dtype=float)


def t_umbilicity_records(
    ctx: SubmersionContext,
    points: Sequence[Array],
    rng: np.random.Generator,
    tolerance: float = TOLERANCES["t-umbilical"],
) -> CheckRecord:
    """T restricted to vertical pairs is g(U, W) H with H the fiber mean
    curvature obtained by tracing T over an orthonormal vertical basis.

    Each point draws two pairs of coefficient vectors U, W, from one
    ``rng.uniform`` call for all points: the same stream as the draws of a
    point-by-point walk, point after point. The samples are one block pass
    of ``_umbilicity_rows`` (``_add_in_blocks``) over the points with their
    draws, whose residuals, and their order, are that walk's; a point whose
    fibers are points adds one zero sample and draws nothing."""
    check = ResidualCheck("t-umbilical", tolerance)
    nv = ctx.map.source.dim - ctx.map.target.dim  # the vertical dimension of every splitting
    draws = rng.uniform(-1.0, 1.0, size=(len(points), 4 * max(nv, 0)))
    with evaluation_scope():
        samples = np.hstack([np.reshape(points, (len(points), ctx.map.source.dim)), draws])
        _add_in_blocks([check] * (2 if nv > 0 else 1), partial(_umbilicity_rows, ctx), samples)
    return check.record()


def _umbilicity_rows(ctx: SubmersionContext, samples: Array) -> Array:
    """The (residual, scale) of the two samples of ``t_umbilicity_records`` at
    each row of ``samples``, a point's coordinates followed by its draws
    (U, W, U, W), as an (N, 2, 2) array, or a zero sample per point when the
    fibers are points: the block's vertical bases, their mean curvatures
    (``_fiber_mean_curvatures``), and T of each pair's constant extensions
    (``PointFields``) from one ``_oneills`` call over the set."""
    dim = ctx.map.source.dim
    nv = (samples.shape[1] - dim) // 4
    coords = np.ascontiguousarray(samples[:, :dim])
    splittings = ctx.splittings_at(coords)
    if nv == 0:
        return np.tile([[[0.0, 1.0]]], (len(coords), 1, 1))
    G = np.stack([s.metric for s in splittings])
    # ambient-metric-orthonormal vertical bases
    bases = _gram_schmidt(np.stack([s.vertical for s in splittings]), G)
    mean = _fiber_mean_curvatures(ctx, bases, coords)
    draws = samples[:, dim:].reshape(len(coords), 4, nv)
    rows = [[] for _ in coords]
    for k in (0, 2):
        # contiguous draws, as each point's own draw is, for the stacked product
        cu = (bases @ np.ascontiguousarray(draws[:, k])[:, :, None])[:, :, 0]
        cw = (bases @ np.ascontiguousarray(draws[:, k + 1])[:, :, None])[:, :, 0]
        t_val = _oneills(ctx, _vertical, PointFields.constant(cu), PointFields.constant(cw),
                         coords)
        expected = _inner(cu, G, cw) * mean
        for row, t, e in zip(rows, t_val, expected):
            row.append((np.linalg.norm(t - e), residual_scale(t, e)))
    return np.array(rows, dtype=float)


def fd_consistency_record(
    engine: DiffEngine,
    scalar_checks: Sequence[tuple[ChartManifold, ScalarField]],
    map_checks: Sequence,
    points_by_manifold: dict,
    tolerance: float = TOLERANCES["fd-consistency"],
) -> CheckRecord:
    """Analytic partials and Jacobians agree with their FD counterparts, at
    the points ``points_by_manifold`` holds for their chart (keyed by
    ``id(chart)``); a listed field or map whose chart has none raises
    ``ConfigurationError``, naming the chart."""
    check = ResidualCheck("fd-consistency", tolerance)

    def spot(M: ChartManifold, what: str):
        pts = points_by_manifold.get(id(M))
        if not pts:
            raise ConfigurationError(
                f"fd-consistency has no points on chart {M.name!r} for {what}"
            )
        return pts

    for M, phi in scalar_checks:
        check.add(check_scalar_field(M, engine, phi, spot(M, "a scalar field")))
    for smap in map_checks:
        check.add(smap.check_jacobian(engine, spot(smap.source, f"map {smap.name!r}")))
    return check.record()
