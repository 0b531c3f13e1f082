"""Reusable verification suites.

Each helper runs one family of identity checks over sampled points and
seeded fields and returns CheckRecords. Only ``engine_health_records``
records a bad sample (a ``GeometryError``) as a failure with a note and goes
on; the other suites let the error propagate, and ``run_scenario`` turns it
into a failed report for the whole scenario.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .connection import christoffel, covariant_derivative, lie_bracket
from .errors import GeometryError
from .fd import DiffEngine
from .fields import modulated, vector_field_library
from .manifold import ChartManifold, ScalarField, VectorField, check_scalar_field
from .report import TOLERANCES, CheckRecord, ResidualCheck, residual_scale
from .submersion import (
    SubmersionContext,
    _gram_schmidt,
    _in_blocks,
    _warm_parts,
    conformal_a_formula,
    fiber_mean_curvature,
    oneill_a,
    oneill_t,
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
    """Torsion-free and metric-compatibility residuals of the connection."""
    torsion = ResidualCheck("torsion-free", torsion_tol)
    compat = ResidualCheck("metric-compatibility", compat_tol)
    fields = vector_field_library(M, rng, 3)
    X, Y, Z = fields

    def g_inner_field(c):
        g = M.metric_at(c, check=False)
        return float(Y(c) @ g @ Z(c))

    for p in points:
        try:
            gamma = christoffel(M, engine, p)
            dxy = covariant_derivative(M, engine, X, Y, p, gamma)
            dyx = covariant_derivative(M, engine, Y, X, p, gamma)
            br = lie_bracket(M, engine, X, Y, p)
            dxz = covariant_derivative(M, engine, X, Z, p, gamma)
            g = M.metric_at(p)
            lhs = engine.directional(g_inner_field, p, X(p), M.lower, M.upper)
        except GeometryError as exc:
            # a failed sample counts once against each check
            for check in (torsion, compat):
                check.add(np.inf)
                check.note(f"error at {p}: {exc}")
            continue
        torsion.add(np.max(np.abs(dxy - dyx - br)), residual_scale(dxy, dyx, br))
        rhs = float(dxy @ g @ Z(p)) + float(Y(p) @ g @ dxz)
        compat.add(abs(lhs - rhs), 1.0 + max(abs(lhs), abs(rhs)))
    return [torsion.record(), compat.record()]


def splitting_records(
    ctx: SubmersionContext,
    points: Sequence[Array],
    rng: np.random.Generator,
    tolerance: float = TOLERANCES["split-decomposition"],
) -> CheckRecord:
    """v = Vv + Hv with J Vv = 0 and g(Vv, Hv) = 0, idempotently."""
    check = ResidualCheck("split-decomposition", tolerance)
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
    """Seeded library fields projected pointwise onto the horizontal space."""
    fields = vector_field_library(ctx.map.source, rng, 2 * n_pairs)
    projected = [ctx.horizontal_field(F) for F in fields]
    return [(projected[2 * i], projected[2 * i + 1]) for i in range(n_pairs)]


def a_crossval_records(
    ctx: SubmersionContext,
    points: Sequence[Array],
    rng: np.random.Generator,
    tolerance: float = TOLERANCES["a-vs-bracket-formula"],
    n_pairs: int = 2,
    lambda_sq_field: Optional[ScalarField] = None,
) -> list[CheckRecord]:
    """O'Neill A evaluated literally agrees with the bracket/dilation-gradient
    formula, and is insensitive to how horizontal vectors are extended."""
    crossval = ResidualCheck("a-vs-bracket-formula", tolerance)
    extension = ResidualCheck("a-extension-independence", tolerance)
    pairs = horizontal_pairs(ctx, rng, n_pairs)
    M = ctx.map.source
    if lambda_sq_field is None:
        # the formula differentiates the context's own dilation along every axis
        ctx.warm_stencils(points, range(M.dim), dilations=True)
    else:
        _warm_parts(ctx, points, vertical=False)

    for p in points:
        gamma = christoffel(M, ctx.engine, p)
        for X, Y in pairs:
            a_direct = oneill_a(ctx, X, Y, p, gamma)
            a_formula = conformal_a_formula(ctx, X, Y, p, lambda_sq_field=lambda_sq_field)
            crossval.add(np.linalg.norm(a_direct - a_formula), residual_scale(a_direct, a_formula))

            # same horizontal vectors at p, different extensions
            x_const = ctx.horizontal_field(VectorField.constant(X(p)))
            y_const = ctx.horizontal_field(VectorField.constant(Y(p)))
            x_mod = ctx.horizontal_field(modulated(VectorField.constant(X(p)), 0, p))
            y_mod = ctx.horizontal_field(modulated(VectorField.constant(Y(p)), M.dim - 1, p))
            a_ext1 = oneill_a(ctx, x_const, y_const, p, gamma)
            a_ext2 = oneill_a(ctx, x_mod, y_mod, p, gamma)
            extension.add(np.linalg.norm(a_ext1 - a_ext2), residual_scale(a_ext1, a_ext2))
            extension.add(np.linalg.norm(a_ext1 - a_direct), residual_scale(a_ext1, a_direct))
    return [crossval.record(), extension.record()]


def t_umbilicity_records(
    ctx: SubmersionContext,
    points: Sequence[Array],
    rng: np.random.Generator,
    tolerance: float = TOLERANCES["t-umbilical"],
) -> CheckRecord:
    """T restricted to vertical pairs is g(U, W) H with H the fiber mean
    curvature obtained by tracing T over an orthonormal vertical basis."""
    check = ResidualCheck("t-umbilical", tolerance)
    M = ctx.map.source
    _warm_parts(ctx, points, vertical=True)
    for p in points:
        s = ctx.splitting_at(p)
        nv = s.vertical.shape[1]
        if nv == 0:
            check.add(0.0)
            continue
        g = M.metric_at(p, check=False)
        gamma = christoffel(M, ctx.engine, p)
        # ambient-metric-orthonormal vertical basis
        basis = _gram_schmidt(s.vertical, g)
        mean = fiber_mean_curvature(ctx, basis, p, gamma)

        for _ in range(2):
            cu = basis @ rng.uniform(-1.0, 1.0, size=nv)
            cw = basis @ rng.uniform(-1.0, 1.0, size=nv)
            t_val = oneill_t(ctx, VectorField.constant(cu), VectorField.constant(cw), p, gamma)
            expected = float(cu @ g @ cw) * mean
            check.add(np.linalg.norm(t_val - expected), residual_scale(t_val, expected))
    return check.record()


def fd_consistency_record(
    engine: DiffEngine,
    scalar_checks: Sequence[tuple[ChartManifold, ScalarField]],
    map_checks: Sequence,
    points_by_manifold: dict,
    tolerance: float = TOLERANCES["fd-consistency"],
) -> CheckRecord:
    """Analytic partials and Jacobians agree with their FD counterparts."""
    check = ResidualCheck("fd-consistency", tolerance)
    for M, phi in scalar_checks:
        pts = points_by_manifold.get(id(M), ())
        if pts:
            check.add(check_scalar_field(M, engine, phi, pts))
    for smap in map_checks:
        pts = points_by_manifold.get(id(smap.source), ())
        if pts:
            check.add(smap.check_jacobian(engine, pts))
    return check.record()
