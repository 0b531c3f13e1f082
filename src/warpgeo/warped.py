"""Warped products of chart manifolds.

The ambient manifold of first x_f second carries block coordinates
(first coords, second coords) and the block-diagonal metric
diag(g1(p1), f(p1)^2 g2(p2)). ``WarpedProduct.block`` is the one owner of
that layout: every move between a factor and the ambient chart goes through
it, ``pad`` (which zero-pads factor rows into the ambient dimension),
``split_coords`` or ``lift``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .connection import (
    coordinate_submanifold_form,
    covariant_derivative,
    christoffel,
    SecondFundamentalFormAt,
)
from .errors import WarpPositivityError
from .fd import DiffEngine
from .manifold import (
    ChartManifold,
    ScalarField,
    VectorField,
    _with_stack,
    gradient,
    scalar_partials,
)
from .report import TOLERANCES, CheckRecord, ResidualCheck, residual_scale

Array = np.ndarray


@dataclass(frozen=True)
class WarpedProduct:
    """first x_f second with its derived ambient chart."""

    first: ChartManifold
    second: ChartManifold
    warp: ScalarField
    ambient: ChartManifold

    def block(self, which: str) -> slice:
        """The ambient coordinate slice of factor ``which``: 'first' or 'second'."""
        m1 = self.first.dim
        if which == "first":
            return slice(0, m1)
        if which == "second":
            return slice(m1, m1 + self.second.dim)
        raise ValueError(f"factor must be 'first' or 'second', got {which!r}")

    def pad(self, which: str, values) -> Array:
        """Factor rows zero-padded into the ambient dimension: a factor vector
        of shape (m,) becomes (dim,), a basis of shape (m, k) becomes (dim, k)."""
        values = np.asarray(values, dtype=float)
        out = np.zeros((self.ambient.dim,) + values.shape[1:])
        out[self.block(which)] = values
        return out

    def split_coords(self, coords) -> tuple[Array, Array]:
        coords = np.asarray(coords, dtype=float)
        return coords[self.block("first")], coords[self.block("second")]

    def first_axes(self) -> tuple:
        return tuple(range(self.ambient.dim)[self.block("first")])

    def second_axes(self) -> tuple:
        return tuple(range(self.ambient.dim)[self.block("second")])

    def point(self, coords1, coords2) -> Array:
        """The ambient coordinates (coords1, coords2), checked by the ambient chart."""
        return self.ambient.point(np.concatenate([np.atleast_1d(coords1), np.atleast_1d(coords2)]))

    def log_warp(self) -> ScalarField:
        """ln f as a field on the ambient chart (depends on first coords only)."""
        warp = self.warp
        partials = None
        if warp.partials is not None:
            partials = lambda c: np.asarray(warp.partials(c), dtype=float) / warp(c)
        return lift(self, "first", ScalarField(lambda c: float(np.log(warp(c))), partials))


def build_warped_product(
    first: ChartManifold, second: ChartManifold, warp: ScalarField, name: str = ""
) -> WarpedProduct:
    """Assemble the ambient chart with metric diag(g1, f^2 g2).

    The warp is validated lazily: any evaluation with f <= 0, NaN or inf raises
    WarpPositivityError, so sampling suites surface violations with the
    offending point. The ambient metric of a point set (``metrics_at``) is
    assembled from the factors' metric stacks and one warp value per point.
    """
    m1 = first.dim
    dim = m1 + second.dim
    first_block, second_block = slice(0, m1), slice(m1, dim)

    blocks = (first_block, second_block)

    def metric(coords):
        c1, c2 = coords[first_block], coords[second_block]
        f = warp(c1)
        if not 0.0 < f < np.inf:  # NaN fails every comparison
            raise WarpPositivityError(f"warp {f} is not in (0, inf) at first-factor point {c1}")
        return _warped_metric(np.zeros((dim, dim)), blocks, first._raw_metric(c1), f,
                              second._raw_metric(c2))

    def metrics(coords):
        c1, c2 = coords[:, first_block], coords[:, second_block]
        f = np.array([warp(c) for c in c1])
        if not np.all((f > 0.0) & (f < np.inf)):
            # _point_set redoes the set point by point: the first one raises
            raise WarpPositivityError("warp not in (0, inf)")
        return _warped_metric(np.zeros((len(coords), dim, dim)), blocks, first._raw_metrics(c1),
                              f[:, None, None], second._raw_metrics(c2))

    ambient = ChartManifold(
        dim,
        np.concatenate([first.lower, second.lower]),
        np.concatenate([first.upper, second.upper]),
        _with_stack(metric, metrics),
        name=name or f"({first.name})x_warp({second.name})",
    )
    return WarpedProduct(first, second, warp, ambient)


def _warped_metric(g: Array, blocks: tuple, g1: Array, f, g2: Array) -> Array:
    """diag(g1, f^2 g2), written into the zeros ``g`` along the first and
    second factor ``blocks``: at one point, or at each point of stacks g1
    (N, m1, m1), f (N, 1, 1) and g2 (N, m2, m2). Returns ``g``."""
    first, second = blocks
    g[..., first, first] = g1
    g[..., second, second] = (f * f) * g2
    return g


def lift(W: WarpedProduct, origin: str, field) -> Union[ScalarField, VectorField]:
    """Lift a factor ScalarField or VectorField to the ambient chart,
    zero-padding the other factor's block."""
    block = W.block(origin)
    if isinstance(field, ScalarField):
        partials = None
        if field.partials is not None:
            partials = lambda c: W.pad(origin, field.partials(c[block]))
        return ScalarField(lambda c: field(c[block]), partials)
    if isinstance(field, VectorField):
        return VectorField(lambda c: W.pad(origin, field(c[block])))
    raise TypeError(f"cannot lift object of type {type(field).__name__}")


def projection_map(W: WarpedProduct, which: str):
    """Factor projection as a SmoothMap onto the intrinsic factor chart."""
    from .submersion import SmoothMap

    block = W.block(which)
    J = np.eye(W.ambient.dim)[block]
    return SmoothMap(W.ambient, getattr(W, which), lambda c: c[block], lambda c: J,
                     name=f"{which}-projection")


def second_fundamental_form(
    W: WarpedProduct,
    engine: DiffEngine,
    which: str,
    coords,
    gamma: Optional[Array] = None,
    g: Optional[Array] = None,
) -> SecondFundamentalFormAt:
    """II and H at coords of the leaf (second coords frozen) or fiber (first
    frozen).

    ``gamma``, the ambient Christoffel symbols at coords, and ``g``, the
    checked ambient metric there, are built when not given.
    """
    if which == "leaf":
        axes = W.first_axes()
    elif which == "fiber":
        axes = W.second_axes()
    else:
        raise ValueError(f"which must be 'leaf' or 'fiber', got {which!r}")
    return coordinate_submanifold_form(W.ambient, engine, axes, coords, gamma, g)


def verify_warped_connection(
    W: WarpedProduct,
    engine: DiffEngine,
    points: Sequence[Array],
    pairs1: Sequence[tuple[VectorField, VectorField]],
    pairs2: Sequence[tuple[VectorField, VectorField]],
    tolerance: float = TOLERANCES["warped-conn-first-pair"],
) -> list[CheckRecord]:
    """The four ambient-connection identities of a warped product.

    For lifted factor fields E1, F1 (first) and E2, F2 (second):
      1. nabla_{E1} F1 is the lift of the first factor's nabla.
      2. nabla_{E1} E2 = nabla_{E2} E1 = (E1 f / f) E2.
      3. normal part of nabla_{E2} F2 = -g(E2, F2) grad(ln f).
      4. tangent part of nabla_{E2} F2 is the lift of the second factor's nabla.
    Residuals are scaled by 1 + max |entry| per sample. The ambient and the
    two factor Christoffel symbols are built once per point, and each of the
    three metrics is evaluated and checked once per point.
    """
    first, second = W.block("first"), W.block("second")
    checks = [
        ResidualCheck("warped-conn-first-pair", tolerance),
        ResidualCheck("warped-conn-mixed", tolerance),
        ResidualCheck("warped-conn-fiber-normal", tolerance),
        ResidualCheck("warped-conn-fiber-tangent", tolerance),
    ]
    log_warp = W.log_warp()

    for p in points:
        c1, c2 = W.split_coords(p)
        g = W.ambient.metric_at(p)
        gamma = christoffel(W.ambient, engine, p, g)
        gamma1 = christoffel(W.first, engine, c1)
        gamma2 = christoffel(W.second, engine, c2)

        for E1, F1 in pairs1:
            E1l = lift(W, "first", E1)
            F1l = lift(W, "first", F1)
            lhs = covariant_derivative(W.ambient, engine, E1l, F1l, p, gamma)
            factor = covariant_derivative(W.first, engine, E1, F1, c1, gamma1)
            rhs = W.pad("first", factor)
            checks[0].add(np.linalg.norm(lhs - rhs), residual_scale(lhs, rhs))

        for (E1, _), (E2, _) in zip(pairs1, pairs2):
            E1l = lift(W, "first", E1)
            E2l = lift(W, "second", E2)
            lhs_a = covariant_derivative(W.ambient, engine, E1l, E2l, p, gamma)
            lhs_b = covariant_derivative(W.ambient, engine, E2l, E1l, p, gamma)
            df_along = float(
                np.dot(scalar_partials(W.first, engine, W.warp, c1), E1(c1))
            )
            rhs = (df_along / W.warp(c1)) * E2l(p)
            res = max(np.linalg.norm(lhs_a - rhs), np.linalg.norm(lhs_b - rhs))
            checks[1].add(res, residual_scale(lhs_a, lhs_b, rhs))

        grad_log = gradient(W.ambient, engine, log_warp, p, g)  # checks p is in the box
        for E2, F2 in pairs2:
            E2l = lift(W, "second", E2)
            F2l = lift(W, "second", F2)
            full = covariant_derivative(W.ambient, engine, E2l, F2l, p, gamma)
            inner = float(E2l(p) @ g @ F2l(p))
            normal = W.pad("first", full[first])
            rhs3 = -inner * grad_log
            checks[2].add(np.linalg.norm(normal - rhs3), residual_scale(normal, rhs3))

            tangent = full[second]
            rhs4 = covariant_derivative(W.second, engine, E2, F2, c2, gamma2)
            checks[3].add(np.linalg.norm(tangent - rhs4), residual_scale(tangent, rhs4))

    return [c.record() for c in checks]


def verify_leaf_fiber_geometry(
    W: WarpedProduct,
    engine: DiffEngine,
    points: Sequence[Array],
    leaf_tolerance: float = TOLERANCES["leaf-totally-geodesic"],
    fiber_tolerance: float = TOLERANCES["fiber-umbilical"],
) -> list[CheckRecord]:
    """Leaves are totally geodesic; fibers are totally umbilical with
    mean curvature -grad(ln f). Leaf and fiber share one ambient Christoffel
    and one checked ambient metric per point."""
    leaf_check = ResidualCheck("leaf-totally-geodesic", leaf_tolerance)
    umb_check = ResidualCheck("fiber-umbilical", fiber_tolerance)
    mean_check = ResidualCheck("fiber-mean-curvature-warp", fiber_tolerance)
    log_warp = W.log_warp()
    second = W.block("second")

    for p in points:
        g = W.ambient.metric_at(p)
        gamma = christoffel(W.ambient, engine, p, g)
        leaf = second_fundamental_form(W, engine, "leaf", p, gamma, g)
        leaf_check.add(np.max(np.abs(leaf.values)), residual_scale(leaf.values))

        fiber = second_fundamental_form(W, engine, "fiber", p, gamma, g)
        induced = g[second, second]
        expected = np.einsum("ab,k->abk", induced, fiber.mean_curvature)
        umb_check.add(
            np.max(np.abs(fiber.values - expected)), residual_scale(fiber.values, expected)
        )

        grad_log = gradient(W.ambient, engine, log_warp, p, g)
        mean_check.add(
            np.linalg.norm(fiber.mean_curvature + grad_log),
            residual_scale(fiber.mean_curvature, grad_log),
        )

    return [leaf_check.record(), umb_check.record(), mean_check.record()]


def verify_metric_blocks(W: WarpedProduct, points: Sequence[Array]) -> CheckRecord:
    """Cross blocks of the ambient metric are identically zero (exact)."""
    check = ResidualCheck("metric-blocks", TOLERANCES["metric-blocks"])
    first, second = W.block("first"), W.block("second")
    for p in points:
        g = W.ambient.metric_at(p)
        check.add(float(np.max(np.abs(g[first, second]))) + float(np.max(np.abs(g[second, first]))))
    return check.record()
