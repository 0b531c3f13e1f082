"""Warped products of chart manifolds.

The ambient manifold of first x_f second carries block coordinates
(first coords, second coords) and the block-diagonal metric
diag(g1(p1), f(p1)^2 g2(p2)). Lifts of factor fields are zero-padded into
the matching block; vertical/horizontal-by-block reasoning keys off index
ranges throughout.
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

    def split_coords(self, coords) -> tuple[Array, Array]:
        coords = np.asarray(coords, dtype=float)
        return coords[: self.first.dim], coords[self.first.dim :]

    def first_axes(self) -> tuple:
        return tuple(range(self.first.dim))

    def second_axes(self) -> tuple:
        return tuple(range(self.first.dim, self.first.dim + self.second.dim))

    def point(self, coords1, coords2) -> Array:
        """The ambient coordinates (coords1, coords2), checked by the ambient chart."""
        return self.ambient.point(np.concatenate([np.atleast_1d(coords1), np.atleast_1d(coords2)]))

    def log_warp(self) -> ScalarField:
        """ln f as a field on the ambient chart (depends on first coords only)."""
        m1 = self.first.dim
        dim = self.ambient.dim
        warp = self.warp

        def fn(c):
            return float(np.log(warp(c[:m1])))

        if warp.partials is None:
            return ScalarField(fn)

        def partials(c):
            out = np.zeros(dim)
            out[:m1] = np.asarray(warp.partials(c[:m1]), dtype=float) / warp(c[:m1])
            return out

        return ScalarField(fn, partials)


def build_warped_product(
    first: ChartManifold, second: ChartManifold, warp: ScalarField, name: str = ""
) -> WarpedProduct:
    """Assemble the ambient chart with metric diag(g1, f^2 g2).

    The warp is validated lazily: any evaluation with f <= 0 raises
    WarpPositivityError, so sampling suites surface violations with the
    offending point.
    """
    m1, m2 = first.dim, second.dim
    dim = m1 + m2

    def metric(coords):
        c1, c2 = coords[:m1], coords[m1:]
        f = warp(c1)
        if f <= 0.0:
            raise WarpPositivityError(f"warp {f} <= 0 at first-factor point {c1}")
        g = np.zeros((dim, dim))
        g[:m1, :m1] = first.metric_at(c1, check=False)
        g[m1:, m1:] = (f * f) * second.metric_at(c2, check=False)
        return g

    ambient = ChartManifold(
        dim,
        np.concatenate([first.lower, second.lower]),
        np.concatenate([first.upper, second.upper]),
        metric,
        name=name or f"({first.name})x_warp({second.name})",
    )
    return WarpedProduct(first, second, warp, ambient)


def lift(W: WarpedProduct, origin: str, field) -> Union[ScalarField, VectorField]:
    """Lift a factor ScalarField or VectorField to the ambient chart,
    zero-padding the other factor's block."""
    if origin not in ("first", "second"):
        raise ValueError(f"origin must be 'first' or 'second', got {origin!r}")
    m1, m2 = W.first.dim, W.second.dim

    if isinstance(field, ScalarField):
        if origin == "first":
            fn = lambda c: field(c[:m1])
            partials = None
            if field.partials is not None:
                def partials(c):
                    out = np.zeros(m1 + m2)
                    out[:m1] = field.partials(c[:m1])
                    return out
        else:
            fn = lambda c: field(c[m1:])
            partials = None
            if field.partials is not None:
                def partials(c):
                    out = np.zeros(m1 + m2)
                    out[m1:] = field.partials(c[m1:])
                    return out
        return ScalarField(fn, partials)

    if isinstance(field, VectorField):
        if origin == "first":
            fn = lambda c: np.concatenate([field(c[:m1]), np.zeros(m2)])
        else:
            fn = lambda c: np.concatenate([np.zeros(m1), field(c[m1:])])
        return VectorField(fn)

    raise TypeError(f"cannot lift object of type {type(field).__name__}")


def projection_map(W: WarpedProduct, which: str):
    """Factor projection as a SmoothMap onto the intrinsic factor chart."""
    from .submersion import SmoothMap

    m1, m2 = W.first.dim, W.second.dim
    if which == "first":
        J = np.hstack([np.eye(m1), np.zeros((m1, m2))])
        return SmoothMap(W.ambient, W.first, lambda c: c[:m1], lambda c: J,
                         name="first-projection")
    if which == "second":
        J = np.hstack([np.zeros((m2, m1)), np.eye(m2)])
        return SmoothMap(W.ambient, W.second, lambda c: c[m1:], lambda c: J,
                         name="second-projection")
    raise ValueError(f"which must be 'first' or 'second', got {which!r}")


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
    m1 = W.first.dim
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
            rhs = np.concatenate([factor, np.zeros(W.second.dim)])
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
            normal = np.concatenate([full[:m1], np.zeros(W.second.dim)])
            rhs3 = -inner * grad_log
            checks[2].add(np.linalg.norm(normal - rhs3), residual_scale(normal, rhs3))

            tangent = full[m1:]
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

    for p in points:
        g = W.ambient.metric_at(p)
        gamma = christoffel(W.ambient, engine, p, g)
        leaf = second_fundamental_form(W, engine, "leaf", p, gamma, g)
        leaf_check.add(np.max(np.abs(leaf.values)), residual_scale(leaf.values))

        fiber = second_fundamental_form(W, engine, "fiber", p, gamma, g)
        induced = g[np.ix_(list(W.second_axes()), list(W.second_axes()))]
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
    m1 = W.first.dim
    for p in points:
        g = W.ambient.metric_at(p)
        check.add(float(np.max(np.abs(g[:m1, m1:]))) + float(np.max(np.abs(g[m1:, :m1]))))
    return check.record()
