"""Warped products of chart manifolds.

The ambient manifold of first x_f second carries block coordinates
(first coords, second coords) and the block-diagonal metric
diag(g1(p1), f(p1)^2 g2(p2)). ``WarpedProduct.block`` is the one owner of
that layout: every move between a factor and the ambient chart goes through
it, ``pad`` (which zero-pads factor rows into the ambient dimension),
``split_coords`` or ``lift``.

``second_fundamental_form`` evaluates its own metric and Christoffel
symbols; ``verify_leaf_fiber_geometry`` hands a block's checked metrics
and Christoffel symbols to the same kernel (``connection._submanifold_form``),
which a single point calls on a stack of one.
Both connection verifiers are one rows kernel (``_connection_rows``,
``_leaf_fiber_rows``) handed to the block pass ``submersion._add_in_blocks``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence, Union

import numpy as np

from .connection import (
    SecondFundamentalFormAt,
    _covariant_derivatives,
    _submanifold_form,
    christoffels,
    coordinate_submanifold_form,
)
from .errors import WarpPositivityError
from .fd import DiffEngine
from .manifold import (
    ChartManifold,
    ScalarField,
    VectorField,
    _single,
    _with_stack,
    gradients,
    scalar_partials,
)
from .report import TOLERANCES, CheckRecord, ResidualCheck, residual_scale, residual_scales
from .submersion import _add_in_blocks

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
    zero-padding the other factor's block. A lifted VectorField is its
    point-set form (``manifold._single``): the factor field's values at the
    set's factor coordinates (``VectorField.values_at``, one call of the
    factor field's own form where it has one), written into the zero-padded
    rows of one array."""
    block = W.block(origin)
    if isinstance(field, ScalarField):
        partials = None
        if field.partials is not None:
            partials = lambda c: W.pad(origin, field.partials(c[block]))
        return ScalarField(lambda c: field(c[block]), partials)
    if isinstance(field, VectorField):
        def rows(coords):
            out = np.zeros((len(coords), W.ambient.dim))
            out[:, block] = field.values_at(coords[:, block])
            return out

        return VectorField(_single(rows))
    raise TypeError(f"cannot lift object of type {type(field).__name__}")


def projection_map(W: WarpedProduct, which: str):
    """Factor projection as a SmoothMap onto the intrinsic factor chart."""
    from .submersion import SmoothMap

    block = W.block(which)
    J = np.eye(W.ambient.dim)[block]
    return SmoothMap(W.ambient, getattr(W, which), lambda c: c[block], lambda c: J,
                     name=f"{which}-projection")


def second_fundamental_form(
    W: WarpedProduct, engine: DiffEngine, which: str, coords
) -> SecondFundamentalFormAt:
    """II and H at coords of the leaf (second coords frozen) or fiber (first
    frozen)."""
    if which == "leaf":
        axes = W.first_axes()
    elif which == "fiber":
        axes = W.second_axes()
    else:
        raise ValueError(f"which must be 'leaf' or 'fiber', got {which!r}")
    return coordinate_submanifold_form(W.ambient, engine, axes, coords)


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
    Residuals are scaled by 1 + max |entry| per sample. The samples are one
    block pass of ``_connection_rows`` (``_add_in_blocks``): the ambient and
    the two factor Christoffel symbols of a block come from one
    ``christoffels`` call per chart and each covariant derivative from one
    stacked walk; each of the three metrics is evaluated and checked once
    per point. Every residual, and its order, is that of a point-by-point
    walk.
    """
    checks = [
        ResidualCheck("warped-conn-first-pair", tolerance),
        ResidualCheck("warped-conn-mixed", tolerance),
        ResidualCheck("warped-conn-fiber-normal", tolerance),
        ResidualCheck("warped-conn-fiber-tangent", tolerance),
    ]
    columns = ([checks[0]] * len(pairs1) + [checks[1]] * min(len(pairs1), len(pairs2))
               + [checks[2], checks[3]] * len(pairs2))
    _add_in_blocks(columns, partial(_connection_rows, W, engine, pairs1, pairs2), points)
    return [c.record() for c in checks]


def _scaled(rows: list, residual_of, *terms) -> None:
    """Appends ``(residual_of(*t), residual_scale(*t))`` for the terms t at
    each point of the stacks or lists ``terms`` to that point's list of
    ``rows``."""
    for row, t in zip(rows, zip(*terms)):
        row.append((residual_of(*t), residual_scale(*t)))


def _connection_rows(W: WarpedProduct, engine: DiffEngine, pairs1, pairs2,
                     coords: Array) -> Array:
    """The (residual, scale) of each sample of ``verify_warped_connection``
    at each row of the (N, dim) array ``coords``, in its order, as an
    (N, samples, 2) array."""
    first, second = W.block("first"), W.block("second")
    lifts1 = [(lift(W, "first", E1), lift(W, "first", F1)) for E1, F1 in pairs1]
    lifts2 = [(lift(W, "second", E2), lift(W, "second", F2)) for E2, F2 in pairs2]
    c1, c2 = coords[:, first], coords[:, second]
    G = W.ambient.metrics_at(coords, check=True)
    gammas = christoffels(W.ambient, engine, coords, G)
    gammas1 = christoffels(W.first, engine, c1)
    gammas2 = christoffels(W.second, engine, c2)

    def nabla(M, X, Y, coords, gammas):
        return _covariant_derivatives(M, engine, X.values_at(coords), Y, coords, gammas)

    rows = [[] for _ in coords]
    for (E1, F1), (E1l, F1l) in zip(pairs1, lifts1):
        lhs = nabla(W.ambient, E1l, F1l, coords, gammas)
        factor = nabla(W.first, E1, F1, c1, gammas1)
        _scaled(rows, lambda a, b: np.linalg.norm(a - b), lhs, [W.pad("first", f) for f in factor])

    for (E1, _), (E1l, _), (E2l, _) in zip(pairs1, lifts1, lifts2):
        lhs_a = nabla(W.ambient, E1l, E2l, coords, gammas)
        lhs_b = nabla(W.ambient, E2l, E1l, coords, gammas)
        rhs = [(float(np.dot(scalar_partials(W.first, engine, W.warp, a), e1)) / W.warp(a)) * e2
               for a, e1, e2 in zip(c1, E1.values_at(c1), E2l.values_at(coords))]
        _scaled(rows, lambda a, b, r: np.maximum(np.linalg.norm(a - r), np.linalg.norm(b - r)),
                lhs_a, lhs_b, rhs)

    # gradients checks that each point is in the box
    grad_log = gradients(W.ambient, engine, W.log_warp(), coords, G)
    for (E2, F2), (E2l, F2l) in zip(pairs2, lifts2):
        full = nabla(W.ambient, E2l, F2l, coords, gammas)
        rhs3 = [-float(e @ g @ f) * grad for e, g, f, grad in
                zip(E2l.values_at(coords), G, F2l.values_at(coords), grad_log)]
        _scaled(rows, lambda a, b: np.linalg.norm(a - b),
                [W.pad("first", v[first]) for v in full], rhs3)
        rhs4 = nabla(W.second, E2, F2, c2, gammas2)
        _scaled(rows, lambda a, b: np.linalg.norm(a - b), full[:, second], rhs4)
    return np.array(rows, dtype=float)


def verify_leaf_fiber_geometry(
    W: WarpedProduct,
    engine: DiffEngine,
    points: Sequence[Array],
    leaf_tolerance: float = TOLERANCES["leaf-totally-geodesic"],
    fiber_tolerance: float = TOLERANCES["fiber-umbilical"],
) -> list[CheckRecord]:
    """Leaves are totally geodesic; fibers are totally umbilical with
    mean curvature -grad(ln f). Leaf and fiber share one ambient Christoffel
    and one checked ambient metric per point; the samples are one block
    pass of ``_leaf_fiber_rows`` (``_add_in_blocks``), so the Christoffel
    symbols of a block come from one ``christoffels`` call, and its leaves'
    and fibers' second fundamental forms from one kernel call each."""
    checks = [ResidualCheck("leaf-totally-geodesic", leaf_tolerance),
              ResidualCheck("fiber-umbilical", fiber_tolerance),
              ResidualCheck("fiber-mean-curvature-warp", fiber_tolerance)]
    _add_in_blocks(checks, partial(_leaf_fiber_rows, W, engine), points)
    return [c.record() for c in checks]


def _leaf_fiber_rows(W: WarpedProduct, engine: DiffEngine, coords: Array) -> Array:
    """The (residual, scale) of the three checks of
    ``verify_leaf_fiber_geometry`` at each row of the (N, dim) array
    ``coords``, as an (N, 3, 2) array: the block's checked metrics and
    Christoffel symbols go to one second fundamental form kernel call per
    submanifold (``connection._submanifold_form``)."""
    second = W.block("second")
    G = np.array(W.ambient.metrics_at(coords, check=True))
    gammas = np.array(christoffels(W.ambient, engine, coords, G))
    grad_log = gradients(W.ambient, engine, W.log_warp(), coords, G)
    leaf, _ = _submanifold_form(G, gammas, W.first_axes())
    fiber, mean = _submanifold_form(G, gammas, W.second_axes())
    expected = np.einsum("nab,nk->nabk", G[:, second, second], mean)
    leaf_top = np.abs(leaf).max(axis=(1, 2, 3))
    return np.stack([
        np.stack([leaf_top, 1.0 + leaf_top], axis=1),
        np.stack([np.abs(fiber - expected).max(axis=(1, 2, 3)), residual_scales(fiber, expected)],
                 axis=1),
        # per vector: a stacked norm sums in another order
        np.stack([[np.linalg.norm(v) for v in mean + grad_log], residual_scales(mean, grad_log)],
                 axis=1),
    ], axis=1)


def verify_metric_blocks(W: WarpedProduct, points: Sequence[Array]) -> CheckRecord:
    """Cross blocks of the ambient metric are identically zero (exact)."""
    check = ResidualCheck("metric-blocks", TOLERANCES["metric-blocks"])
    first, second = W.block("first"), W.block("second")
    for g in W.ambient.metrics_at(points, check=True):
        check.add(float(np.max(np.abs(g[first, second]))) + float(np.max(np.abs(g[second, first]))))
    return check.record()
