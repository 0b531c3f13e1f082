"""Levi-Civita connection machinery.

Christoffel symbols come from the coordinate formula
Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij) with metric partials
taken by the finite-difference engine, as the array gamma[k, i, j].
Covariant derivatives, Lie brackets and second fundamental forms of
coordinate-aligned submanifolds build on it and return component arrays.

The Christoffel symbols, covariant derivatives, Lie brackets and second
fundamental forms each have one kernel over a point set, and a single
point is a stack of one. The first three walk ``DiffEngine.stacked_partials``,
which differentiates a lone point by ``partials``' own loop. The kernels
hand the walk the point-set forms they own: the Christoffel kernel the
chart's ``metrics_at``, the other two a field's form where it has one
(``manifold._with_stack``: the seeded affine and trigonometric fields, the
projected and lifted fields), so a set's stencil points are evaluated in
one call; they read a field's values at the set's points through
``VectorField.values_at``, one call of the same form, unless the caller
hands over the values it has read. The second fundamental form kernel
(``_submanifold_form``) takes the stacks of a set's checked metrics and
Christoffel symbols. numpy's stacked ``inv``, ``solve``, ``einsum`` and
``matmul`` give each point the bits of its own call, so a point's value
does not depend on the set it is computed in.

The single-point calls evaluate their own checked metric and Christoffel
symbols; only the set entry ``christoffels`` takes metrics, ones its caller
has just checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fd import DiffEngine
from .manifold import ChartManifold, VectorField, _given_or_checked, _memoized_many, _stack

Array = np.ndarray


def christoffel(M: ChartManifold, engine: DiffEngine, coords) -> Array:
    """Christoffel symbols of M at coords as gamma[k, i, j] = Gamma^k_ij.

    The metric is evaluated and checked here: ``christoffels`` on a stack
    of one."""
    return christoffels(M, engine, [coords])[0]


def christoffels(M: ChartManifold, engine: DiffEngine, coords_seq, metrics=None) -> list[Array]:
    """The Christoffel symbols at each point of ``coords_seq``, computed by
    one kernel for the points not yet stored: one stacked walk over their
    stencils. Inside an evaluation scope each array is memoized by chart,
    exact coordinates and engine, and is read-only.

    ``metrics``, when given, are the checked ``M.metric_at(c)`` a caller has
    just evaluated at the same points, so that each is evaluated once; any
    other array would skip the SPD check, and inside a scope the value
    computed from it is stored for every later call at that point."""
    coords = [np.asarray(c, dtype=float) for c in coords_seq]
    given = {} if metrics is None else {c.tobytes(): g for c, g in zip(coords, metrics)}
    return _memoized_many(M, coords, engine, lambda missing: _christoffels(
        M, engine, missing, [given.get(c.tobytes()) for c in missing]))


def _christoffels(M: ChartManifold, engine: DiffEngine, coords_list: list, metrics: list) -> list:
    """The Christoffel symbols at each point, as views of one stack; the
    metrics that are None are evaluated and checked here first, in one
    ``metrics_at`` call."""
    ginv = np.linalg.inv(_given_or_checked(M, coords_list, metrics))
    # dg[n, l, i, j] = d_l g_ij at point n; a set's walk reads the metrics at
    # all its stencil points in one metrics_at call, whose memo entries are
    # those of metric_at(c, check=False)
    dg = engine.stacked_partials(lambda c: M.metric_at(c, check=False), np.array(coords_list),
                                 M.lower, M.upper, stack=lambda c: np.array(M.metrics_at(c)))
    # c[n, i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    c = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    return list(0.5 * np.einsum("nkl,nijl->nkij", ginv, c))


def _along(direction: Array, d: Array) -> Array:
    """v^i d[i, k] at one point, or at each point of stacks."""
    return (direction[..., None, :] @ d)[..., 0, :]


def _covariant_from_partials(direction: Array, dY: Array, y: Array, gamma: Array) -> Array:
    """v^i d_i Y^k + Gamma^k_ij v^i Y^j from dY[i, k] = d_i Y^k and y = Y(p),
    at one point or at each point of stacks."""
    return _along(direction, dY) + np.einsum("...kij,...i,...j->...k", gamma, direction, y)


def covariant_derivative(
    M: ChartManifold, engine: DiffEngine, X: VectorField, Y: VectorField, coords
) -> Array:
    """nabla_X Y at coords: X^i d_i Y^k + Gamma^k_ij X^i Y^j."""
    coords = np.asarray(coords, dtype=float)
    return _covariant_derivatives(M, engine, X(coords)[None], Y, coords[None],
                                  [christoffel(M, engine, coords)])[0]


def _covariant_derivatives(M: ChartManifold, engine: DiffEngine, directions: Array,
                           Y: VectorField, coords: Array, gammas, y=None) -> Array:
    """nabla_v Y at each row of the (N, dim) array ``coords``, along the same
    row v of ``directions`` and with the Christoffel symbols of the same
    entry of ``gammas``: one stacked walk differentiates Y, whose values
    at ``coords`` are ``y`` when the caller has read them
    (``Y.values_at(coords)``). Each value equals ``covariant_derivative``'s
    at its point for an X equal to v there, bit for bit; a set that fails
    raises the walk's first error, which need not be the first failing
    point's."""
    dY = engine.stacked_partials(Y.fn, coords, M.lower, M.upper, along=directions,
                                 stack=_stack(Y))
    y = Y.values_at(coords) if y is None else y
    return _covariant_from_partials(directions, dY, y, np.asarray(gammas))


def lie_bracket(
    M: ChartManifold, engine: DiffEngine, X: VectorField, Y: VectorField, coords
) -> Array:
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k at coords."""
    return _lie_brackets(M, engine, X, Y, np.asarray(coords, dtype=float)[None])[0]


def _lie_brackets(M: ChartManifold, engine: DiffEngine, X: VectorField, Y: VectorField,
                  coords: Array, values=None) -> Array:
    """[X, Y] at each row of the (N, dim) array ``coords``, one stacked walk
    per field; ``values``, when given, are ``(X.values_at(coords),
    Y.values_at(coords))`` as the caller has read them. Values and errors
    as ``_covariant_derivatives``'."""
    x, y = (X.values_at(coords), Y.values_at(coords)) if values is None else values
    dY = engine.stacked_partials(Y.fn, coords, M.lower, M.upper, along=x, stack=_stack(Y))
    dX = engine.stacked_partials(X.fn, coords, M.lower, M.upper, along=y, stack=_stack(X))
    return _along(x, dY) - _along(y, dX)


def metric_orthogonal_projector(g: Array, basis: Array) -> Array:
    """g-orthogonal projector onto the span of the given basis columns.

    ``g`` and ``basis`` may carry the same leading axes, a stack of metrics
    and bases; each projector then equals its own call bit for bit."""
    if basis.shape[-1] == 0:
        return np.zeros(g.shape)
    basis_t_g = np.swapaxes(basis, -1, -2) @ g
    return basis @ np.linalg.solve(basis_t_g @ basis, basis_t_g)


@dataclass(frozen=True)
class SecondFundamentalFormAt:
    """Second fundamental form of a coordinate-aligned submanifold at a point.

    values[a, b, :] are the ambient components of II(e_a, e_b) for the
    coordinate basis of ``tangent_axes``; mean_curvature is the trace of
    values against the induced metric, divided by the submanifold dimension.
    """

    point: Array
    tangent_axes: tuple
    values: Array
    mean_curvature: Array


def coordinate_submanifold_form(
    M: ChartManifold, engine: DiffEngine, tangent_axes: Sequence[int], coords
) -> SecondFundamentalFormAt:
    """II and H of the submanifold obtained by freezing the other coordinates.

    The normal projection is the g-orthogonal projection onto the complement
    of the tangent coordinate subspace. ``tangent_axes`` are distinct axes of
    the chart, at least one. The checked metric is evaluated once and shared
    with the Christoffel kernel; the form is ``_submanifold_form`` on a
    stack of one.
    """
    axes = tuple(tangent_axes)
    if not axes or len(set(axes)) < len(axes) or not all(a in range(M.dim) for a in axes):
        raise ValueError(f"tangent_axes must be distinct axes in range({M.dim}), got {axes}")
    coords = np.asarray(coords, dtype=float)
    g = M.metric_at(coords)
    gamma = christoffels(M, engine, [coords], [g])[0]
    values, mean = _submanifold_form(g[None], gamma[None], axes)
    return SecondFundamentalFormAt(coords, axes, values[0], mean[0])


def _submanifold_form(G: Array, gammas: Array, axes: tuple) -> tuple[Array, Array]:
    """II and H of the coordinate submanifold along ``axes`` at each point of
    a set, from the stacks of its checked metrics ``G`` (N, dim, dim) and
    Christoffel symbols ``gammas`` (N, dim, dim, dim): the values
    (N, k, k, dim) and the mean curvatures (N, dim), k = len(axes), each
    point's equal to its own stack of one bit for bit."""
    dim = G.shape[-1]
    axes = list(axes)
    tangent = np.broadcast_to(np.eye(dim)[:, axes], G.shape[:-1] + (len(axes),))
    normal_proj = np.eye(dim) - metric_orthogonal_projector(G, tangent)
    # coordinate fields have no derivative term: nabla_{e_a} e_b = Gamma^k_ab;
    # values[n, a, b] = normal_proj[n] @ gammas[n, :, a, b], one product each
    tangential = np.moveaxis(gammas[:, :, axes][:, :, :, axes], 1, -1)
    values = np.ascontiguousarray((normal_proj[:, None, None] @ tangential[..., None])[..., 0])
    induced = G[:, axes][:, :, axes]
    mean = np.einsum("nab,nabk->nk", np.linalg.inv(induced), values) / len(axes)
    return values, mean
