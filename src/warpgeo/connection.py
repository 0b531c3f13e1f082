"""Levi-Civita connection machinery.

Christoffel symbols come from the coordinate formula
Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij) with metric partials
taken by the finite-difference engine, as the array gamma[k, i, j].
Covariant derivatives, Lie brackets and second fundamental forms of
coordinate-aligned submanifolds build on it and return component arrays.

The Christoffel symbols, covariant derivatives and Lie brackets each have
one kernel over a point set, on ``DiffEngine.stacked_partials``; a single
point is a stack of one, which that walk differentiates by ``partials``'
own loop. numpy's stacked ``inv``, ``einsum`` and ``matmul`` give each
point the bits of its own call, so a point's value does not depend on the
set it is computed in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fd import DiffEngine
from .manifold import ChartManifold, VectorField, _compute_one, _memoized, _memoized_many

Array = np.ndarray


def christoffel(M: ChartManifold, engine: DiffEngine, coords, g: Optional[Array] = None) -> Array:
    """Christoffel symbols of M at coords as gamma[k, i, j] = Gamma^k_ij.

    ``g`` is the checked ``M.metric_at(coords)``, evaluated when not given;
    never pass an unchecked metric, which would skip the SPD check. Inside an
    evaluation scope the array is memoized by chart, exact coordinates and
    engine, and is read-only: the value computed from a passed ``g`` is
    stored for every later call at that point, with or without ``g``."""
    coords = np.asarray(coords, dtype=float)
    return _memoized(M, coords, engine, _compute_one,
                     lambda coords_list: _christoffels(M, engine, coords_list, [g]), coords)


def christoffels(M: ChartManifold, engine: DiffEngine, coords_seq, metrics=None) -> list[Array]:
    """``[christoffel(M, engine, c, g) for c, g in zip(coords_seq, metrics)]``,
    with ``metrics`` all None when not given, computed by one kernel for the
    points not yet stored: one stacked walk over their stencils. Memo
    entries are shared with ``christoffel``."""
    coords = [np.asarray(c, dtype=float) for c in coords_seq]
    given = {} if metrics is None else {c.tobytes(): g for c, g in zip(coords, metrics)}
    return _memoized_many(M, coords, engine, lambda missing: _christoffels(
        M, engine, missing, [given.get(c.tobytes()) for c in missing]))


def _christoffels(M: ChartManifold, engine: DiffEngine, coords_list: list, metrics: list) -> list:
    """The Christoffel symbols at each point, as views of one stack; a
    metric that is None is evaluated and checked here, first."""
    G = np.array([M.metric_at(c) if g is None else g for c, g in zip(coords_list, metrics)])
    ginv = np.linalg.inv(G)
    # dg[n, l, i, j] = d_l g_ij at point n
    dg = engine.stacked_partials(lambda c: M.metric_at(c, check=False), np.array(coords_list),
                                 M.lower, M.upper)
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


def covariant_derivative_dir(
    M: ChartManifold,
    engine: DiffEngine,
    direction: Array,
    Y: VectorField,
    coords,
    gamma: Optional[Array] = None,
) -> Array:
    """nabla_v Y at coords for a fixed direction v (tensorial slot)."""
    coords = np.asarray(coords, dtype=float)
    if gamma is None:
        gamma = christoffel(M, engine, coords)
    return _covariant_derivatives(M, engine, np.asarray(direction, dtype=float)[None], Y,
                                  coords[None], np.asarray(gamma)[None])[0]


def covariant_derivative(
    M: ChartManifold,
    engine: DiffEngine,
    X: VectorField,
    Y: VectorField,
    coords,
    gamma: Optional[Array] = None,
) -> Array:
    """nabla_X Y at coords: X^i d_i Y^k + Gamma^k_ij X^i Y^j."""
    return covariant_derivative_dir(M, engine, X(coords), Y, coords, gamma)


def _covariant_derivatives(M: ChartManifold, engine: DiffEngine, directions: Array,
                           Y: VectorField, coords: Array, gammas) -> Array:
    """nabla_v Y at each row of the (N, dim) array ``coords``, along the same
    row v of ``directions`` and with the Christoffel symbols of the same
    entry of ``gammas``: one stacked walk differentiates Y. Each value
    equals ``covariant_derivative_dir``'s at its point bit for bit; a set
    that fails raises the walk's first error, which need not be the first
    failing point's."""
    dY = engine.stacked_partials(Y.fn, coords, M.lower, M.upper, along=directions)
    return _covariant_from_partials(directions, dY, np.array([Y(c) for c in coords]),
                                    np.asarray(gammas))


def lie_bracket(
    M: ChartManifold, engine: DiffEngine, X: VectorField, Y: VectorField, coords
) -> Array:
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k at coords."""
    return _lie_brackets(M, engine, X, Y, np.asarray(coords, dtype=float)[None])[0]


def _lie_brackets(M: ChartManifold, engine: DiffEngine, X: VectorField, Y: VectorField,
                  coords: Array) -> Array:
    """[X, Y] at each row of the (N, dim) array ``coords``, one stacked walk
    per field; values and errors as ``_covariant_derivatives``'."""
    x, y = np.array([X(c) for c in coords]), np.array([Y(c) for c in coords])
    dY = engine.stacked_partials(Y.fn, coords, M.lower, M.upper, along=x)
    dX = engine.stacked_partials(X.fn, coords, M.lower, M.upper, along=y)
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
    M: ChartManifold,
    engine: DiffEngine,
    tangent_axes: Sequence[int],
    coords,
    gamma: Optional[Array] = None,
    g: Optional[Array] = None,
) -> SecondFundamentalFormAt:
    """II and H of the submanifold obtained by freezing the other coordinates.

    The normal projection is the g-orthogonal projection onto the complement
    of the tangent coordinate subspace. ``gamma`` and ``g`` (the checked
    ``M.metric_at(coords)``) are built when not given.
    """
    axes = tuple(tangent_axes)
    if g is None:
        g = M.metric_at(coords)
    tangent_basis = np.eye(M.dim)[:, list(axes)]
    normal_proj = np.eye(M.dim) - metric_orthogonal_projector(g, tangent_basis)
    if gamma is None:
        gamma = christoffel(M, engine, coords, g)
    # coordinate fields have no derivative term: nabla_{e_a} e_b = Gamma^k_ab
    values = np.empty((len(axes), len(axes), M.dim))
    for a, i in enumerate(axes):
        for b, j in enumerate(axes):
            values[a, b] = normal_proj @ gamma[:, i, j]
    induced = g[np.ix_(list(axes), list(axes))]
    mean = np.einsum("ab,abk->k", np.linalg.inv(induced), values) / len(axes)
    return SecondFundamentalFormAt(coords, axes, values, mean)
