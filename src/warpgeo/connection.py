"""Levi-Civita connection machinery.

Christoffel symbols come from the coordinate formula
Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij) with metric partials
taken by the finite-difference engine, as the array gamma[k, i, j].
Covariant derivatives, Lie brackets and second fundamental forms of
coordinate-aligned submanifolds build on it and return component arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fd import DiffEngine
from .manifold import ChartManifold, VectorField, _memoized

Array = np.ndarray


def christoffel(M: ChartManifold, engine: DiffEngine, coords) -> Array:
    """Christoffel symbols of M at coords as gamma[k, i, j] = Gamma^k_ij.

    Inside an evaluation scope the array is memoized by chart, exact
    coordinates and engine, and is read-only."""
    coords = np.asarray(coords, dtype=float)
    return _memoized(M, coords, engine, _christoffel, M, engine, coords)


def _christoffel(M: ChartManifold, engine: DiffEngine, coords: Array) -> Array:
    g = M.metric_at(coords)  # SPD check happens here
    ginv = np.linalg.inv(g)
    # dg[l, i, j] = d_l g_ij
    dg = engine.partials(lambda c: M.metric_at(c, check=False), coords, M.lower, M.upper)
    # c[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    c = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    return 0.5 * np.einsum("kl,ijl->kij", ginv, c)


def covariant_derivative_dir(
    M: ChartManifold,
    engine: DiffEngine,
    direction: Array,
    Y: VectorField,
    coords,
    gamma: Optional[Array] = None,
) -> Array:
    """nabla_v Y at coords for a fixed direction v (tensorial slot)."""
    if gamma is None:
        gamma = christoffel(M, engine, coords)
    direction = np.asarray(direction, dtype=float)
    dY = engine.partials(Y.fn, coords, M.lower, M.upper)
    return _covariant_from_partials(direction, dY, Y(coords), gamma)


def _covariant_from_partials(direction: Array, dY: Array, y: Array, gamma: Array) -> Array:
    """v^i d_i Y^k + Gamma^k_ij v^i Y^j from dY[i, k] = d_i Y^k and y = Y(p)."""
    return direction @ dY + np.einsum("kij,i,j->k", gamma, direction, y)


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


def lie_bracket(
    M: ChartManifold, engine: DiffEngine, X: VectorField, Y: VectorField, coords
) -> Array:
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k at coords."""
    dY = engine.partials(Y.fn, coords, M.lower, M.upper)
    dX = engine.partials(X.fn, coords, M.lower, M.upper)
    return X(coords) @ dY - Y(coords) @ dX


def metric_orthogonal_projector(g: Array, basis: Array) -> Array:
    """g-orthogonal projector onto the span of the given basis columns."""
    if basis.shape[1] == 0:
        return np.zeros((g.shape[0], g.shape[0]))
    gram = basis.T @ g @ basis
    return basis @ np.linalg.solve(gram, basis.T @ g)


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
) -> SecondFundamentalFormAt:
    """II and H of the submanifold obtained by freezing the other coordinates.

    The normal projection is the g-orthogonal projection onto the complement
    of the tangent coordinate subspace.
    """
    axes = tuple(tangent_axes)
    g = M.metric_at(coords)
    tangent_basis = np.eye(M.dim)[:, list(axes)]
    normal_proj = np.eye(M.dim) - metric_orthogonal_projector(g, tangent_basis)
    if gamma is None:
        gamma = christoffel(M, engine, coords)
    # coordinate fields have no derivative term: nabla_{e_a} e_b = Gamma^k_ab
    values = np.empty((len(axes), len(axes), M.dim))
    for a, i in enumerate(axes):
        for b, j in enumerate(axes):
            values[a, b] = normal_proj @ gamma[:, i, j]
    induced = g[np.ix_(list(axes), list(axes))]
    mean = np.einsum("ab,abk->k", np.linalg.inv(induced), values) / len(axes)
    return SecondFundamentalFormAt(coords, axes, values, mean)
