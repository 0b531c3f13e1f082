"""Levi-Civita connection machinery.

Christoffel symbols come from the coordinate formula
Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij) with metric partials
taken by the finite-difference engine. Covariant derivatives, Lie brackets
and second fundamental forms of coordinate-aligned submanifolds build on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fd import DiffEngine
from .manifold import ChartManifold, Point, TangentVector, VectorField

Array = np.ndarray


@dataclass(frozen=True)
class ChristoffelAt:
    """All Christoffel symbols at a point: gamma[k, i, j] = Gamma^k_ij."""

    point: Point
    gamma: Array


def christoffel(M: ChartManifold, engine: DiffEngine, p: Point) -> ChristoffelAt:
    g = M.metric_at(p.coords)  # SPD check happens here
    ginv = np.linalg.inv(g)
    # dg[l, i, j] = d_l g_ij
    dg = engine.partials(lambda c: M.metric_at(c, check=False), p.coords, M.lower, M.upper)
    # c[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    c = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    gamma = 0.5 * np.einsum("kl,ijl->kij", ginv, c)
    return ChristoffelAt(p, gamma)


def covariant_derivative_dir(
    M: ChartManifold,
    engine: DiffEngine,
    direction: Array,
    Y: VectorField,
    p: Point,
    gamma: Optional[ChristoffelAt] = None,
) -> TangentVector:
    """nabla_v Y at p for a fixed direction v (tensorial slot)."""
    if gamma is None:
        gamma = christoffel(M, engine, p)
    direction = np.asarray(direction, dtype=float)
    dY = engine.partials(Y.fn, p.coords, M.lower, M.upper)  # dY[i, k] = d_i Y^k
    comp = direction @ dY + np.einsum("kij,i,j->k", gamma.gamma, direction, Y(p.coords))
    return TangentVector(p, comp)


def covariant_derivative(
    M: ChartManifold,
    engine: DiffEngine,
    X: VectorField,
    Y: VectorField,
    p: Point,
    gamma: Optional[ChristoffelAt] = None,
) -> TangentVector:
    """nabla_X Y at p: X^i d_i Y^k + Gamma^k_ij X^i Y^j."""
    return covariant_derivative_dir(M, engine, X(p.coords), Y, p, gamma)


def lie_bracket(engine: DiffEngine, X: VectorField, Y: VectorField, p: Point) -> TangentVector:
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k."""
    M = p.manifold
    dY = engine.partials(Y.fn, p.coords, M.lower, M.upper)
    dX = engine.partials(X.fn, p.coords, M.lower, M.upper)
    comp = X(p.coords) @ dY - Y(p.coords) @ dX
    return TangentVector(p, comp)


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

    point: Point
    tangent_axes: tuple
    values: Array
    mean_curvature: Array


def coordinate_submanifold_form(
    M: ChartManifold, engine: DiffEngine, tangent_axes: Sequence[int], p: Point
) -> SecondFundamentalFormAt:
    """II and H of the submanifold obtained by freezing the other coordinates.

    The normal projection is the g-orthogonal projection onto the complement
    of the tangent coordinate subspace.
    """
    axes = tuple(tangent_axes)
    g = M.metric_at(p.coords)
    tangent_basis = np.eye(M.dim)[:, list(axes)]
    normal_proj = np.eye(M.dim) - metric_orthogonal_projector(g, tangent_basis)
    gamma = christoffel(M, engine, p)
    # coordinate fields have no derivative term: nabla_{e_a} e_b = Gamma^k_ab
    values = np.empty((len(axes), len(axes), M.dim))
    for a, i in enumerate(axes):
        for b, j in enumerate(axes):
            values[a, b] = normal_proj @ gamma.gamma[:, i, j]
    induced = g[np.ix_(list(axes), list(axes))]
    mean = np.einsum("ab,abk->k", np.linalg.inv(induced), values) / len(axes)
    return SecondFundamentalFormAt(p, axes, values, mean)
