"""Seeded libraries of test fields.

Verification suites never accept arbitrary user closures; they draw vector
fields from fixed families (coordinate, affine, trigonometric) with
coefficients generated from a seeded RNG, so residual reports are
reproducible run to run.

The affine and trigonometric fields carry a point-set form
(``manifold._with_stack``) that gives every row the bits of the field's own
call, so ``VectorField.values_at`` and the connection kernels' stencil walks
evaluate a point set in one call; the single-point call is kept as the
reference that the form is tested against. Coordinate fields are constants
and carry none. ``modulated_constants`` is ``modulated`` of each point's own
constant field at once (``manifold.PointFields``), a form alone.
"""

from __future__ import annotations

import numpy as np

from .manifold import ChartManifold, PointFields, VectorField, _with_stack


def _center(M: ChartManifold, fallback: float = 0.0) -> np.ndarray:
    lo, hi = M.lower, M.upper
    c = np.where(np.isfinite(lo) & np.isfinite(hi), 0.5 * (lo + hi), fallback)
    return np.asarray(c, dtype=float)


def affine_vector_field(M: ChartManifold, rng: np.random.Generator) -> VectorField:
    """Components affine in the coordinates, coefficients in [-1, 1]."""
    a = rng.uniform(-1.0, 1.0, size=M.dim)
    b = rng.uniform(-1.0, 1.0, size=(M.dim, M.dim))
    c = _center(M)
    return VectorField(_with_stack(lambda x: a + b @ (x - c),
                                   lambda X: a + (b @ (X - c)[..., None])[..., 0]))


def trig_vector_field(M: ChartManifold, rng: np.random.Generator) -> VectorField:
    """Components a_k sin(w_k . x + phase_k), kept O(1) with mild frequencies."""
    a = rng.uniform(-1.0, 1.0, size=M.dim)
    w = rng.uniform(0.3, 1.2, size=(M.dim, M.dim))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=M.dim)
    return VectorField(_with_stack(lambda x: a * np.sin(w @ x + phase),
                                   lambda X: a * np.sin((w @ X[..., None])[..., 0] + phase)))


def vector_field_library(M: ChartManifold, rng: np.random.Generator, n: int) -> list[VectorField]:
    """n fields cycling through coordinate, affine and trig families."""
    fields: list[VectorField] = []
    for i in range(n):
        kind = i % 3
        if kind == 0:
            fields.append(VectorField.coordinate(M.dim, i // 3 % M.dim))
        elif kind == 1:
            fields.append(affine_vector_field(M, rng))
        else:
            fields.append(trig_vector_field(M, rng))
    return fields


def field_pairs(
    M: ChartManifold, rng: np.random.Generator, n: int
) -> list[tuple[VectorField, VectorField]]:
    """n pairs of consecutive fields of ``vector_field_library(M, rng, 2 n)``."""
    fields = vector_field_library(M, rng, 2 * n)
    return [(fields[2 * i], fields[2 * i + 1]) for i in range(n)]


def modulated(field: VectorField, axis: int, anchor: np.ndarray, slope: float = 0.7) -> VectorField:
    """Rescale a field by an affine factor equal to 1 at the anchor point.

    Used by extension-independence checks: the modulated field has the same
    value as ``field`` at ``anchor`` but different derivatives.
    """
    anchor = np.asarray(anchor, dtype=float)

    def fn(x):
        return (1.0 + slope * (x[axis] - anchor[axis])) * field(x)

    return VectorField(fn)


def modulated_constants(vectors, axis: int, anchors, slope: float = 0.7) -> PointFields:
    """Row n: ``modulated(VectorField.constant(vectors[n]), axis, anchors[n],
    slope)``, bit for bit, as fields of the points ``anchors``, whose form
    rescales the rows of one array."""
    V, anchors = np.asarray(vectors, dtype=float), np.asarray(anchors, dtype=float)

    def stack(X, owners):
        return (1.0 + slope * (X[:, axis] - anchors[owners, axis]))[:, None] * V[owners]

    return PointFields(stack)
