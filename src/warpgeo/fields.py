"""Seeded libraries of test fields.

Verification suites never accept arbitrary user closures; they draw vector
fields from fixed families (coordinate, affine, trigonometric) with
coefficients generated from a seeded RNG, so residual reports are
reproducible run to run.
"""

from __future__ import annotations

import numpy as np

from .manifold import ChartManifold, VectorField


def _center(M: ChartManifold, fallback: float = 0.0) -> np.ndarray:
    lo, hi = M.lower, M.upper
    c = np.where(np.isfinite(lo) & np.isfinite(hi), 0.5 * (lo + hi), fallback)
    return np.asarray(c, dtype=float)


def affine_vector_field(M: ChartManifold, rng: np.random.Generator) -> VectorField:
    """Components affine in the coordinates, coefficients in [-1, 1]."""
    a = rng.uniform(-1.0, 1.0, size=M.dim)
    b = rng.uniform(-1.0, 1.0, size=(M.dim, M.dim))
    c = _center(M)
    return VectorField(lambda x: a + b @ (x - c))


def trig_vector_field(M: ChartManifold, rng: np.random.Generator) -> VectorField:
    """Components a_k sin(w_k . x + phase_k), kept O(1) with mild frequencies."""
    a = rng.uniform(-1.0, 1.0, size=M.dim)
    w = rng.uniform(0.3, 1.2, size=(M.dim, M.dim))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=M.dim)
    return VectorField(lambda x: a * np.sin(w @ x + phase))


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
