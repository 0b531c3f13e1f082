"""Coordinate charts, points, tangent vectors, fields and metric evaluation.

A manifold here is a single global chart: an open axis-aligned box of
coordinates together with a metric field mapping coordinates to a symmetric
positive-definite matrix. Everything downstream (connections, submersions,
warped products) is built from these atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateMetricError, DomainError
from .fd import DiffEngine
from .report import residual_scale

Array = np.ndarray

SPD_FLOOR = 1e-10
SYM_TOL = 1e-9


def _as_bound(value, dim: int, default: float) -> Array:
    if value is None:
        return np.full(dim, default, dtype=float)
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(dim, float(arr))
    if arr.shape != (dim,):
        raise ValueError(f"bound has shape {arr.shape}, expected ({dim},)")
    return arr


@dataclass(frozen=True)
class ChartManifold:
    """A single-chart manifold: an open coordinate box plus a metric field.

    ``metric`` maps a coordinate vector to a dim x dim SPD matrix. Bounds may
    be infinite; sampling utilities always draw from a bounded sub-box.
    """

    dim: int
    lower: Array
    upper: Array
    metric: Callable[[Array], Array]
    name: str = ""
    spd_floor: float = SPD_FLOOR

    def __post_init__(self):
        object.__setattr__(self, "lower", _as_bound(self.lower, self.dim, -np.inf))
        object.__setattr__(self, "upper", _as_bound(self.upper, self.dim, np.inf))
        if np.any(self.lower >= self.upper):
            raise ValueError("domain box is empty along some axis")

    @staticmethod
    def euclidean(dim: int, lower=None, upper=None, name: str = "") -> "ChartManifold":
        identity = np.eye(dim)
        return ChartManifold(dim, lower, upper, lambda c: identity, name or f"euclidean{dim}")

    def contains(self, coords) -> bool:
        coords = np.asarray(coords, dtype=float)
        return bool(np.all(coords > self.lower) and np.all(coords < self.upper))

    def point(self, coords) -> "Point":
        coords = np.asarray(coords, dtype=float).reshape(-1)
        if coords.shape != (self.dim,):
            raise ValueError(f"coords have shape {coords.shape}, expected ({self.dim},)")
        if not self.contains(coords):
            raise DomainError(f"point {coords} outside domain of {self.name or 'chart'}")
        return Point(self, coords)

    def metric_at(self, coords, check: bool = True) -> Array:
        """Evaluate the metric; symmetrize, optionally check SPD."""
        g = np.asarray(self.metric(np.asarray(coords, dtype=float)), dtype=float)
        if g.shape != (self.dim, self.dim):
            raise DegenerateMetricError(f"metric returned shape {g.shape} at {coords}")
        sym = 0.5 * (g + g.T)
        if check:
            scale = 1.0 + float(np.max(np.abs(g)))
            if float(np.max(np.abs(g - g.T))) > SYM_TOL * scale:
                raise DegenerateMetricError(f"metric not symmetric at {coords}")
            if float(np.linalg.eigvalsh(sym)[0]) <= self.spd_floor:
                raise DegenerateMetricError(
                    f"metric not positive definite at {coords}: "
                    f"min eigenvalue {np.linalg.eigvalsh(sym)[0]:.3e}"
                )
        return sym


@dataclass(frozen=True)
class Point:
    """A point of a chart; carries its owning manifold."""

    manifold: ChartManifold
    coords: Array


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector attached to a point, in chart coordinates."""

    base: Point
    components: Array

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=float).reshape(-1)
        if comps.shape != (self.base.manifold.dim,):
            raise ValueError(
                f"components have shape {comps.shape}, expected ({self.base.manifold.dim},)"
            )
        object.__setattr__(self, "components", comps)

    def __add__(self, other: "TangentVector") -> "TangentVector":
        return TangentVector(self.base, self.components + other.components)

    def __sub__(self, other: "TangentVector") -> "TangentVector":
        return TangentVector(self.base, self.components - other.components)

    def __rmul__(self, scalar: float) -> "TangentVector":
        return TangentVector(self.base, float(scalar) * self.components)


@dataclass(frozen=True)
class ScalarField:
    """A real-valued field of coordinates, with optional analytic partials.

    When ``partials`` is supplied it must agree with the finite-difference
    partials to the engine's ``fd_check_tol`` (see :func:`check_scalar_field`).
    """

    fn: Callable[[Array], float]
    partials: Optional[Callable[[Array], Array]] = None

    def __call__(self, coords) -> float:
        return float(self.fn(np.asarray(coords, dtype=float)))

    @staticmethod
    def constant(value: float) -> "ScalarField":
        v = float(value)
        return ScalarField(lambda c: v, lambda c: np.zeros(len(c)))


@dataclass(frozen=True)
class VectorField:
    """A tangent-vector-valued field, componentwise in chart coordinates."""

    fn: Callable[[Array], Array]

    def __call__(self, coords) -> Array:
        return np.asarray(self.fn(np.asarray(coords, dtype=float)), dtype=float)

    @staticmethod
    def constant(components) -> "VectorField":
        comps = np.asarray(components, dtype=float)
        return VectorField(lambda c: comps)

    @staticmethod
    def coordinate(dim: int, axis: int) -> "VectorField":
        comps = np.zeros(dim)
        comps[axis] = 1.0
        return VectorField(lambda c: comps)


def metric_inner(M: ChartManifold, p: Point, u: TangentVector, v: TangentVector) -> float:
    """g_p(u, v) = u^T g(p) v."""
    if not M.contains(p.coords):
        raise DomainError(f"point {p.coords} outside domain")
    g = M.metric_at(p.coords)
    return float(u.components @ g @ v.components)


def partial_derivative(engine: DiffEngine, field, p: Point, axis: int):
    """Partial derivative along a coordinate axis at p.

    ``field`` may be a ScalarField, a VectorField, or any callable of
    coordinates (e.g. a manifold's metric); the return type follows the
    field's value type.
    """
    M = p.manifold
    fn = field.fn if hasattr(field, "fn") else field
    return engine.partial(fn, p.coords, axis, M.lower, M.upper)


def scalar_partials(engine: DiffEngine, phi: ScalarField, p: Point) -> Array:
    """Coordinate partials of phi at p, analytic when the field carries them."""
    if phi.partials is not None:
        return np.asarray(phi.partials(p.coords), dtype=float)
    M = p.manifold
    return engine.partials(phi.fn, p.coords, M.lower, M.upper)


def gradient(M: ChartManifold, engine: DiffEngine, phi: ScalarField, p: Point) -> TangentVector:
    """Metric gradient: components g^{kl} d_l(phi)."""
    if not M.contains(p.coords):
        raise DomainError(f"point {p.coords} outside domain")
    dphi = scalar_partials(engine, phi, p)
    g = M.metric_at(p.coords)
    return TangentVector(p, np.linalg.solve(g, dphi))


def check_scalar_field(M: ChartManifold, engine: DiffEngine, phi: ScalarField, points) -> float:
    """Max gap between analytic and finite-difference partials over points.

    Returns 0.0 when the field has no analytic partials. Raises
    DegenerateMetricError-free diagnostics are left to the caller; this only
    measures.
    """
    if phi.partials is None:
        return 0.0
    return analytic_fd_gap(M, engine, phi.fn, phi.partials, points)


def analytic_fd_gap(M: ChartManifold, engine: DiffEngine, fn, analytic, points) -> float:
    """Max over points of the largest entry of |analytic - FD|, scaled by
    :func:`~warpgeo.report.residual_scale`.

    ``analytic`` gives the partials of a scalar fn or the Jacobian of a
    vector fn (rows index outputs); both line up with ``engine.partials(fn).T``.
    """
    worst = 0.0
    for p in points:
        an = np.asarray(analytic(p.coords), dtype=float)
        fd = engine.partials(fn, p.coords, M.lower, M.upper).T
        worst = max(worst, float(np.max(np.abs(an - fd))) / residual_scale(an, fd))
    return worst
