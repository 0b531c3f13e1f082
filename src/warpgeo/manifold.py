"""Coordinate charts, fields and metric evaluation.

A manifold here is a single global chart: an open axis-aligned box of
coordinates together with a metric field mapping coordinates to a symmetric
positive-definite matrix. Everything downstream (connections, submersions,
warped products) is built from these atoms. A point is the float array of
its coordinates, as ``ChartManifold.point`` checks and returns it, and a
tangent vector is the plain array of its chart components. Functions that
need the chart take it as their first argument.

Inside an ``evaluation_scope()`` pointwise results (metrics, Christoffel
symbols, splittings, dilations) are computed once per owner and exact
coordinates, then shared until the scope exits.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateMetricError, DomainError
from .fd import DiffEngine
from .report import residual_scale

Array = np.ndarray

SPD_FLOOR = 1e-10
SYM_TOL = 1e-9

# id(owner) -> (owner, {key: value}) of the active scope; the owner is held
# so that its id is not reused while the scope is open
_MEMO: ContextVar[Optional[dict]] = ContextVar("warpgeo_memo", default=None)


@contextmanager
def evaluation_scope():
    """Memoize metrics, Christoffel symbols, splittings and dilations until
    the block exits.

    A nested scope shares the outer memo. Raised errors are never stored,
    memoized arrays are read-only, and the memo is dropped on exit. Chart
    metrics and maps must be pure functions of their coordinates while a
    scope is open.
    """
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _owner_cache(memo: dict, owner) -> dict:
    """The ``{key: value}`` store of ``owner`` in the scope's memo."""
    entry = memo.get(id(owner))
    if entry is None:
        entry = memo[id(owner)] = (owner, {})
    return entry[1]


def _memo_key(coords: Array, tag) -> tuple:
    return coords.tobytes(), tag


def _store(cache: dict, key: tuple, value):
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    cache[key] = value
    return value


def _memoized(owner, coords: Array, tag, compute, *args):
    """``compute(*args)``; inside an evaluation scope, computed once per
    ``owner``, exact ``coords`` and ``tag`` and then shared.

    Outside a scope this is a plain call and builds no key. Array results
    of a scope are made read-only, because they are shared.
    """
    memo = _MEMO.get()
    if memo is None:
        return compute(*args)
    cache = _owner_cache(memo, owner)
    key = _memo_key(coords, tag)
    value = cache.get(key)
    if value is None:
        value = _store(cache, key, compute(*args))
    return value


def _memoized_many(owner, coords_seq, tag, compute_many, compute) -> list:
    """``[_memoized(owner, c, tag, compute, c) for c in coords_seq]``, with
    the values not yet stored computed by one ``compute_many`` call on the
    list of their coordinates (each once, in input order).

    If ``compute_many`` raises, that loop itself is run: it stores the
    values before the first failing point and raises that point's error.
    """
    memo = _MEMO.get()
    if memo is None:
        missing = dict(enumerate(coords_seq))
    else:
        cache = _owner_cache(memo, owner)
        keys = [_memo_key(c, tag) for c in coords_seq]
        missing = {key: c for key, c in zip(keys, coords_seq) if key not in cache}
    try:
        values = compute_many(list(missing.values())) if missing else []
    except Exception:
        # one point at a time finds the first failing point and its error
        return [_memoized(owner, c, tag, compute, c) for c in coords_seq]
    if memo is None:
        return values
    for key, value in zip(missing, values):
        _store(cache, key, value)
    return [cache[key] for key in keys]


def _as_vector(v, dim: int) -> Array:
    """The components of a tangent vector given from outside, as a float
    array of shape (dim,)."""
    comps = np.asarray(v, dtype=float).reshape(-1)
    if comps.shape != (dim,):
        raise ValueError(f"components have shape {comps.shape}, expected ({dim},)")
    return comps


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

    def point(self, coords) -> Array:
        """The coordinates as a float array of shape (dim,), checked to lie
        inside the domain box."""
        coords = np.asarray(coords, dtype=float).reshape(-1)
        if coords.shape != (self.dim,):
            raise ValueError(f"coords have shape {coords.shape}, expected ({self.dim},)")
        if not self.contains(coords):
            raise DomainError(f"point {coords} outside domain of {self.name or 'chart'}")
        return coords

    def metric_at(self, coords, check: bool = True) -> Array:
        """Evaluate the metric; symmetrize, optionally check SPD.

        Inside an evaluation scope the result is memoized by chart, exact
        coordinates and ``check`` (so a hit never skips a requested check).
        """
        coords = np.asarray(coords, dtype=float)
        return _memoized(self, coords, check, self._metric, coords, check)

    def _metric(self, coords: Array, check: bool) -> Array:
        g = np.asarray(self.metric(coords), dtype=float)
        if g.shape != (self.dim, self.dim):
            raise DegenerateMetricError(f"metric returned shape {g.shape} at {coords}")
        sym = 0.5 * (g + g.T)
        if check:
            scale = 1.0 + float(np.max(np.abs(g)))
            if float(np.max(np.abs(g - g.T))) > SYM_TOL * scale:
                raise DegenerateMetricError(f"metric not symmetric at {coords}")
            lowest = float(np.linalg.eigvalsh(sym)[0])
            if lowest <= self.spd_floor:
                raise DegenerateMetricError(
                    f"metric not positive definite at {coords}: min eigenvalue {lowest:.3e}"
                )
        return sym


@dataclass(frozen=True)
class ScalarField:
    """A real-valued field of coordinates, with optional analytic partials.

    When ``partials`` is supplied it must agree with the finite-difference
    partials (see :func:`check_scalar_field`).
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


def metric_inner(M: ChartManifold, coords, u, v) -> float:
    """g(u, v) = u^T g(coords) v for component vectors u and v."""
    u, v = _as_vector(u, M.dim), _as_vector(v, M.dim)
    if not M.contains(coords):
        raise DomainError(f"point {coords} outside domain")
    g = M.metric_at(coords)
    return float(u @ g @ v)


def partial_derivative(M: ChartManifold, engine: DiffEngine, field, coords, axis: int):
    """Partial derivative along a coordinate axis at coords.

    ``field`` may be a ScalarField, a VectorField, or any callable of
    coordinates (e.g. a manifold's metric); the return type follows the
    field's value type.
    """
    fn = field.fn if hasattr(field, "fn") else field
    return engine.partial(fn, coords, axis, M.lower, M.upper)


def scalar_partials(M: ChartManifold, engine: DiffEngine, phi: ScalarField, coords) -> Array:
    """Coordinate partials of phi at coords, analytic when the field carries them."""
    if phi.partials is not None:
        return np.asarray(phi.partials(coords), dtype=float)
    return engine.partials(phi.fn, coords, M.lower, M.upper)


def gradient(M: ChartManifold, engine: DiffEngine, phi: ScalarField, coords) -> Array:
    """Metric gradient: components g^{kl} d_l(phi)."""
    if not M.contains(coords):
        raise DomainError(f"point {coords} outside domain")
    dphi = scalar_partials(M, engine, phi, coords)
    g = M.metric_at(coords)
    return np.linalg.solve(g, dphi)


def check_scalar_field(M: ChartManifold, engine: DiffEngine, phi: ScalarField, points) -> float:
    """Max gap between analytic and finite-difference partials over points.

    Returns 0.0 when the field has no analytic partials. This only
    measures; judging the gap against a tolerance is left to the caller.
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
        an = np.asarray(analytic(p), dtype=float)
        fd = engine.partials(fn, p, M.lower, M.upper).T
        worst = max(worst, float(np.max(np.abs(an - fd))) / residual_scale(an, fd))
    return worst
