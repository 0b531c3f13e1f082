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

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateMetricError, DomainError, GeometryError
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


def _compute_one(compute_many, coords: Array):
    """The value at one point of a point-set kernel: ``compute_many`` on a
    stack of one."""
    return compute_many([coords])[0]


def _one_at_a_time(owner, coords_seq, tag, compute_many) -> list:
    """``_memoized_many`` point by point: stores the values before the first
    failing point and raises that point's error."""
    return [_memoized(owner, c, tag, _compute_one, compute_many, c) for c in coords_seq]


def _memoized_many(owner, coords_seq, tag, compute_many) -> list:
    """``[_memoized(owner, c, tag, _compute_one, compute_many, c) for c in
    coords_seq]``, with the values not yet stored computed by one
    ``compute_many`` call on the list of their coordinates (each once, in
    input order).

    If ``compute_many`` raises on more than one missing point, that loop
    itself is run (``_one_at_a_time``), so the first failing point raises
    its own error.
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
        if len(missing) == 1:
            raise  # a lone missing point's error is already the first
        return _one_at_a_time(owner, coords_seq, tag, compute_many)
    if memo is None:
        return values
    for key, value in zip(missing, values):
        _store(cache, key, value)
    return [cache[key] for key in keys]


def _with_stack(one, stack):
    """``one``, a callable of one point, carrying ``stack``: a callable of a
    float (N, dim) array of points that returns ``one``'s values there as
    one float array, bit for bit. ``_stack_of`` reads it. Builders attach
    it to the callables they assemble from their parts; a callable put in
    the place of ``one`` comes without it."""
    one._stack = stack
    return one


def _stack_of(fn):
    """The point-set form of ``fn``: the one ``_with_stack`` attached to it,
    else ``fn``'s values at the rows of an (N, dim) array as one float array."""
    stack = getattr(fn, "_stack", None)
    return stack or (lambda coords: np.array([fn(c) for c in coords], dtype=float))


def _point_set(one, stack, coords_seq, shape: tuple) -> Array:
    """``np.array([one(c) for c in coords], dtype=float)`` at the rows of
    ``coords = np.asarray(coords_seq, dtype=float)``, where ``one`` is the
    checked conversion of a value of ``shape`` at one point, taken as the
    one call ``stack(coords)`` when that returns an (N,) + ``shape`` array.

    A ``stack`` that raises, or whose values have different shapes or
    another shape, is redone point by point with ``one``, so that the
    first failing point raises its own error. A set of one point is
    ``one`` alone, so a failing lone point is evaluated once.
    """
    coords = np.asarray(coords_seq, dtype=float)
    try:
        values = stack(coords) if len(coords) != 1 else None
    except Exception:
        values = None  # the loop below raises the first failing point's error
    if values is not None and values.shape == (len(coords),) + shape:
        return values
    return np.array([one(c) for c in coords], dtype=float).reshape((len(coords),) + shape)


def _finite(stack: Array, coords_seq, error, what: str) -> Array:
    """``stack``, values at ``coords_seq``; raises ``error`` naming the first non-finite one."""
    finite = np.isfinite(stack).all(axis=tuple(range(1, stack.ndim)))
    if not finite.all():
        raise error(f"{what} not finite at {coords_seq[np.argmin(finite)]}")
    return stack


def _symmetrized(g: Array) -> Array:
    """0.5 (g + gᵀ) of a metric, or of each metric of a stack ``(..., d, d)``."""
    return 0.5 * (g + g.swapaxes(-1, -2))


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

    def __post_init__(self):
        object.__setattr__(self, "lower", _as_bound(self.lower, self.dim, -np.inf))
        object.__setattr__(self, "upper", _as_bound(self.upper, self.dim, np.inf))
        if not np.all(self.lower < self.upper):
            raise ValueError("domain box is empty along some axis")

    @staticmethod
    def euclidean(dim: int, lower=None, upper=None, name: str = "") -> "ChartManifold":
        identity = np.eye(dim)
        return ChartManifold(dim, lower, upper, lambda c: identity, name or f"euclidean{dim}")

    def contains(self, coords):
        coords = np.asarray(coords, dtype=float)
        return ((coords > self.lower) & (coords < self.upper)).all(axis=-1)

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
        """Evaluate the metric; symmetrize, optionally check that it is
        finite, symmetric and positive definite.

        Inside an evaluation scope the result is memoized by chart, exact
        coordinates and ``check`` (so a hit never skips a requested check).
        """
        coords = np.asarray(coords, dtype=float)
        return _memoized(self, coords, check, self._metric, coords, check)

    def metrics_at(self, coords_seq) -> list[Array]:
        """``[self.metric_at(c, check=False) for c in coords_seq]``, with the
        metrics of the set converted and symmetrized as one stack; memo
        entries are shared with ``metric_at(c, check=False)``."""
        coords = [np.asarray(c, dtype=float) for c in coords_seq]
        return _memoized_many(self, coords, False, self._stacked_metrics)

    def _stacked_metrics(self, coords_list: list) -> list[Array]:
        """The unchecked metric at every point, as views of one symmetrized
        stack."""
        return list(_symmetrized(self._raw_metrics(coords_list)))

    def _raw_metrics(self, coords_seq) -> Array:
        """``np.stack([self._raw_metric(c) for c in coords_seq])``, the metric
        field's values converted once for the set."""
        return _point_set(self._raw_metric, _stack_of(self.metric), coords_seq, (self.dim,) * 2)

    def _raw_metric(self, coords: Array) -> Array:
        """The metric field's value as a float (dim, dim) array, neither
        symmetrized nor checked."""
        g = np.asarray(self.metric(coords), dtype=float)
        if g.shape != (self.dim, self.dim):
            raise DegenerateMetricError(f"metric returned shape {g.shape} at {coords}")
        return g

    def _metric(self, coords: Array, check: bool) -> Array:
        g = self._raw_metric(coords)
        if not check:
            return _symmetrized(g)
        scale = 1.0 + float(np.abs(g).max())
        if not math.isfinite(scale):  # a NaN fails both tests below
            raise DegenerateMetricError(f"metric not finite at {coords}")
        if float(np.abs(g - g.T).max()) > SYM_TOL * scale:
            raise DegenerateMetricError(f"metric not symmetric at {coords}")
        sym = _symmetrized(g)
        lowest = float(np.linalg.eigvalsh(sym)[0])
        if lowest <= SPD_FLOOR:
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
        value = self.fn(np.asarray(coords, dtype=float))
        try:
            return float(value)
        except TypeError:  # not a scalar
            raise GeometryError(f"scalar field of shape {np.shape(value)} at {coords}") from None

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
    return float(u @ M.metric_at(M.point(coords)) @ v)


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
    return engine.partials(phi, coords, M.lower, M.upper)


def gradient(
    M: ChartManifold, engine: DiffEngine, phi: ScalarField, coords, g: Optional[Array] = None
) -> Array:
    """Metric gradient: components g^{kl} d_l(phi).

    ``g``, the checked ``M.metric_at(coords)``, is evaluated when not given."""
    coords = M.point(coords)
    dphi = scalar_partials(M, engine, phi, coords)
    if g is None:
        g = M.metric_at(coords)
    return np.linalg.solve(g, dphi)


def check_scalar_field(M: ChartManifold, engine: DiffEngine, phi: ScalarField, points) -> float:
    """Max gap between analytic and finite-difference partials over points.

    Returns 0.0 when the field has no analytic partials. This only
    measures; judging the gap against a tolerance is left to the caller.
    """
    if phi.partials is None:
        return 0.0
    return analytic_fd_gap([np.asarray(phi.partials(p), dtype=float) for p in points],
                           [engine.partials(phi, p, M.lower, M.upper) for p in points])


def analytic_fd_gap(analytic, fd) -> float:
    """Max over pairs of analytic and FD partials (or Jacobians) of the largest
    entry of |analytic - fd|, scaled by ``residual_scale``; a NaN gap is kept."""
    gaps = [float(np.max(np.abs(a - f))) / residual_scale(a, f) for a, f in zip(analytic, fd)]
    return float(np.max(gaps, initial=0.0))
