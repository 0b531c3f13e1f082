"""Coordinate charts, fields and metric evaluation.

A manifold here is a single global chart: an open axis-aligned box of
coordinates together with a metric field mapping coordinates to a symmetric
positive-definite matrix. Everything downstream (connections, submersions,
warped products) is built from these atoms. A point is the float array of
its coordinates, as ``ChartManifold.point`` checks and returns it, and a
tangent vector is the plain array of its chart components. Functions that
need the chart take it as their first argument.

The metric has one kernel over a point set, ``ChartManifold.metrics_at``,
checked or not; a single point's ``metric_at`` is that kernel on a stack of
one. Inside an ``evaluation_scope()`` pointwise results (metrics, Christoffel
symbols, splittings, dilations) are computed once per owner and exact
coordinates, then shared until the scope exits; ``_memoized_many`` is the
memo's one entry point.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import partial
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


def _one_at_a_time(owner, coords_seq, tag, compute_many) -> list:
    """``_memoized_many`` point by point: stores the values before the first
    failing point and raises that point's error."""
    return [_memoized_many(owner, [c], tag, compute_many)[0] for c in coords_seq]


def _memoized_many(owner, coords_seq, tag, compute_many) -> list:
    """``compute_many(coords_seq)``, a value per point of the list of float
    arrays ``coords_seq``; inside an evaluation scope each value is computed
    once per ``owner``, exact coordinates and ``tag`` and then shared, and
    the values not yet stored come from one ``compute_many`` call on the
    list of their coordinates (each once, in input order). Outside a scope
    this is a plain call and builds no key. Array values of a scope are made
    read-only, because they are shared.

    If ``compute_many`` raises on more than one missing point, the set is
    redone point by point (``_one_at_a_time``), so the first failing point
    raises its own error.
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
    one float array, bit for bit. ``_stack_of`` reads it (for a chart's
    ``metrics_at`` and ``VectorField.values_at``), and ``_stack`` for the
    kernels that hand it to their stencil walks (the connection kernels and
    ``gradients``). A builder keeps a ``one`` of its own only where that is
    a checked program (the warped ambient metric, the product map) or the
    form's reference (the seeded fields of ``fields``); the other fields it
    assembles are their form (``_single``). A callable put in the place of
    ``one`` comes without a form."""
    one._stack = stack
    return one


def _single(stack):
    """The callable of one point whose point-set form is ``stack``: ``stack``
    on a stack of one, carrying ``stack`` (``_with_stack``). For a form that
    takes owners (``PointFields``) the callable is ``one(c, n)``, which
    hands the form the owners ``[n]``."""
    def one(coords, *owner):
        return stack(np.asarray(coords, dtype=float)[None], *(np.array([n]) for n in owner))[0]

    return _with_stack(one, stack)


def _stack_of(fn):
    """The point-set form of ``fn``: the one ``_with_stack`` attached to it,
    else ``fn``'s values at the rows of an (N, dim) array as one float array."""
    stack = getattr(fn, "_stack", None)
    return stack or (lambda coords: np.array([fn(c) for c in coords], dtype=float))


def _stack(field):
    """The point-set form a builder attached to ``field.fn`` (``_with_stack``),
    else None: the form a kernel hands to its stencil walk."""
    return getattr(field.fn, "_stack", None)


def _point_set(stack, coords_seq, shape: tuple, one=None) -> Array:
    """``np.array([one(c) for c in coords], dtype=float)`` at the rows of
    ``coords = np.asarray(coords_seq, dtype=float)``, where ``one`` is the
    checked conversion of a value of ``shape`` at one point, taken as the
    one call ``stack(coords)`` when that returns an (N,) + ``shape`` array.
    A ``None`` ``one`` is ``stack`` on a stack of one.

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
    values = [stack(c[None])[0] if one is None else one(c) for c in coords]
    return np.array(values, dtype=float).reshape((len(coords),) + shape)


def _finite(stack: Array, coords_seq, error, what: str) -> Array:
    """``stack``, values at ``coords_seq``; raises ``error`` naming the first non-finite one."""
    finite = np.isfinite(stack).all(axis=tuple(range(1, stack.ndim)))
    if not finite.all():
        raise error(f"{what} not finite at {coords_seq[np.argmin(finite)]}")
    return stack


def _positive_definite(G: Array, coords) -> Array:
    """``G``, a symmetrized metric at the point ``coords`` or a stack of them
    at the rows of ``coords``; raises DegenerateMetricError naming the first
    whose lowest eigenvalue is at most ``SPD_FLOOR``, one stacked ``eigvalsh``
    for the set."""
    lowest = np.linalg.eigvalsh(G)[..., 0].reshape(-1).tolist()  # a list: cheap at one point
    for i, value in enumerate(lowest):
        if value <= SPD_FLOOR:
            raise DegenerateMetricError(
                f"metric not positive definite at {np.reshape(coords, (len(lowest), -1))[i]}: "
                f"min eigenvalue {value:.3e}"
            )
    return G


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
        """The symmetrized metric, optionally checked to be finite, symmetric
        and positive definite: ``metrics_at`` on a stack of one.

        Inside an evaluation scope the result is memoized by chart, exact
        coordinates and ``check`` (so a hit never skips a requested check).
        """
        return self.metrics_at([coords], check)[0]

    def metrics_at(self, coords_seq, check: bool = False) -> list[Array]:
        """``[self.metric_at(c, check) for c in coords_seq]``, with the metrics
        of the set converted as one stack, and checked and symmetrized as
        one; memo entries are shared with ``metric_at(c, check)``."""
        coords = [np.asarray(c, dtype=float) for c in coords_seq]
        return _memoized_many(self, coords, check, partial(self._stacked_metrics, check=check))

    def _stacked_metrics(self, coords_list: list, check: bool) -> list[Array]:
        """The metric at every point, as views of one symmetrized stack; with
        ``check``, raises the error of the first point whose metric is not
        finite, then of the first whose metric is not symmetric, then of the
        first that is not positive definite, one stacked test each."""
        g = self._raw_metrics(coords_list)
        if not check:
            return list(_symmetrized(g))
        scale = 1.0 + np.abs(g).max(axis=(1, 2))  # a NaN fails both tests below
        _finite(scale, coords_list, DegenerateMetricError, "metric")
        asymmetric = np.flatnonzero(np.abs(g - g.swapaxes(1, 2)).max(axis=(1, 2)) > SYM_TOL * scale)
        if asymmetric.size:
            raise DegenerateMetricError(f"metric not symmetric at {coords_list[asymmetric[0]]}")
        return list(_positive_definite(_symmetrized(g), coords_list))

    def _raw_metrics(self, coords_seq) -> Array:
        """``np.stack([self._raw_metric(c) for c in coords_seq])``, the metric
        field's values converted once for the set."""
        return _point_set(_stack_of(self.metric), coords_seq, (self.dim,) * 2, self._raw_metric)

    def _raw_metric(self, coords: Array) -> Array:
        """The metric field's value as a float (dim, dim) array, neither
        symmetrized nor checked."""
        g = np.asarray(self.metric(coords), dtype=float)
        if g.shape != (self.dim, self.dim):
            raise DegenerateMetricError(f"metric returned shape {g.shape} at {coords}")
        return g


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

    def values_at(self, coords) -> Array:
        """``np.array([self(c) for c in coords])`` at the rows of the (N, dim)
        array ``coords``, bit for bit: one call of the point-set form a
        builder attached to ``fn`` (``_with_stack``), else ``fn`` point by
        point. An empty set gives shape (0, dim)."""
        coords = np.asarray(coords, dtype=float)
        if not len(coords):
            return np.zeros(coords.shape)
        return _stack_of(self.fn)(coords)

    @staticmethod
    def constant(components) -> "VectorField":
        comps = np.asarray(components, dtype=float)
        return VectorField(lambda c: comps)

    @staticmethod
    def coordinate(dim: int, axis: int) -> "VectorField":
        comps = np.zeros(dim)
        comps[axis] = 1.0
        return VectorField(lambda c: comps)


@dataclass(frozen=True)
class PointFields:
    """A vector field for each row of a point set, which belongs to that
    row's point, as the extensions of vectors given at the points do.

    ``stack(points, owners)`` is the field of row ``owners[k]`` at each row
    k of the (K, dim) array ``points``, as one float array: a form that
    takes owners, which a kernel hands to ``DiffEngine.stacked_partials``
    (``owned=True``). Row n's field at the coordinates c is that form on a
    stack of one (``_single``)."""

    stack: Callable[[Array, Array], Array]

    def __call__(self, coords, n: int) -> Array:
        return np.asarray(_single(self.stack)(coords, n), dtype=float)

    def field(self, n: int) -> VectorField:
        """Row n's field alone, without a point-set form."""
        return VectorField(lambda c: self(c, n))

    def values_at(self, coords, owners=None) -> Array:
        """``np.array([self(c, n) for c, n in zip(coords, owners)])`` at the
        rows of the (N, dim) array ``coords``, bit for bit, in one call of
        the form; each row's own field at its own point when ``owners`` is
        None. An empty set gives shape (0, dim)."""
        coords = np.asarray(coords, dtype=float)
        if not len(coords):
            return np.zeros(coords.shape)
        return self.stack(coords, np.arange(len(coords)) if owners is None else owners)

    @staticmethod
    def constant(vectors) -> "PointFields":
        """Row n: ``VectorField.constant(vectors[n])``."""
        V = np.asarray(vectors, dtype=float)
        return PointFields(lambda points, owners: V[owners])


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


def gradient(M: ChartManifold, engine: DiffEngine, phi: ScalarField, coords) -> Array:
    """Metric gradient: components g^{kl} d_l(phi), with the checked
    ``M.metric_at(coords)``; ``gradients`` on a stack of one."""
    return gradients(M, engine, phi, [coords])[0]


def gradients(M: ChartManifold, engine: DiffEngine, phi: ScalarField, coords_seq,
              metrics=None) -> Array:
    """``np.stack([gradient(M, engine, phi, c) for c in coords_seq])``: the
    partials of the set from one stacked walk, handed phi's point-set form
    where it carries one (or phi's analytic partials, point by point), and
    one stacked ``solve``; a set that raises is redone point by point
    (``_point_set``), so the first failing point raises its own error.

    ``metrics``, when given, are the checked ``M.metric_at(c)`` a caller has
    just evaluated at the same points, as for ``connection.christoffels``;
    any other array would skip the SPD check."""
    given = {} if metrics is None else {
        np.asarray(c, dtype=float).tobytes(): g for c, g in zip(coords_seq, metrics)}

    def stack(coords):
        points = np.array([M.point(c) for c in coords]).reshape(len(coords), M.dim)
        dphi = _stacked_scalar_partials(M, engine, phi, points)
        G = _given_or_checked(M, points, [given.get(c.tobytes()) for c in points])
        return np.linalg.solve(G, dphi[..., None])[..., 0]

    return _point_set(stack, coords_seq, (M.dim,))


def _stacked_scalar_partials(M: ChartManifold, engine: DiffEngine, phi: ScalarField,
                             points: Array) -> Array:
    """``scalar_partials`` at each row of the (N, dim) array ``points``, bit
    for bit: phi's analytic partials point by point, else one stacked walk,
    handed phi's point-set form where it carries one."""
    if phi.partials is None:
        return engine.stacked_partials(phi, points, M.lower, M.upper, stack=_stack(phi))
    return np.array([np.asarray(phi.partials(c), dtype=float) for c in points])


def _given_or_checked(M: ChartManifold, coords_seq, given: list) -> Array:
    """The stack of the metrics ``given`` at the points of ``coords_seq``,
    where each None is the checked ``M.metric_at`` there: those points read
    in one ``metrics_at`` call."""
    checked = iter(M.metrics_at([c for c, g in zip(coords_seq, given) if g is None], check=True))
    return np.array([next(checked) if g is None else g for g in given])


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
