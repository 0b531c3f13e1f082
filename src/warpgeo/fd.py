"""Finite-difference engine.

All derivatives in the package flow through :class:`DiffEngine`, which
evaluates central-difference stencils on scalar-, vector- or matrix-valued
functions of coordinates and shrinks its step automatically when a stencil
would leave the chart's coordinate box.

The partials at a point set are one walk over the set's stencils
(``_walk``). A function is evaluated one stencil point at a time, except
that a kernel owning a point-set form of its function may hand it to
``stacked_partials`` (``stack=``), which then evaluates every used stencil
point of a set in one call of the form. A kernel whose function differs
from point to point of the set (a field that belongs to one point) hands
over a form that takes owners (``owned=True``): the walk then also passes
the row in the set of each stencil point's base point, so that stencil
points of two base points may coincide. The directional derivative of a
point set (``directional`` at (N, dim) arrays) evaluates the stencil
points along each row's direction the same way, through ``fn`` or a form
its kernel hands over. The engine never reads a form off the function it
is handed, so a wrapper around that function (a tracer's) leaves the
program as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import StencilError


def _central2(at, h: float):
    return (at(h) - at(-h)) / (2.0 * h)


def _central4(at, h: float):
    return (at(-2 * h) - 8.0 * at(-h) + 8.0 * at(h) - at(2 * h)) / (12.0 * h)


# scheme -> (farthest stencil point in units of the step, combine(at, h)).
# Richardson extrapolation of central2 from steps h and h/2 has exactly the
# central4 weights at step h/2 (Fornberg, Math. Comp. 1988).
STENCILS = {
    "central2": (1.0, _central2),
    "central4": (2.0, _central4),
    "richardson": (1.0, lambda at, h: _central4(at, 0.5 * h)),
}

SCHEMES = tuple(STENCILS)


def _room(x: float, lower, upper) -> float:
    """Distance from x to the nearer bound of its axis: +inf on an unbounded
    axis, NaN at a coordinate that is not finite."""
    if not math.isfinite(x):
        return math.nan
    return min(x - float(lower), float(upper) - x)


def _rooms(x: np.ndarray, lower, upper) -> np.ndarray:
    """``_room`` of each coordinate of ``x``, whose last axis runs over the
    axes of ``lower`` and ``upper``."""
    with np.errstate(invalid="ignore"):  # inf - inf, at a room that is NaN anyway
        room = np.minimum(x - lower, upper - x)
    return np.where(np.isfinite(x), room, np.nan)


@dataclass(frozen=True)
class DiffEngine:
    """Central differences with automatic step shrinking near box edges.

    scheme: "central2" (2nd order), "central4" (4th order) or "richardson"
    (central2 extrapolated from steps h and h/2, i.e. central4 at h/2).
    A stencil that only fits with a step below ``min_step`` raises.
    """

    scheme: str = "central2"
    step: float = 1e-5
    min_step: ClassVar[float] = 1e-10

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be positive and finite, got {self.step}")

    def _fit_step(self, room: float) -> float:
        """Largest usable step given the distance to the nearest bound.

        Only a room of +inf (an unbounded axis) leaves the step unlimited; a
        NaN or negative room, as at a coordinate that is not a number or lies
        outside the box, raises StencilError."""
        limit = 0.5 * room / STENCILS[self.scheme][0]
        # min(limit, step) keeps a NaN limit, which then fails the check below
        h = self.step if limit == math.inf else min(limit, self.step)
        if not h >= self.min_step:
            raise StencilError(
                f"stencil does not fit: room to boundary {room:.3e} allows step "
                f"{h:.3e} < min_step {self.min_step:.3e}"
            )
        return h

    def _require_fit(self, room: np.ndarray, h: np.ndarray) -> None:
        """Raises the StencilError of ``_fit_step`` for the first stencil, in
        C order, whose step ``h`` (from ``room``) is below ``min_step`` or NaN."""
        fits = h >= self.min_step
        if not fits.all():
            self._fit_step(float(room.flat[np.argmin(fits)]))  # raises its message

    def partial(self, fn, coords, axis: int, lower, upper):
        """d(fn)/d(coords[axis]). fn may return a float or an ndarray.

        ``coords`` may also be an (N, dim) array of points: the result is
        then ``np.stack([self.partial(fn, c, axis, lower, upper) for c in
        coords])``, bit for bit, by one ``_walk`` over the set's stencils.
        """
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 2:
            return self._walk(fn, coords, lower, upper, (axis,))[:, 0]
        x = float(coords[axis])
        h = self._fit_step(_room(x, lower[axis], upper[axis]))

        def at(t: float):
            shifted = coords.copy()
            shifted[axis] = x + t
            return np.asarray(fn(shifted), dtype=float)

        return STENCILS[self.scheme][1](at, h)

    def _steps(self, coords: np.ndarray, lower, upper, axes) -> tuple:
        """The steps of ``partial``'s stencils along each of ``axes`` at each
        row of the (N, dim) array ``coords`` and the rooms they come from,
        each of shape (N, len(axes)), equal to its own bit for bit. A
        stencil whose step is below ``min_step`` or NaN does not fit:
        ``partial`` raises there (``_require_fit``)."""
        axes = list(axes)
        room = _rooms(coords[:, axes], np.asarray(lower, dtype=float)[axes],
                      np.asarray(upper, dtype=float)[axes])
        return np.minimum(0.5 * room / STENCILS[self.scheme][0], self.step), room  # keeps a NaN

    def _offsets(self, h) -> list:
        """The offsets from its base point at which a stencil of step ``h``
        (a float, or an array of steps) is evaluated, in call order: the
        scheme's own combine run with an ``at`` that records them."""
        offsets = []

        def at(t):
            offsets.append(t)
            return 0.0

        STENCILS[self.scheme][1](at, h)
        return offsets

    def _stencils(self, coords: np.ndarray, lower, upper, axes) -> tuple:
        """The stencils of ``partial`` along each of ``axes`` at each row of
        the (N, dim) array ``coords``: their points, shape
        (N, len(axes), S, dim) with the S points of a stencil in call order,
        and their steps and rooms (``_steps``).

        The offsets are ``_offsets``, and each point is built as in
        ``partial``, so points equal its own bit for bit. The points of a
        stencil that does not fit mean nothing.
        """
        axes = list(axes)
        x = coords[:, axes]
        h, room = self._steps(coords, lower, upper, axes)
        offsets = self._offsets(h)
        points = np.empty((len(coords), len(axes), len(offsets), coords.shape[1]))
        points[...] = coords[:, None, None, :]
        for k, t in enumerate(offsets):
            points[:, range(len(axes)), k, axes] = x + t
        return points, h, room

    def _walk(self, fn, coords: np.ndarray, lower, upper, axes, used=None,
              stack=None, owned: bool = False) -> np.ndarray:
        """The partials of ``fn`` along each of ``axes`` at each row of the
        (N, dim) array ``coords``, as an (N, len(axes)) + value-shape array:
        the engine's one walk over a point set's stencils.

        Only the stencils where the (N, len(axes)) mask ``used`` holds are
        evaluated (every one when None); the others are exact zeros. ``fn``
        is evaluated once per used stencil point, in the order of the loop
        of ``partial`` calls over points and then axes, or, when given,
        ``stack``, a point-set form of ``fn``, once on all of them in that
        order. With ``owned``, the form is called as ``stack(points,
        owners)``: ``owners[k]``, the row in ``coords`` of the base point of
        the k-th used stencil point, is built for such a form only. The
        values are combined by the scheme's own combine with the array of
        their stencils' steps, so each partial equals ``partial``'s at its
        point bit for bit. Raises the StencilError of that loop's first
        failing used stencil, before any evaluation.
        """
        points, h, room = self._stencils(coords, lower, upper, axes)
        owners = (np.broadcast_to(np.arange(len(coords))[:, None, None], points.shape[:-1])
                  if owned else None)
        if used is not None:
            points, h, room = points[used], h[used], room[used]
            owners = None if owners is None else owners[used]
        self._require_fit(room, h)
        d = self._combined(fn, points, h, stack, owners)
        if used is None:
            return d
        out = np.zeros(used.shape + d.shape[1:])
        out[used] = d
        return out

    def _combined(self, fn, points: np.ndarray, h: np.ndarray, stack=None, owners=None):
        """The scheme's combine of the values at ``points``, an h.shape +
        (S, dim) array of stencils whose S points are in call order, with
        the array of their steps ``h``: ``fn`` is evaluated at each point in
        C order, or ``stack``, a point-set form of ``fn``, once on all of
        them, called with the owners of the points (h.shape + (S,)) where
        given."""
        flat = points.reshape(-1, points.shape[-1])
        if stack is None:
            values = np.array([fn(p) for p in flat], dtype=float)
        else:
            values = np.asarray(stack(flat) if owners is None else stack(flat, owners.reshape(-1)),
                                dtype=float)
        values = values.reshape(points.shape[:-1] + values.shape[1:])
        calls = iter(range(points.shape[-2]))
        lead = (slice(None),) * h.ndim
        h = h.reshape(h.shape + (1,) * (values.ndim - h.ndim - 1))
        return STENCILS[self.scheme][1](lambda t: values[lead + (next(calls),)], h)

    def stencil_points(self, coords, lower, upper, axes) -> np.ndarray:
        """The points ``partial(fn, coords, axis, lower, upper)`` passes to
        ``fn`` for each axis of ``axes``, in call order, as rows of one array,
        equal to its points bit for bit. Raises StencilError where
        ``partial`` would.
        """
        coords = np.asarray(coords, dtype=float)
        points, h, room = self._stencils(coords[None], lower, upper, axes)
        self._require_fit(room, h)
        return points.reshape(-1, len(coords))

    def stacked_partials(self, fn, coords, lower, upper, along=None, stack=None,
                         owned: bool = False) -> np.ndarray:
        """``np.stack([self.partials(fn, c, lower, upper, along=a) for c, a in
        zip(coords, along)])`` for the rows c of the (N, dim) array ``coords``
        and a of the (N, dim) array ``along`` (every axis when None), bit for
        bit: one ``partial`` walk per axis over the points where
        along[n, i] != 0.0, or, with ``stack``, a point-set form of ``fn``
        that its caller hands over, one ``_walk`` over every used stencil of
        the set that evaluates ``stack`` once. The form is never read off
        ``fn``.

        With ``owned``, each row has its own function, a field that belongs
        to its point: ``fn(c, n)`` is row n's at the coordinates c, in the
        place of ``fn`` in the loop above, and the walk hands ``stack`` the
        owners of the stencil points (``_walk``), which it then requires.

        A lone point is that loop, which evaluates ``fn``. For a set of two
        or more, each used stencil is evaluated once, and the StencilError
        of the loop's first failing stencil is raised before any evaluation;
        a point with no used axis is its own ``partials`` call, which
        evaluates ``fn`` once, at the point, for the value's shape.
        """
        coords = np.asarray(coords, dtype=float)
        row = (lambda n: lambda c: fn(c, n)) if owned else (lambda n: fn)
        if len(coords) == 1:
            one = None if along is None else along[0]
            return self.partials(row(0), coords[0], lower, upper, along=one)[None]
        n, dim = coords.shape
        used = np.ones((n, dim), dtype=bool) if along is None else np.asarray(along) != 0.0
        h, room = self._steps(coords, lower, upper, range(dim))
        self._require_fit(room[used], h[used])
        idle = np.flatnonzero(~used.any(axis=1))
        shapes = [self.partials(row(k), coords[k], lower, upper, along=along[k]).shape[1:]
                  for k in idle]
        if stack is not None and len(idle) < n:
            return self._walk(fn, coords, lower, upper, range(dim), used, stack, owned)
        out = None
        for i in np.flatnonzero(used.any(axis=0)):
            rows = slice(None) if along is None else used[:, i]
            d = self.partial(fn, coords[rows], i, lower, upper)
            if out is None:
                out = np.zeros((n, dim) + d.shape[1:])
            out[rows, i] = d
        return np.zeros((n, dim) + (shapes[0] if shapes else ())) if out is None else out

    def jacobian(self, fn, coords, lower, upper) -> np.ndarray:
        """``np.stack([self.partials(fn, c, lower, upper).T for c in coords])``
        for the rows c of the (N, dim) array ``coords``: the Jacobian of a
        vector fn (the gradient of a scalar one) at each point of a set: one
        ``_walk`` along every axis, transposed.
        """
        coords = np.asarray(coords, dtype=float)
        d = self._walk(fn, coords, lower, upper, range(coords.shape[1]))
        # each point's .T, C-ordered as the checked single-point conversion
        return np.ascontiguousarray(d.transpose((0,) + tuple(range(d.ndim - 1, 0, -1))))

    def partials(self, fn, coords, lower, upper, along=None) -> np.ndarray:
        """All coordinate partials of fn stacked along axis 0: out[i] = d_i fn.

        For a scalar fn this is the gradient vector, for a vector fn the
        transposed Jacobian, for a matrix fn the array d_i fn_jk.

        For a derivative that is only contracted with a direction, pass it as
        ``along``: row i is then differentiated only where along[i] != 0.0,
        and every other row is an exact zero whose stencil is never evaluated
        (nor checked against the box). ``along @ out`` then differs from the
        full contraction at most in the sign of a zero.
        """
        coords = np.asarray(coords, dtype=float)
        n = len(coords)
        used = [i for i in range(n) if along is None or along[i] != 0.0]
        if not used:  # nothing to differentiate; one evaluation gives the shape
            return np.zeros((n,) + np.shape(fn(coords)))
        first = self.partial(fn, coords, used[0], lower, upper)
        out = np.zeros((n,) + np.shape(first))
        out[used[0]] = first
        for i in used[1:]:
            out[i] = self.partial(fn, coords, i, lower, upper)
        return out

    def directional(self, fn, coords, direction, lower, upper, stack=None):
        """Derivative of a scalar fn along a straight line through coords.

        ``coords`` and ``direction`` may also be (N, dim) arrays of points and
        directions: the result is then ``np.array([self.directional(fn, c, d,
        lower, upper) for c, d in zip(coords, direction)])``, bit for bit. A
        row whose direction is zero is an exact 0.0 and is not evaluated. A
        lone point is that loop, which evaluates ``fn``. For two or more,
        the stencil points of the set are evaluated in the loop's order, by
        ``fn`` one at a time or, when given, by ``stack``, a point-set form
        of ``fn``, in one call, and combined by the scheme's own combine with
        the array of their steps; the StencilError of the loop's first
        failing row is raised before any evaluation.
        """
        coords = np.asarray(coords, dtype=float)
        d = np.asarray(direction, dtype=float)
        if coords.ndim == 2:
            return self._directionals(fn, coords, d, lower, upper, stack)
        moving = d != 0.0
        if not np.any(moving):
            return 0.0
        h = self._fit_step(float(np.min(self._gaps(coords, d, lower, upper)[moving])))

        def at(t: float):
            return np.asarray(fn(coords + t * d), dtype=float)

        return float(STENCILS[self.scheme][1](at, h))

    @staticmethod
    def _gaps(coords: np.ndarray, d: np.ndarray, lower, upper) -> np.ndarray:
        """The room to the box along each component of the directions ``d``,
        in units of that component: inf along a zero or subnormal component,
        NaN or negative at a coordinate that is not finite or lies outside
        the box, which ``_fit_step`` rejects."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return np.minimum(upper - coords, coords - lower) / np.abs(d)

    def _directionals(self, fn, coords: np.ndarray, d: np.ndarray, lower, upper,
                      stack) -> np.ndarray:
        """``directional`` at each row of the (N, dim) arrays ``coords`` and
        ``d``, as an (N,) array."""
        if len(coords) == 1:
            return np.array([self.directional(fn, coords[0], d[0], lower, upper)])
        moving = d != 0.0
        rows = moving.any(axis=1)
        room = np.where(moving, self._gaps(coords, d, lower, upper), np.inf)[rows].min(axis=1)
        h = np.minimum(0.5 * room / STENCILS[self.scheme][0], self.step)  # keeps a NaN
        self._require_fit(room, h)
        out = np.zeros(len(coords))
        if rows.any():
            t = np.stack(self._offsets(h), axis=1)
            points = coords[rows, None, :] + t[:, :, None] * d[rows, None, :]
            out[rows] = self._combined(fn, points, h, stack)
        return out
