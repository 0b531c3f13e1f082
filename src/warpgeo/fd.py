"""Finite-difference engine.

All derivatives in the package flow through :class:`DiffEngine`, which
evaluates central-difference stencils on scalar-, vector- or matrix-valued
functions of coordinates and shrinks its step automatically when a stencil
would leave the chart's coordinate box.

A point set has one walk over its stencils, ``_along``: the derivative at
each row along that row's direction. A coordinate partial is the
directional derivative along its unit axis, so the partials of a set
(``_walk``) and its directional derivatives (``directional`` at (N, dim)
arrays) are both ``_along``, and each equals its single-point call bit for
bit. A function is evaluated one stencil point at a time, except that a
kernel owning a point-set form of its function may hand it over
(``stack=``), which then evaluates every stencil point of a set in one
call. A kernel whose function differs from point to point of the set (a
field that belongs to one point) hands over a form that takes owners
(``owned=True``): the walk then also passes the row in the set of each
stencil point's base point, so that stencil points of two base points may
coincide. The engine never reads a form off the function it is handed, so
a wrapper around that function (a tracer's) leaves the program as it is.
``stacked_partials`` of a function without a form keeps one ``partial``
walk per axis, which is the call a tracer of ``DiffEngine.partial`` sees.
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

    def _steps(self, room: np.ndarray) -> np.ndarray:
        """``_fit_step`` of each entry of the array ``room``, equal to its own
        bit for bit. Raises its StencilError for the first room, in C order,
        whose step is below ``min_step`` or NaN."""
        h = np.minimum(0.5 * room / STENCILS[self.scheme][0], self.step)  # keeps a NaN
        fits = h >= self.min_step
        if not fits.all():
            self._fit_step(float(room.flat[np.argmin(fits)]))  # raises its message
        return h

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

    def _along(self, fn, coords: np.ndarray, d: np.ndarray, lower, upper, stack,
               owners=None) -> np.ndarray:
        """The derivative of ``fn`` at each row of the (K, dim) array
        ``coords`` along the nonzero direction in that row of ``d``, as a
        (K,) + value-shape array: the engine's one walk over a set's stencils.

        A row's step is ``_fit_step`` of its least room along the components
        it moves (``_gaps``); the StencilError of the first row whose step
        does not fit is raised before any evaluation. A stencil point copies
        its base point and writes in only the moved components, c[j] + t
        d[j] at the ``_offsets`` t, so along a unit axis it is ``partial``'s
        point bit for bit, a -0.0 elsewhere included. ``fn`` is evaluated at
        the stencil points row by row in call order, or ``stack``, a
        point-set form of ``fn``, once on all of them, also given each
        point's owner (row k's is ``owners[k]``) where ``owners`` is given.
        The scheme's own combine then runs on the array of steps.
        """
        r, j = np.nonzero(d != 0.0)  # the moved components, row by row
        c, v = coords[r, j], d[r, j]
        room = np.full(len(d), np.inf)  # each row's least gap, NaN if one is NaN
        with np.errstate(invalid="ignore"):
            np.minimum.at(room, r, self._gaps(c, v, np.asarray(lower)[j], np.asarray(upper)[j]))
        h = self._steps(room)
        t = np.stack(self._offsets(h), axis=1)  # (K, S), a stencil's offsets in call order
        points = np.repeat(coords[:, None, :], t.shape[1], axis=1)
        points[r, :, j] = c[:, None] + t[r] * v[:, None]
        flat = points.reshape(-1, coords.shape[1])
        if stack is None:
            values = np.array([fn(p) for p in flat], dtype=float)
        else:
            values = np.asarray(stack(flat) if owners is None else
                                stack(flat, np.repeat(owners, t.shape[1])), dtype=float)
        values = values.reshape(t.shape + values.shape[1:])
        calls = iter(range(t.shape[1]))
        h = h.reshape(h.shape + (1,) * (values.ndim - 2))
        return STENCILS[self.scheme][1](lambda _: values[:, next(calls)], h)

    def _walk(self, fn, coords: np.ndarray, lower, upper, axes, used=None,
              stack=None, owned: bool = False) -> np.ndarray:
        """The partials of ``fn`` along each of ``axes`` at each row of the
        (N, dim) array ``coords``, as an (N, len(axes)) + value-shape array:
        ``_along`` the unit axis of each (point, axis) pair where the mask
        ``used`` holds (every pair when None), in C order, which is the loop
        of ``partial`` calls over points and then axes; the other pairs are
        exact zeros. With ``owned``, ``stack`` is also given the owners, the
        row in ``coords`` of each stencil point's base point.
        """
        axes = np.asarray(axes, dtype=int)
        rows, k = np.nonzero(np.ones((len(coords), len(axes)), bool) if used is None else used)
        values = self._along(fn, coords[rows], np.eye(coords.shape[1])[axes[k]], lower, upper,
                             stack, rows if owned else None)
        if used is None:
            return values.reshape((len(coords), len(axes)) + values.shape[1:])
        out = np.zeros(used.shape + values.shape[1:])
        out[used] = values
        return out

    def stencil_points(self, coords, lower, upper, axes) -> np.ndarray:
        """The points ``partial(fn, coords, axis, lower, upper)`` passes to
        ``fn`` for each axis of ``axes``, in call order, as rows of one array,
        equal to its points bit for bit: the points ``_along`` hands a form
        that records them. Raises StencilError where ``partial`` would.
        """
        coords = np.asarray(coords, dtype=float)
        d = np.eye(len(coords))[list(axes)]
        seen = []
        self._along(None, np.tile(coords, (len(d), 1)), d, lower, upper,
                    lambda points: seen.append(points) or np.zeros(len(points)))
        return seen[0]

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
        self._steps(self._gaps(coords, np.ones_like(coords), lower, upper)[used])
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
            shifted = coords.copy()
            shifted[moving] = coords[moving] + t * d[moving]
            return np.asarray(fn(shifted), dtype=float)

        return float(STENCILS[self.scheme][1](at, h))

    @staticmethod
    def _gaps(coords: np.ndarray, d: np.ndarray, lower, upper) -> np.ndarray:
        """The room to the box along each component of the directions ``d``,
        in units of that component: ``_room`` of each coordinate over |d|,
        which may overflow to inf along a subnormal component, NaN at a
        coordinate that is not finite or negative outside the box, which
        ``_fit_step`` rejects. A zero component's gap means nothing."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            room = np.minimum(upper - coords, coords - lower)  # ties as _room's min
            return np.where(np.isfinite(coords), room, np.nan) / np.abs(d)

    def _directionals(self, fn, coords: np.ndarray, d: np.ndarray, lower, upper,
                      stack) -> np.ndarray:
        """``directional`` at each row of the (N, dim) arrays ``coords`` and
        ``d``, as an (N,) array: ``_along`` its rows with a nonzero
        direction."""
        if len(coords) == 1:
            return np.array([self.directional(fn, coords[0], d[0], lower, upper)])
        rows = (d != 0.0).any(axis=1)
        out = np.zeros(len(coords))
        if rows.any():
            out[rows] = self._along(fn, coords[rows], d[rows], lower, upper, stack)
        return out
