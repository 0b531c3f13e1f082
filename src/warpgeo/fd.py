"""Finite-difference engine.

All derivatives in the package flow through :class:`DiffEngine`, which
evaluates central-difference stencils on scalar-, vector- or matrix-valued
functions of coordinates and shrinks its step automatically when a stencil
would leave the chart's coordinate box.
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
        """d(fn)/d(coords[axis]). fn may return a float or an ndarray."""
        coords = np.asarray(coords, dtype=float)
        x = float(coords[axis])
        h = self._fit_step(_room(x, lower[axis], upper[axis]))

        def at(t: float):
            shifted = coords.copy()
            shifted[axis] = x + t
            return np.asarray(fn(shifted), dtype=float)

        return STENCILS[self.scheme][1](at, h)

    def _stencils(self, coords: np.ndarray, lower, upper, axes) -> tuple:
        """The stencils of ``partial`` along each of ``axes`` at each row of
        the (N, dim) array ``coords``: their points, shape
        (N, len(axes), S, dim) with the S points of a stencil in call order,
        their steps and the rooms the steps come from, each of shape
        (N, len(axes)).

        The offsets come from running the scheme's own combine with an
        ``at`` that records them, on the array of steps, and each point is
        built as in ``partial``, so points and steps equal its own bit for
        bit. A stencil whose step is below ``min_step`` or NaN does not fit:
        ``partial`` raises there (``_require_fit``), and its points mean
        nothing.
        """
        axes = list(axes)
        x = coords[:, axes]
        room = _rooms(x, np.asarray(lower, dtype=float)[axes], np.asarray(upper, dtype=float)[axes])
        h = np.minimum(0.5 * room / STENCILS[self.scheme][0], self.step)  # keeps a NaN
        offsets = []

        def at(t):
            offsets.append(t)
            return 0.0

        STENCILS[self.scheme][1](at, h)
        points = np.empty((len(coords), len(axes), len(offsets), coords.shape[1]))
        points[...] = coords[:, None, None, :]
        for k, t in enumerate(offsets):
            points[:, range(len(axes)), k, axes] = x + t
        return points, h, room

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

    def fitting_stencil_points(self, coords, lower, upper, axes) -> np.ndarray:
        """``stencil_points(c, lower, upper, (axis,))`` for each row c of the
        (N, dim) array ``coords`` and each axis of ``axes``, in that order,
        as rows of one array; a stencil that does not fit is left out."""
        coords = np.asarray(coords, dtype=float).reshape(-1, len(lower))
        points, h, _ = self._stencils(coords, lower, upper, axes)
        return points[h >= self.min_step].reshape(-1, coords.shape[1])

    def jacobian(self, fn, coords, lower, upper) -> np.ndarray:
        """``np.stack([self.partials(fn, c, lower, upper).T for c in coords])``
        for the rows c of the (N, dim) array ``coords``: the Jacobian of a
        vector fn (the gradient of a scalar one) at each point of a set.

        ``fn`` is evaluated once per stencil point, in that loop's order, and
        the values are combined by the scheme's own combine with an (N, dim)
        array of steps, so each Jacobian equals its loop's bit for bit.
        Raises the StencilError of the loop's first failing stencil, before
        any evaluation.
        """
        coords = np.asarray(coords, dtype=float)
        points, h, room = self._stencils(coords, lower, upper, range(coords.shape[1]))
        self._require_fit(room, h)
        values = np.array([fn(p) for p in points.reshape(-1, coords.shape[1])], dtype=float)
        values = values.reshape(points.shape[:3] + values.shape[1:])
        calls = iter(range(values.shape[2]))
        h = h.reshape(h.shape + (1,) * (values.ndim - 3))
        d = STENCILS[self.scheme][1](lambda t: values[:, :, next(calls)], h)
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

    def directional(self, fn, coords, direction, lower, upper) -> float:
        """Derivative of a scalar fn along a straight line through coords."""
        coords = np.asarray(coords, dtype=float)
        d = np.asarray(direction, dtype=float)
        moving = d != 0.0
        if not np.any(moving):
            return 0.0
        # a subnormal component gives an infinite room along its axis, and a
        # non-finite coordinate a NaN or negative one, which _fit_step rejects
        with np.errstate(over="ignore", invalid="ignore"):
            gaps = np.minimum(upper - coords, coords - lower)[moving] / np.abs(d[moving])
        h = self._fit_step(float(np.min(gaps)))

        def at(t: float):
            return np.asarray(fn(coords + t * d), dtype=float)

        return float(STENCILS[self.scheme][1](at, h))
