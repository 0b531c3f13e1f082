"""Finite-difference engine.

All derivatives in the package flow through :class:`DiffEngine`, which
evaluates central-difference stencils on scalar-, vector- or matrix-valued
functions of coordinates and shrinks its step automatically when a stencil
would leave the chart's coordinate box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class DiffEngine:
    """Central differences with automatic step shrinking near box edges.

    scheme: "central2" (2nd order), "central4" (4th order) or "richardson"
    (central2 extrapolated from steps h and h/2, i.e. central4 at h/2).
    """

    scheme: str = "central2"
    step: float = 1e-5
    min_step: float = 1e-10

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        for name in ("step", "min_step"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")

    def _fit_step(self, room: float) -> float:
        """Largest usable step given the distance to the nearest bound."""
        h = self.step
        limit = 0.5 * room / STENCILS[self.scheme][0]
        if np.isfinite(limit):
            h = min(h, limit)
        if h < self.min_step:
            raise StencilError(
                f"stencil does not fit: room to boundary {room:.3e} allows step "
                f"{h:.3e} < min_step {self.min_step:.3e}"
            )
        return h

    def partial(self, fn, coords, axis: int, lower, upper):
        """d(fn)/d(coords[axis]). fn may return a float or an ndarray."""
        coords = np.asarray(coords, dtype=float)
        x = float(coords[axis])
        room = min(x - float(lower[axis]), float(upper[axis]) - x)
        h = self._fit_step(room)

        def at(t: float):
            shifted = coords.copy()
            shifted[axis] = x + t
            return np.asarray(fn(shifted), dtype=float)

        return STENCILS[self.scheme][1](at, h)

    def stencil_points(self, coords, lower, upper, axes) -> np.ndarray:
        """The points ``partial(fn, coords, axis, lower, upper)`` passes to
        ``fn`` for each axis of ``axes``, in call order, as rows of one array.

        The offsets come from running the scheme's own combine with an
        ``at`` that records them, and each row is built as in ``partial``,
        so the rows equal its points bit for bit. Raises StencilError where
        ``partial`` would.
        """
        coords = np.asarray(coords, dtype=float)
        rows = []
        for axis in axes:
            x = float(coords[axis])
            room = min(x - float(lower[axis]), float(upper[axis]) - x)
            offsets = []

            def at(t: float):
                offsets.append(t)
                return 0.0

            STENCILS[self.scheme][1](at, self._fit_step(room))
            for t in offsets:
                shifted = coords.copy()
                shifted[axis] = x + t
                rows.append(shifted)
        return np.array(rows).reshape(-1, len(coords))

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
        n = len(coords)
        used = [i for i in range(n) if along is None or along[i] != 0.0]
        if not used:  # nothing to differentiate; one evaluation gives the shape
            return np.zeros((n,) + np.shape(fn(np.asarray(coords, dtype=float))))
        rows = np.stack([self.partial(fn, coords, i, lower, upper) for i in used])
        if len(used) == n:
            return rows
        out = np.zeros((n,) + rows.shape[1:])
        out[used] = rows
        return out

    def directional(self, fn, coords, direction, lower, upper) -> float:
        """Derivative of a scalar fn along a straight line through coords."""
        coords = np.asarray(coords, dtype=float)
        d = np.asarray(direction, dtype=float)
        moving = d != 0.0
        if not np.any(moving):
            return 0.0
        # a subnormal component gives an infinite room along its axis
        with np.errstate(over="ignore"):
            gaps = np.minimum(upper - coords, coords - lower)[moving] / np.abs(d[moving])
        h = self._fit_step(float(np.min(gaps)))

        def at(t: float):
            return np.asarray(fn(coords + t * d), dtype=float)

        return float(STENCILS[self.scheme][1](at, h))
