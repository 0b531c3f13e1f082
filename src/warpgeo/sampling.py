"""Deterministic interior sampling of coordinate boxes."""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError


def sample_points(lower, upper, n: int, seed, margin: float) -> np.ndarray:
    """n points uniform in the box shrunk by ``margin`` on every side.

    Deterministic for a fixed seed. The margin keeps every point at least
    that far from the boundary so finite-difference stencils fit at full
    step (callers pass margin >= 4 * engine step).
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if n < 1:
        raise ConfigurationError("need at least one sample point")
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ConfigurationError("sampling needs a bounded box; pass a finite sub-box")
    if not (np.isfinite(margin) and margin >= 0.0):
        raise ConfigurationError(f"margin must be finite and >= 0, got {margin}")
    lo = lower + margin
    hi = upper - margin
    if not np.all(lo < hi):
        raise ConfigurationError(
            f"box {lower}..{upper} degenerate after margin {margin}"
        )
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=(n, len(lo)))
