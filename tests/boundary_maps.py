"""A map (x, y) |-> x from the square (-1, 1)^2 into the line (-1, 1)
whose datum is bad from the second point on, and the faults it is given.

``tests/test_faults.py`` checks single calls of the input boundary on it,
and ``tests/test_point_sets.py`` reads each fault as a failing input of the
rows that evaluate the datum."""

import numpy as np

from warpgeo import ChartManifold, DiffEngine, DomainError, RankError, SmoothMap, SubmersionContext

POINTS = [np.array([0.1, 0.2]), np.array([0.3, 0.4]), np.array([0.5, 0.6])]


def bad_from_second_point(fn=None, jac=None, metric=None) -> SubmersionContext:
    """The map's ``fn``, ``jac`` or source ``metric``, where given, replaces
    the good one from x = 0.2 on."""

    def good_then(bad, good):
        return good if bad is None else (lambda c: good(c) if c[0] < 0.2 else bad(c))

    M = ChartManifold(2, -1.0, 1.0, good_then(metric, lambda c: np.eye(2)))
    N = ChartManifold.euclidean(1, -1.0, 1.0)
    smap = SmoothMap(M, N, good_then(fn, lambda c: c[:1]),
                     good_then(jac, lambda c: np.array([[1.0, 0.0]])))
    return SubmersionContext(smap, DiffEngine())


# fault -> (the datum it replaces, its value from the second point on, the
# error at [0.3 0.4] of a point-set call that reads it)
BOUNDARY_FAULTS = {
    "nan-image": ("fn", lambda c: [np.nan],
                  (DomainError, "image [nan] of [0.3 0.4] outside target domain")),
    "inf-image": ("fn", lambda c: [np.inf],
                  (DomainError, "image [inf] of [0.3 0.4] outside target domain")),
    "image-outside": ("fn", lambda c: [2.0],
                      (DomainError, "image [2.] of [0.3 0.4] outside target domain")),
    "image-shape": ("fn", lambda c: c, (DomainError, "image of shape (2,) at [0.3 0.4]")),
    "nan-jacobian": ("jac", lambda c: [[np.nan, 0.0]],
                     (RankError, "Jacobian not finite at [0.3 0.4]")),
    "inf-jacobian": ("jac", lambda c: [[np.inf, 0.0]],
                     (RankError, "Jacobian not finite at [0.3 0.4]")),
    "transposed-jacobian": ("jac", lambda c: [[1.0], [0.0]], (
        RankError, "Jacobian of shape (2, 1) at [0.3 0.4], expected (1, 2)")),
}
