"""Smooth maps, vertical/horizontal splitting, dilation, O'Neill tensors.

The vertical space at a point is the kernel of the Jacobian, obtained from a
rank-revealing SVD with threshold RANK_TOL * sigma_max; the horizontal space
is its metric-orthogonal complement, orthonormalized against the source
metric. The O'Neill tensors evaluate

    A_E F = H nabla_{HE} (VF) + V nabla_{HE} (HF)
    T_E F = H nabla_{VE} (VF) + V nabla_{VE} (HF)

literally: VF and HF are genuine fields whose projections are recomputed at
every stencil point. Both are differentiated in one stencil pass over the
stacked field [VF, HF], so F and its splitting are evaluated once per
stencil point. The O'Neill tensors have one kernel over a point set
(``_oneills``): the base-point splittings and Christoffel symbols of the
set come from one ``splittings_at`` and one ``christoffels`` call, and the
fields are differentiated by one stacked walk
(``DiffEngine.stacked_partials``), to which the kernel hands the point-set
form of its split: one ``splittings_at`` and one ``values_at`` call on the
walk's stencil points. The fields are fixed across the set, or belong to
its points (``manifold.PointFields``, such as the constant extensions of
each point's own vectors); then the walk also hands the form the owner of
each stencil point. The projected fields ``vertical_field`` and
``horizontal_field``, the kernels' split and ``lambda_sq_field`` are each
their form, a single point a stack of one (``manifold._single``). The
form of ``lambda_sq_field`` reads a set's ``dilations`` in one call: the
bracket formula hands the form of 1/lambda^2 to the walk of its gradient
(``manifold.gradients``), so every walk fetches the splittings and
dilations at its stencil points as one set. ``oneill_a`` and ``oneill_t``
are the kernel on a stack of one, and so are ``fiber_mean_curvature``,
``conformal_a_formula`` and ``vertical_gradient`` of their point-set
kernels (``_fiber_mean_curvatures``, ``_conformal_a_formulas``,
``_vertical_gradients``, on ``manifold.gradients``).

Splittings and dilations have one kernel each, which runs each LAPACK and
matrix-product step as one call on the stacked ``(N, ., .)`` arrays of a
point set (``splittings_at``, ``dilations``). Their inputs are point sets
too: the kernels read a set's Jacobians (``SmoothMap.jacobians_at``), images
(``SmoothMap.images``) and metrics (``ChartManifold.metrics_at``), which
call the user's callables once per point but convert, check and symmetrize
the results once per stack. Each output rule (shape, padding, message) is
written once, in the single-point conversion (``SmoothMap.__call__``,
``jacobian_at``, ``ChartManifold._raw_metric``). ``manifold._point_set``
keeps a set's values from one call of its point-set form only in that shape,
and otherwise redoes the set point by point, so the first failing point
raises its own error. A builder's callable carries a point-set form
(``manifold._with_stack``) that assembles its parts' stacks: the warped
ambient metric's, and the product map's images and Jacobians from the factor
maps' checked calls. An FD Jacobian stack is one ``DiffEngine.jacobian``
call over the set's stencil points; a single FD Jacobian differentiates the
checked image. Each structure has one helper over leading axes, which the
single-point callable calls too, so a point's value does not depend on the
path. A single point (``splitting_at``, ``dilation``) is a stack of one. The
splitting kernel copies the set's coordinates once and makes each of its
stacked arrays read-only once; a ``Splitting``'s arrays are views of them.
numpy's stacked ``svd``, ``solve``, ``eigvalsh`` and ``matmul`` give each
matrix the bits of its own call, so a point's result does not depend on the
set it is computed in. The suites fetch point sets in blocks of
``POINT_BLOCK`` points, which bounds the memory held at once. A verifier
that adds per-point (residual, scale) samples is one rows kernel of a
block's coordinates handed to ``_add_in_blocks``, the one block pass.

Inside an ``evaluation_scope()`` each splitting and each dilation is
computed once per context and exact coordinates, a stencil point's too,
then shared by the single-point and point-set calls. The O'Neill tensors
read the Christoffel symbols at their base points through
``christoffels``, which the scope memoizes too. Each O'Neill suite, and
``fiber_mean_curvature``, opens its own scope, which shares an enclosing
one (``run_scenario``'s), so a suite called on its own takes the same
cached path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .connection import (
    _covariant_from_partials,
    _lie_brackets,
    christoffels,
    metric_orthogonal_projector,
)
from .errors import ConformalityError, DegenerateMetricError, DomainError, RankError
from .fd import DiffEngine
from .manifold import (
    ChartManifold,
    PointFields,
    ScalarField,
    VectorField,
    _as_vector,
    _finite,
    _memoized_many,
    _point_set,
    _positive_definite,
    _single,
    _stack,
    _stack_of,
    analytic_fd_gap,
    evaluation_scope,
    gradients,
)
from .report import TOLERANCES

Array = np.ndarray

# points per stacked call when a suite walks a point set
POINT_BLOCK = 64
# singular values at most RANK_TOL * sigma_max count as zero
RANK_TOL = 1e-8


@dataclass(frozen=True)
class SmoothMap:
    """A coordinate map between charts with analytic or FD Jacobian access."""

    source: ChartManifold
    target: ChartManifold
    fn: Callable[[Array], Array]
    jac: Optional[Callable[[Array], Array]] = None
    name: str = ""

    def __call__(self, coords) -> Array:
        """The image, of shape (target.dim,), a scalar as (1,); ``images`` checks the chart."""
        image = _rows(np.asarray(self.fn(np.asarray(coords, dtype=float)), dtype=float)[None], 1)[0]
        if image.shape != (self.target.dim,):
            raise DomainError(f"image of shape {image.shape} at {coords}")
        return image

    def image_point(self, coords) -> Array:
        return self.images([coords])[0]

    def images(self, coords_seq) -> Array:
        """``np.stack([self(c) for c in coords_seq])``, converted once for the
        set; raises DomainError naming the first point whose image is not in
        the target box."""
        images = _point_set(lambda coords: _rows(_stack_of(self.fn)(coords), 1), coords_seq,
                            (self.target.dim,), self)
        inside = self.target.contains(images)
        if np.count_nonzero(inside) < len(inside):
            i = np.argmin(inside)
            raise DomainError(f"image {images[i]} of {coords_seq[i]} outside target domain")
        return images

    def jacobian_at(self, coords, engine: DiffEngine) -> Array:
        """The Jacobian, of shape (target.dim, source.dim), a scalar as (1, 1) and an
        (m,) row as (1, m); without ``jac``, the FD partials of the checked image."""
        coords = np.asarray(coords, dtype=float)
        if self.jac is None:
            J = engine.partials(self, coords, self.source.lower, self.source.upper).T
        else:
            J = _rows(np.asarray(self.jac(coords), dtype=float)[None], 2)[0]
        shape = (self.target.dim, self.source.dim)
        if J.shape != shape:
            raise RankError(f"Jacobian of shape {J.shape} at {coords}, expected {shape}")
        return J

    def jacobians_at(self, coords_seq, engine: DiffEngine) -> Array:
        """``np.stack([self.jacobian_at(c, engine) for c in coords_seq])``, converted
        once for the set; raises RankError naming the first non-finite one.

        FD Jacobians come from one ``DiffEngine.jacobian`` call over all
        stencil points of the set."""
        M = self.source
        jac = _stack_of(self.jac) if self.jac is not None else (
            lambda coords: engine.jacobian(self.fn, coords, M.lower, M.upper))
        J = _point_set(lambda coords: _rows(jac(coords), 2), coords_seq, (self.target.dim, M.dim),
                       lambda c: self.jacobian_at(c, engine))
        return _finite(J, coords_seq, RankError, "Jacobian")

    def check_jacobian(self, engine: DiffEngine, points) -> float:
        """Max scaled gap between analytic and FD ``jacobians_at``; 0.0 if numeric."""
        if self.jac is None:
            return 0.0
        return analytic_fd_gap(self.jacobians_at(points, engine),
                               replace(self, jac=None).jacobians_at(points, engine))


def _rows(values: Array, ndim: int) -> Array:
    """A stack of values (axis 0) with each value of fewer than ``ndim`` axes
    shaped as ``np.atleast_1d`` (``ndim`` 1) or ``np.atleast_2d`` (2) shapes
    it: a scalar as (1,) or (1, 1), an (m,) row as (1, m)."""
    missing = (1,) * (ndim + 1 - values.ndim)  # () for a value of ndim axes or more
    return values.reshape(values.shape[:1] + missing + values.shape[1:]) if missing else values


def pushforward(F: SmoothMap, engine: DiffEngine, coords, v) -> Array:
    """F_* v = J(coords) v, the components at F(coords) of the component
    vector v.

    Raises DomainError when F(coords) leaves the target chart."""
    v = _as_vector(v, F.source.dim)
    J = F.jacobian_at(coords, engine)
    F.image_point(coords)  # the target chart check
    return J @ v


def identity_map(M: ChartManifold) -> SmoothMap:
    return SmoothMap(M, M, lambda c: c, lambda c: np.eye(M.dim), name="identity")


def _blocks(points):
    """The consecutive slices of ``POINT_BLOCK`` points of ``points``."""
    for start in range(0, len(points), POINT_BLOCK):
        yield points[start:start + POINT_BLOCK]


def _add_in_blocks(columns: list, rows, points, one=None) -> None:
    """Adds the (residual, scale) pairs of ``rows`` to the ``ResidualCheck``
    of their column, in (point, column) order over ``points``: the samples
    and the order of ``check.add`` called point by point, column by column.

    ``rows`` maps the (N, dim) coordinates of a block of ``POINT_BLOCK``
    points to an (N, len(columns), 2) array, one stacked pass over the
    block through ``_point_set``: a block that raises is redone point by
    point with ``one`` (``rows`` on a stack of one when None), so that the
    first failing point raises its own error.

    A block is added as arrays: one ``residuals / scales`` division, the
    residual contract of ``ResidualCheck.add`` tested on the whole stack,
    and each check's list extended with the samples of its columns (a check
    may own several). A block in which a sample breaks the contract adds
    nothing: the first such sample in (point, column) order raises
    ``add``'s own ConfigurationError. A NaN, and a failed sample's inf,
    pass through as in ``add``."""
    spans = {check: [j for j, c in enumerate(columns) if c is check] for check in columns}
    for block in _blocks(points):
        samples = _point_set(rows, block, (len(columns), 2), one)
        residuals, scales = samples[..., 0], samples[..., 1]
        broken = (residuals < 0.0) | (scales <= 0.0)  # a NaN breaks neither
        if broken.any():
            i, j = np.unravel_index(np.argmax(broken), broken.shape)
            columns[j].add(residuals[i, j], scales[i, j])  # raises
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN, as on Python floats
            ratios = residuals / scales
        for check, js in spans.items():
            check.residuals.extend(ratios[:, js].ravel().tolist())


def _block_rows(columns: list, n: int) -> Array:
    """The (n, len(columns), 2) array of a rows kernel of ``_add_in_blocks``
    at n points, from its columns in order, each a pair (residuals, scales)
    of (n,) arrays, C-ordered as the loop's array of rows."""
    by_column = np.array(columns, dtype=float).reshape(len(columns), 2, n)
    return np.ascontiguousarray(by_column.transpose(2, 0, 1))


def _in_blocks(fetch, points):
    """``(p, value)`` for each point, with ``fetch`` called once per block of
    ``POINT_BLOCK`` points, so that outside a scope only one block of values
    is alive at once."""
    for block in _blocks(points):
        yield from zip(block, fetch(block))


def _gram_schmidt(basis: Array, g: Array) -> Array:
    """g-orthonormalize the columns of basis (assumed independent).

    ``basis`` and ``g`` may carry the same leading axes, a stack of bases
    and metrics; each result then equals its own call bit for bit."""
    out = []
    for k in range(basis.shape[-1]):
        v = basis[..., k].copy()
        for u in out:
            v -= _inner(u, g, v) * u
        norm = np.sqrt(_inner(v, g, v))
        if np.any(norm < 1e-13):
            raise RankError("degenerate basis during orthonormalization")
        out.append(v / norm)
    return np.stack(out, axis=-1) if out else np.zeros(basis.shape)


def _inner(u: Array, g: Array, v: Array) -> Array:
    """``u @ g @ v`` for each vector of a stack, as the same two products as
    on one vector, with a trailing axis of length 1 so that it scales the
    stack."""
    return (u[..., None, :] @ g @ v[..., :, None])[..., 0]


@dataclass(frozen=True)
class Splitting:
    """Vertical/horizontal data of a submersion at one point.

    vertical: Euclidean-orthonormal kernel basis (columns).
    horizontal: g-orthonormal basis of the metric-orthogonal complement.
    projector_v: g-orthogonal projector onto the kernel.
    jacobian: the map's Jacobian at coords, which the splitting comes from.
    metric: the source metric at coords, which the splitting comes from.

    The kernel hands out each array as a view of a read-only stack of its
    point set, because memoized splittings are shared.
    """

    coords: Array
    vertical: Array
    horizontal: Array
    projector_v: Array
    rank: int
    singular_values: Array
    jacobian: Array
    metric: Array

    def vertical_part(self, components: Array) -> Array:
        return self.projector_v @ components

    def horizontal_part(self, components: Array) -> Array:
        return components - self.projector_v @ components


@dataclass(frozen=True)
class DilationEstimate:
    """Mean horizontal Rayleigh quotient of the pullback metric, plus spread."""

    coords: Array
    lambda_sq: float
    anisotropy: float

    def is_conformal(self, conf_tol: float) -> bool:
        return self.anisotropy - 1.0 <= conf_tol


@dataclass(frozen=True)
class SubmersionContext:
    """A smooth map together with per-point splitting and dilation machinery."""

    map: SmoothMap
    engine: DiffEngine

    def splitting_at(self, coords) -> Splitting:
        """``splittings_at`` on a stack of one."""
        return self.splittings_at([coords])[0]

    def splittings_at(self, coords_seq) -> list[Splitting]:
        """The splitting at each point of ``coords_seq``, with one stacked
        LAPACK call per step for the whole set. Inside an evaluation scope,
        memoized by context and exact coordinates."""
        coords = [np.asarray(c, dtype=float) for c in coords_seq]
        return _memoized_many(self, coords, "splitting", self._stacked_splittings)

    def _stacked_splittings(self, coords_list: list) -> list[Splitting]:
        """The splitting at every point, each step one call on the stack.
        Raises the error of the first point whose Jacobian or source metric
        is not finite, whose source metric is not positive definite, or
        whose Jacobian has a rank below the target dimension."""
        coords = np.array(coords_list)  # a copy: a Splitting is read-only
        J = self.map.jacobians_at(coords, self.engine)
        G = _positive_definite(_finite(np.stack(self.map.source.metrics_at(coords)), coords,
                                       DegenerateMetricError, "metric"), coords)
        _, S, VT = np.linalg.svd(J)
        m = self.map.target.dim
        smax = S[:, 0]
        ranks = np.where(smax > 0, np.sum(S > RANK_TOL * smax[:, None], axis=1), 0)
        failing = np.flatnonzero(ranks < m)
        if failing.size:
            i = failing[0]
            raise RankError(
                f"rank {ranks[i]} below target dimension {m} at {coords[i]}",
                rank=int(ranks[i]),
                singular_values=S[i],
            )
        V = VT[:, m:].transpose(0, 2, 1)
        P = metric_orthogonal_projector(G, V)
        R = VT[:, :m].transpose(0, 2, 1)
        H = _gram_schmidt(R - P @ R, G)
        # V, not VT: a view taken before its base is frozen stays writable
        for a in (coords, V, H, P, S, J, G):
            a.setflags(write=False)
        return [
            Splitting(c, v, h, p, m, s, j, g)
            for c, v, h, p, s, j, g in zip(coords, V, H, P, S, J, G)
        ]

    def split(self, coords, v) -> tuple[Array, Array]:
        """The vertical and horizontal parts of the component vector v at coords."""
        v = _as_vector(v, self.map.source.dim)
        vert = self.splitting_at(coords).vertical_part(v)
        return vert, v - vert

    def dilation(self, coords) -> DilationEstimate:
        """``dilations`` on a stack of one."""
        return self.dilations([coords])[0]

    def dilations(self, coords_seq) -> list[DilationEstimate]:
        """The dilation at each point of ``coords_seq``, with one stacked call
        per step for the whole set; memoized as ``splittings_at`` is."""
        coords = [np.asarray(c, dtype=float) for c in coords_seq]
        return _memoized_many(self, coords, "dilation", self._stacked_dilations)

    def _stacked_dilations(self, coords_list: list) -> list[DilationEstimate]:
        """The dilation at every point, each step one call on the stack.
        Raises the error of the first point whose splitting fails or whose
        pullback metric is degenerate on the horizontal space; a target
        metric that is not finite pulls back to zero, which is."""
        splittings = self.splittings_at(coords_list)
        G = np.stack(self.map.target.metrics_at(self.map.images(coords_list)))
        G = np.where(np.isfinite(G).all(axis=(1, 2))[:, None, None], G, 0.0)
        J = np.stack([s.jacobian for s in splittings])
        jh = J @ np.stack([s.horizontal for s in splittings])
        q = jh.transpose(0, 2, 1) @ G @ jh
        evals = np.linalg.eigvalsh(q)
        failing = np.flatnonzero(~(evals[:, 0] > 0.0))  # NaN fails the test
        if failing.size:
            i = failing[0]
            raise RankError(
                f"pullback metric degenerate on horizontal space at {coords_list[i]}",
                rank=splittings[i].rank,
                singular_values=splittings[i].singular_values,
            )
        lam_sq = np.trace(q, axis1=1, axis2=2) / q.shape[1]
        anisotropy = evals[:, -1] / evals[:, 0]
        return [
            DilationEstimate(s.coords, float(lam), float(a))
            for s, lam, a in zip(splittings, lam_sq, anisotropy)
        ]

    def __call__(self, coords) -> Array:
        return self.map(coords)

    def vertical_field(self, F):
        """VF, the vertical part of F at every point (``_projected``)."""
        return _projected(self, F, vertical=True)

    def horizontal_field(self, F):
        """HF, the horizontal part of F at every point (``_projected``)."""
        return _projected(self, F, vertical=False)

    def lambda_sq_field(self) -> ScalarField:
        """The squared dilation as a field, whose point-set form checks a set's
        shape and box once (the first bad point raises ``ChartManifold.point``'s
        error), then reads its ``dilations`` in one call."""
        source = self.map.source

        def stack(points):
            # the shape first: ``contains`` would broadcast a wrong one
            if points.shape[1:] != (source.dim,) or not source.contains(points).all():
                points = np.array([source.point(p) for p in points])
            return np.array([d.lambda_sq for d in self.dilations(points)])

        return ScalarField(_single(stack))


def _inverse_lambda_sq_field(ctx: SubmersionContext) -> ScalarField:
    """1 / lambda^2 as a field, whose point-set form divides that of
    ``lambda_sq_field``."""
    lam = _stack(ctx.lambda_sq_field())
    return ScalarField(_single(lambda points: 1.0 / lam(points)))


def _projected(ctx: SubmersionContext, F, vertical: bool):
    """The vertical (else horizontal) part of F at every point, projected with
    the splitting there: of a VectorField the VectorField of a point-set
    form (``manifold._single``) that reads the set's splittings
    (``_projectors``) and then F's values (``values_at``) in one call each,
    and of PointFields the PointFields of a form that does so at the points
    and owners it is handed."""
    part = _vertical if vertical else _horizontal

    def rows(points, *owners):
        return part(_projectors(ctx, points), F.values_at(points, *owners))

    if isinstance(F, PointFields):
        return PointFields(rows)
    return VectorField(_single(rows))


def _vertical(P: Array, x: Array) -> Array:
    """P x for each projector and vector of two stacks: the vertical parts,
    each the same product as ``Splitting.vertical_part``."""
    return (P @ x[..., None])[..., 0]


def _horizontal(P: Array, x: Array) -> Array:
    """x - P x for each projector and vector of two stacks: the horizontal parts."""
    return x - _vertical(P, x)


def _projectors(ctx: SubmersionContext, coords) -> Array:
    """The stacked vertical projectors of the splittings at ``coords``."""
    return np.array([s.projector_v for s in ctx.splittings_at(coords)])


def _oneills(
    ctx: SubmersionContext,
    part: Callable[[Array, Array], Array],
    E,
    F,
    coords_seq,
) -> Array:
    """H nabla_D (VF) + V nabla_D (HF) with D = part(P, E) at each point of
    ``coords_seq``, as an (N, dim) array (``_oneill_kernel``); ``part`` is
    ``_vertical`` or ``_horizontal``. E and F are each a VectorField fixed
    across the set or PointFields, one field per point. A set that raises
    is redone point by point (``_point_set``), each point with its own
    fields, ``oneill_a`` or ``oneill_t`` on a stack of one, so the first
    failing point raises its own error."""
    rows = iter(range(len(coords_seq)))  # _point_set redoes each point once, in order

    def one(c):
        n = next(rows)
        return _oneill_kernel(ctx, part, _row(E, n), _row(F, n), c[None])[0]

    return _point_set(lambda coords: _oneill_kernel(ctx, part, E, F, coords), coords_seq,
                      (ctx.map.source.dim,), one)


def _row(field, n: int) -> VectorField:
    """Row n's field of PointFields; a VectorField is every row's."""
    return field.field(n) if isinstance(field, PointFields) else field


def _oneill_kernel(ctx: SubmersionContext, part, E, F, coords: Array) -> Array:
    """``_oneills`` at the rows of the (N, dim) array ``coords``.

    The base-point splittings come from one ``splittings_at`` call and the
    Christoffel symbols from one ``christoffels`` call. VF and HF are
    differentiated in one stacked walk over c -> [VF(c), HF(c)] along the
    directions, to which the kernel hands that function's point-set form:
    one ``_projectors`` call and one ``values_at`` call of F on the walk's
    stencil points, with, for PointFields, the owner of each stencil point
    (``DiffEngine.stacked_partials(..., owned=True)``), since the stencil
    points of two base points may coincide. A lone point is the walk's loop,
    which evaluates that form on a stack of one at each stencil point.
    The stencils act elementwise and numpy's stacked products give each
    point the bits of its own call, so each value equals that of a stack of
    one; a set that fails raises the walk's first error, which need not be
    the first failing point's.
    """
    M, engine = ctx.map.source, ctx.engine
    owned = isinstance(F, PointFields)

    def splits(points, *owners):
        f = F.values_at(points, *owners)
        v = _vertical(_projectors(ctx, points), f)
        return np.stack((v, f - v), axis=1)

    P = _projectors(ctx, coords)
    directions = part(P, E.values_at(coords))
    gammas = np.array(christoffels(M, engine, coords))
    d = engine.stacked_partials(_single(splits), coords, M.lower, M.upper, along=directions,
                                stack=splits, owned=owned)
    f = F.values_at(coords)
    v = _vertical(P, f)
    # contiguous slices, so each product is the same call as for a lone field
    d_vert = _covariant_from_partials(directions, np.ascontiguousarray(d[:, :, 0]), v, gammas)
    d_horiz = _covariant_from_partials(directions, np.ascontiguousarray(d[:, :, 1]), f - v,
                                       gammas)
    return _horizontal(P, d_vert) + _vertical(P, d_horiz)


def oneill_a(ctx: SubmersionContext, E: VectorField, F: VectorField, coords) -> Array:
    """A_E F at coords, with projections recomputed along the stencil:
    ``_oneill_kernel`` on a stack of one."""
    return _oneill_kernel(ctx, _horizontal, E, F, np.asarray(coords, dtype=float)[None])[0]


def oneill_t(ctx: SubmersionContext, E: VectorField, F: VectorField, coords) -> Array:
    """T_E F at coords, with projections recomputed along the stencil:
    ``_oneill_kernel`` on a stack of one."""
    return _oneill_kernel(ctx, _vertical, E, F, np.asarray(coords, dtype=float)[None])[0]


def _fiber_mean_curvatures(ctx: SubmersionContext, bases: Array, coords_seq) -> Array:
    """``fiber_mean_curvature`` at each point of ``coords_seq``, of the basis
    of the same entry of the (N, dim, k) array ``bases``, as an (N, dim)
    array: one ``_oneills`` call per column, on the constant extensions of
    each point's own column (``PointFields``). The columns share one
    evaluation scope."""
    with evaluation_scope():
        acc = np.zeros(bases.shape[:2])
        for k in range(bases.shape[2]):
            u = PointFields.constant(bases[:, :, k])
            acc += _oneills(ctx, _vertical, u, u, coords_seq)
        return acc / max(bases.shape[2], 1)


def fiber_mean_curvature(ctx: SubmersionContext, basis: Array, coords) -> Array:
    """Mean curvature at coords of the fibers spanned by the columns of basis:
    T_u u averaged over the g-orthonormal columns u (zero for no columns).
    ``_fiber_mean_curvatures`` on a stack of one."""
    return _fiber_mean_curvatures(ctx, np.asarray(basis, dtype=float)[None], [coords])[0]


def _vertical_gradients(ctx: SubmersionContext, phi: ScalarField, coords) -> Array:
    """The vertical parts of the metric gradients of phi at ``coords``: one
    ``gradients`` call, then the stacked projections."""
    grads = gradients(ctx.map.source, ctx.engine, phi, coords)
    return _vertical(_projectors(ctx, coords), grads)


def vertical_gradient(ctx: SubmersionContext, phi: ScalarField, coords) -> Array:
    """Vertical part of the metric gradient of phi at coords:
    ``_vertical_gradients`` on a stack of one."""
    return _vertical_gradients(ctx, phi, [coords])[0]


def _conformal_a_formulas(ctx: SubmersionContext, X: VectorField, Y: VectorField,
                          coords_seq) -> Array:
    """``conformal_a_formula`` at each point of ``coords_seq``, for fields X
    and Y fixed across the set, as an (N, dim) array: one ``dilations``
    call, one read of each horizontal field at the set's points, which the
    brackets (``_lie_brackets``, one stacked walk per field) and the inner
    products share, one ``gradients`` call and stacked projections. A
    set that raises is redone point by point (``_point_set``), so the first
    failing point raises its own error."""
    M = ctx.map.source
    Xh = ctx.horizontal_field(X)
    Yh = ctx.horizontal_field(Y)
    inv_lambda_sq = _inverse_lambda_sq_field(ctx)

    def stack(coords):
        dilations = ctx.dilations(coords)
        for c, d in zip(coords, dilations):
            if not d.is_conformal(TOLERANCES["conformality/threshold"]):
                raise ConformalityError(
                    f"map not conformal at {c}: anisotropy {d.anisotropy:.6e}",
                    anisotropy=d.anisotropy,
                )
        x, y = Xh.values_at(coords), Yh.values_at(coords)
        bracket = _lie_brackets(M, ctx.engine, Xh, Yh, coords, (x, y))
        splittings = ctx.splittings_at(coords)
        v_bracket = _vertical(np.stack([s.projector_v for s in splittings]), bracket)
        grad_v = _vertical_gradients(ctx, inv_lambda_sq, coords)
        inner = _inner(x, np.stack([s.metric for s in splittings]), y)
        lambda_sq = np.array([d.lambda_sq for d in dilations])[:, None]
        return 0.5 * (v_bracket - lambda_sq * inner * grad_v)

    return _point_set(stack, coords_seq, (M.dim,))


def conformal_a_formula(
    ctx: SubmersionContext,
    X: VectorField,
    Y: VectorField,
    coords,
) -> Array:
    """A_X Y = 1/2 { V[X, Y] - lambda^2 g(X, Y) grad_V(1/lambda^2) }.

    X and Y are replaced by their horizontal parts (as fields). Requires
    conformality at coords, judged by ``TOLERANCES["conformality/threshold"]``;
    raises ConformalityError carrying the anisotropy otherwise. lambda^2 is
    the context's own dilation estimate, so the formula is entirely
    self-contained. ``_conformal_a_formulas`` on a stack of one.
    """
    return _conformal_a_formulas(ctx, X, Y, [coords])[0]
