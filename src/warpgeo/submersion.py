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
stencil point.

Splittings and dilations of a point set (``splittings_at``, ``dilations``)
run each LAPACK and matrix-product step as one call on the stacked
``(N, ., .)`` arrays of the points; Jacobians and metrics are still
evaluated point by point. numpy's stacked ``svd``, ``solve``, ``eigvalsh``
and ``matmul`` give each matrix the bits of its own call, so a point-set
result equals the single-point one bit for bit. The suites fetch point sets
in blocks of ``POINT_BLOCK`` points, which bounds the memory held at once.
A stack of one costs more than the single-point kernel, so ``splitting_at``
and ``dilation`` keep their own kernel for single points.

Inside an ``evaluation_scope()`` each splitting and each dilation is
computed once per context and exact coordinates, then shared by the
single-point and point-set calls; stencil points still get their own
splittings, so nothing is frozen at the base point. Before an O'Neill
suite walks its sample points, ``warm_stencils`` stores the splittings (or
dilations) at all their stencil points, along the axes the suite's
directions use, through the point-set calls; the O'Neill tensors then find
them in the memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .connection import (
    _covariant_from_partials,
    christoffel,
    lie_bracket,
    metric_orthogonal_projector,
)
from .errors import ConformalityError, DomainError, RankError, StencilError
from .fd import DiffEngine
from .manifold import (
    _MEMO,
    ChartManifold,
    ScalarField,
    VectorField,
    _as_vector,
    _memoized,
    _memoized_many,
    analytic_fd_gap,
    gradient,
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
        return np.atleast_1d(np.asarray(self.fn(np.asarray(coords, dtype=float)), dtype=float))

    def image_point(self, coords) -> Array:
        """The image coordinates, checked to lie inside the target chart."""
        image = self(coords)
        if not self.target.contains(image):
            raise DomainError(f"image {image} of {coords} outside target domain")
        return image

    def jacobian_at(self, coords, engine: DiffEngine) -> Array:
        if self.jac is not None:
            return np.atleast_2d(np.asarray(self.jac(np.asarray(coords, dtype=float)), dtype=float))
        return np.atleast_2d(
            engine.partials(self.fn, coords, self.source.lower, self.source.upper).T
        )

    def check_jacobian(self, engine: DiffEngine, points) -> float:
        """Max scaled gap between analytic and FD Jacobians; 0.0 if numeric."""
        if self.jac is None:
            return 0.0
        return analytic_fd_gap(self.source, engine, self.fn, self.jac, points)


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


def _in_blocks(fetch, points):
    """``(p, value)`` for each point, with ``fetch`` called once per block of
    ``POINT_BLOCK`` points, so that outside a scope only one block of values
    is alive at once."""
    for start in range(0, len(points), POINT_BLOCK):
        block = points[start:start + POINT_BLOCK]
        yield from zip(block, fetch(block))


def _gram_schmidt(basis: Array, g: Array) -> Array:
    """g-orthonormalize the columns of basis (assumed independent)."""
    out = []
    for k in range(basis.shape[1]):
        v = basis[:, k].copy()
        for u in out:
            v -= (u @ g @ v) * u
        norm = float(np.sqrt(v @ g @ v))
        if norm < 1e-13:
            raise RankError("degenerate basis during orthonormalization")
        out.append(v / norm)
    return np.column_stack(out) if out else np.zeros((basis.shape[0], 0))


@dataclass(frozen=True)
class Splitting:
    """Vertical/horizontal data of a submersion at one point.

    vertical: Euclidean-orthonormal kernel basis (columns).
    horizontal: g-orthonormal basis of the metric-orthogonal complement.
    projector_v: g-orthogonal projector onto the kernel.
    jacobian: the map's Jacobian at coords, which the splitting comes from.
    metric: the source metric at coords, which the splitting comes from.

    The arrays are read-only, because memoized splittings are shared.
    """

    coords: Array
    vertical: Array
    horizontal: Array
    projector_v: Array
    rank: int
    singular_values: Array
    jacobian: Array
    metric: Array

    def __post_init__(self):
        for a in (self.coords, self.vertical, self.horizontal, self.projector_v,
                  self.singular_values, self.jacobian, self.metric):
            a.setflags(write=False)

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
        coords = np.asarray(coords, dtype=float)
        return _memoized(self, coords, "splitting", self._splitting, coords)

    def _splitting(self, coords: Array) -> Splitting:
        coords = np.array(coords)  # a copy: the Splitting makes it read-only
        # a copy: an analytic jac may hand out the same array on every call
        J = np.array(self.map.jacobian_at(coords, self.engine))
        g = self.map.source.metric_at(coords, check=False)
        _, s, vt = np.linalg.svd(J)
        smax = float(s[0]) if s.size else 0.0
        rank = int(np.sum(s > RANK_TOL * smax)) if smax > 0 else 0
        if rank < self.map.target.dim:
            raise RankError(
                f"rank {rank} below target dimension {self.map.target.dim} at {coords}",
                rank=rank,
                singular_values=s,
            )
        vertical = vt[rank:].T
        projector = metric_orthogonal_projector(g, vertical)
        row_space = vt[:rank].T
        complement = row_space - projector @ row_space
        horizontal = _gram_schmidt(complement, g)
        return Splitting(coords, vertical, horizontal, projector, rank, s, J, g)

    def splittings_at(self, coords_seq) -> list[Splitting]:
        """``[self.splitting_at(c) for c in coords_seq]``, with one stacked
        LAPACK call per step for the whole set; memo entries are shared with
        ``splitting_at``."""
        coords = [np.asarray(c, dtype=float) for c in coords_seq]
        return _memoized_many(self, coords, "splitting", self._stacked_splittings,
                              self._splitting)

    def _stacked_splittings(self, coords_list: list) -> list[Splitting]:
        """``_splitting`` at every point, each step one call on the stack;
        raises if any point fails, and the caller's loop of ``_splitting``
        then names the first."""
        coords = [np.array(c) for c in coords_list]
        J = np.stack([self.map.jacobian_at(c, self.engine) for c in coords])
        G = np.stack([self.map.source.metric_at(c, check=False) for c in coords])
        _, S, VT = np.linalg.svd(J)
        m = self.map.target.dim
        smax = S[:, 0]
        ranks = np.where(smax > 0, np.sum(S > RANK_TOL * smax[:, None], axis=1), 0)
        if np.any(ranks < m):
            raise RankError("rank below target dimension in the point set")
        # the single-point kernel's products, left to right, on the stack
        V = VT[:, m:].transpose(0, 2, 1)
        if V.shape[2]:
            VtG = VT[:, m:] @ G
            P = V @ np.linalg.solve(VtG @ V, VtG)
        else:
            P = np.zeros(G.shape)
        R = VT[:, :m].transpose(0, 2, 1)
        complement = R - P @ R
        columns = []
        for k in range(m):
            v = complement[:, :, k].copy()
            for u in columns:
                v -= _stacked_inner(u, G, v)[:, None] * u
            norm = np.sqrt(_stacked_inner(v, G, v))
            if np.any(norm < 1e-13):
                raise RankError("degenerate basis during orthonormalization")
            columns.append(v / norm[:, None])
        H = np.stack(columns, axis=2)
        return [
            Splitting(c, vt[m:].T, h, p, m, s, j, g)
            for c, vt, h, p, s, j, g in zip(coords, VT, H, P, S, J, G)
        ]

    def split(self, coords, v) -> tuple[Array, Array]:
        """The vertical and horizontal parts of the component vector v at coords."""
        v = _as_vector(v, self.map.source.dim)
        vert = self.splitting_at(coords).vertical_part(v)
        return vert, v - vert

    def dilation(self, coords) -> DilationEstimate:
        """Inside an evaluation scope, memoized by context and exact coordinates."""
        coords = np.asarray(coords, dtype=float)
        return _memoized(self, coords, "dilation", self._dilation, coords)

    def dilations(self, coords_seq) -> list[DilationEstimate]:
        """``[self.dilation(c) for c in coords_seq]``, with one stacked call
        per step for the whole set; memo entries are shared with ``dilation``
        and, for the splittings, with ``splitting_at``."""
        coords = [np.asarray(c, dtype=float) for c in coords_seq]
        return _memoized_many(self, coords, "dilation", self._stacked_dilations, self._dilation)

    def _stacked_dilations(self, coords_list: list) -> list[DilationEstimate]:
        """``_dilation`` at every point, each step one call on the stack;
        raises if any point fails, and the caller's loop of ``_dilation``
        then names the first."""
        splittings = _memoized_many(self, coords_list, "splitting", self._stacked_splittings,
                                    self._splitting)
        target = self.map.target
        G = np.stack([target.metric_at(self.map(c), check=False) for c in coords_list])
        J = np.stack([s.jacobian for s in splittings])
        jh = J @ np.stack([s.horizontal for s in splittings])
        q = jh.transpose(0, 2, 1) @ G @ jh
        evals = np.linalg.eigvalsh(q)
        if np.any(evals[:, 0] <= 0.0):
            raise RankError("pullback metric degenerate on horizontal space in the point set")
        lam_sq = np.trace(q, axis1=1, axis2=2) / q.shape[1]
        anisotropy = evals[:, -1] / evals[:, 0]
        return [
            DilationEstimate(s.coords, float(lam), float(a))
            for s, lam, a in zip(splittings, lam_sq, anisotropy)
        ]

    def _dilation(self, coords: Array) -> DilationEstimate:
        s = self.splitting_at(coords)
        g_target = self.map.target.metric_at(self.map(coords), check=False)
        jh = s.jacobian @ s.horizontal
        q = jh.T @ g_target @ jh
        evals = np.linalg.eigvalsh(q)
        if evals[0] <= 0.0:
            raise RankError(
                f"pullback metric degenerate on horizontal space at {coords}",
                rank=s.rank,
                singular_values=s.singular_values,
            )
        lam_sq = float(np.trace(q)) / q.shape[0]
        return DilationEstimate(s.coords, lam_sq, float(evals[-1] / evals[0]))

    def warm_stencils(self, points, axes, dilations: bool = False) -> None:
        """Store in the evaluation scope the splittings (with ``dilations``,
        the dilations) at every stencil point of ``points`` along ``axes``,
        fetched through ``splittings_at`` (``dilations``) in blocks of
        ``POINT_BLOCK`` stencil points.

        The entries equal those the single-point calls at those points
        would store. A no-op outside a scope. Never raises: a stencil that
        does not fit and a block that fails are skipped, so the caller's own
        call there raises what it would raise anyway.
        """
        if _MEMO.get() is None:
            return
        M = self.map.source
        axes = tuple(axes)
        stencils = []
        for p in points:
            for axis in axes:
                try:
                    stencils.extend(self.engine.stencil_points(p, M.lower, M.upper, (axis,)))
                except StencilError:
                    continue
        fetch = self.dilations if dilations else self.splittings_at
        for start in range(0, len(stencils), POINT_BLOCK):
            try:
                fetch(stencils[start:start + POINT_BLOCK])
            except Exception:  # the caller's own call at that point raises it
                continue

    def __call__(self, coords) -> Array:
        return self.map(coords)

    def vertical_field(self, F: VectorField) -> VectorField:
        return VectorField(lambda c: self.splitting_at(c).vertical_part(F(c)))

    def horizontal_field(self, F: VectorField) -> VectorField:
        return VectorField(lambda c: self.splitting_at(c).horizontal_part(F(c)))

    def lambda_sq_field(self) -> ScalarField:
        source = self.map.source
        return ScalarField(lambda c: self.dilation(source.point(c)).lambda_sq)


def _part_axes(splittings, vertical: bool, columns=None) -> list[int]:
    """The axes along which the vertical (else horizontal) part of a vector
    that is zero outside ``columns`` can be nonzero at one of the
    splittings: the rows of the projector, restricted to those columns, that
    have a nonzero entry. A derivative along such a part is taken along no
    other axis."""
    used: set = set()
    for s in splittings:
        P = s.projector_v if vertical else np.eye(len(s.coords)) - s.projector_v
        if columns is not None:
            P = P[:, list(columns)]
        used.update(np.flatnonzero(np.any(P != 0.0, axis=1)).tolist())
    return sorted(used)


def _warm_parts(ctx: SubmersionContext, points, vertical: bool, columns=None) -> None:
    """``ctx.warm_stencils`` at ``points`` along the ``_part_axes`` of their
    splittings: for a suite that differentiates along the vertical (else
    horizontal) parts of vectors that are zero outside ``columns``. A no-op
    outside a scope; never raises."""
    if _MEMO.get() is None:
        return
    try:
        splittings = [s for _, s in _in_blocks(ctx.splittings_at, points)]
    except Exception:  # the suite's own call at that point raises it
        return
    ctx.warm_stencils(points, _part_axes(splittings, vertical, columns))


def _stacked_inner(u: Array, G: Array, v: Array) -> Array:
    """``u[i] @ G[i] @ v[i]`` for each i, as the same two products."""
    return (u[:, None, :] @ G @ v[:, :, None])[:, 0, 0]


def _oneill(
    ctx: SubmersionContext,
    part: Callable[[Splitting, Array], Array],
    E: VectorField,
    F: VectorField,
    coords,
    gamma: Optional[Array],
) -> Array:
    """H nabla_D (VF) + V nabla_D (HF) with D = part(E) at coords.

    VF and HF are differentiated in one stencil pass over c -> [VF(c), HF(c)];
    the stencils act elementwise, so each slice equals its own pass bit for bit.
    Only the axes where D has a nonzero component are differentiated.
    """
    M, engine = ctx.map.source, ctx.engine
    s = ctx.splitting_at(coords)
    direction = part(s, E(coords))
    if gamma is None:
        gamma = christoffel(M, engine, coords)

    def split(c):
        f = F(c)
        v = ctx.splitting_at(c).vertical_part(f)
        return v, f - v

    d = engine.partials(lambda c: np.array(split(c)), coords, M.lower, M.upper, along=direction)
    v, h = split(coords)
    # contiguous slices, so each product is the same call as for a lone field
    d_vert = _covariant_from_partials(direction, np.ascontiguousarray(d[:, 0]), v, gamma)
    d_horiz = _covariant_from_partials(direction, np.ascontiguousarray(d[:, 1]), h, gamma)
    return s.horizontal_part(d_vert) + s.vertical_part(d_horiz)


def oneill_a(
    ctx: SubmersionContext,
    E: VectorField,
    F: VectorField,
    coords,
    gamma: Optional[Array] = None,
) -> Array:
    """A_E F at coords, with projections recomputed along the stencil."""
    return _oneill(ctx, Splitting.horizontal_part, E, F, coords, gamma)


def oneill_t(
    ctx: SubmersionContext,
    E: VectorField,
    F: VectorField,
    coords,
    gamma: Optional[Array] = None,
) -> Array:
    """T_E F at coords, with projections recomputed along the stencil."""
    return _oneill(ctx, Splitting.vertical_part, E, F, coords, gamma)


def fiber_mean_curvature(
    ctx: SubmersionContext,
    basis: Array,
    coords,
    gamma: Optional[Array] = None,
) -> Array:
    """Mean curvature at coords of the fibers spanned by the columns of basis:
    T_u u averaged over the g-orthonormal columns u (zero for no columns)."""
    acc = np.zeros(basis.shape[0])
    for column in basis.T:
        u = VectorField.constant(column)
        acc += oneill_t(ctx, u, u, coords, gamma)
    return acc / max(basis.shape[1], 1)


def vertical_gradient(ctx: SubmersionContext, phi: ScalarField, coords) -> Array:
    """Vertical part of the metric gradient of phi at coords."""
    grad = gradient(ctx.map.source, ctx.engine, phi, coords)
    return ctx.splitting_at(coords).vertical_part(grad)


def conformal_a_formula(
    ctx: SubmersionContext,
    X: VectorField,
    Y: VectorField,
    coords,
    lambda_sq_field: Optional[ScalarField] = None,
) -> Array:
    """A_X Y = 1/2 { V[X, Y] - lambda^2 g(X, Y) grad_V(1/lambda^2) }.

    X and Y are replaced by their horizontal parts (as fields). Requires
    conformality at coords, judged by ``TOLERANCES["conformality/threshold"]``;
    raises ConformalityError carrying the anisotropy otherwise. By default
    lambda^2 is the context's own dilation estimate, so the formula is
    entirely self-contained.
    """
    d = ctx.dilation(coords)
    if not d.is_conformal(TOLERANCES["conformality/threshold"]):
        raise ConformalityError(
            f"map not conformal at {coords}: anisotropy {d.anisotropy:.6e}",
            anisotropy=d.anisotropy,
        )
    Xh = ctx.horizontal_field(X)
    Yh = ctx.horizontal_field(Y)
    bracket = lie_bracket(ctx.map.source, ctx.engine, Xh, Yh, coords)
    s = ctx.splitting_at(coords)
    v_bracket = s.vertical_part(bracket)

    lam_field = lambda_sq_field if lambda_sq_field is not None else ctx.lambda_sq_field()
    inv_partials = None
    if lam_field.partials is not None:
        def inv_partials(c, lam_field=lam_field):
            val = lam_field(c)
            return -np.asarray(lam_field.partials(c), dtype=float) / (val * val)
    inv_lambda_sq = ScalarField(lambda c: 1.0 / lam_field(c), inv_partials)

    grad_v = vertical_gradient(ctx, inv_lambda_sq, coords)
    g = ctx.map.source.metric_at(coords, check=False)
    inner = float(Xh(coords) @ g @ Yh(coords))
    lam_sq = lam_field(coords)
    return 0.5 * (v_bracket - lam_sq * inner * grad_v)
