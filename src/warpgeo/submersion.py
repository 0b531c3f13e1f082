"""Smooth maps, vertical/horizontal splitting, dilation, O'Neill tensors.

The vertical space at a point is the kernel of the Jacobian, obtained from a
rank-revealing SVD with threshold rank_tol * sigma_max; the horizontal space
is its metric-orthogonal complement, orthonormalized against the source
metric. The O'Neill tensors evaluate

    A_E F = H nabla_{HE} (VF) + V nabla_{HE} (HF)
    T_E F = H nabla_{VE} (VF) + V nabla_{VE} (HF)

literally: VF and HF are genuine fields whose projections are recomputed at
every stencil point.

Inside an ``evaluation_scope()`` each splitting is computed once per context
and exact coordinates, then shared; stencil points still get their own
splittings, so nothing is frozen at the base point.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .connection import (
    ChristoffelAt,
    christoffel,
    covariant_derivative_dir,
    lie_bracket,
    metric_orthogonal_projector,
)
from .errors import ConformalityError, DomainError, RankError
from .fd import DiffEngine
from .manifold import (
    ChartManifold,
    Point,
    ScalarField,
    TangentVector,
    VectorField,
    analytic_fd_gap,
    gradient,
)

Array = np.ndarray

# id(context) -> (context, {coords.tobytes(): Splitting}) of the active scope;
# the context is held so that its id is not reused while the scope is open
_SPLITTINGS: ContextVar[Optional[dict]] = ContextVar("warpgeo_splittings", default=None)


@contextmanager
def evaluation_scope():
    """Memoize ``SubmersionContext.splitting_at`` until the block exits.

    A nested scope shares the outer memo. Failed splittings are never
    stored, and the memo is dropped on exit.
    """
    if _SPLITTINGS.get() is not None:
        yield
        return
    token = _SPLITTINGS.set({})
    try:
        yield
    finally:
        _SPLITTINGS.reset(token)


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

    def image_point(self, p: Point) -> Point:
        image = self(p.coords)
        if not self.target.contains(image):
            raise DomainError(f"image {image} of {p.coords} outside target domain")
        return Point(self.target, image)

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


def pushforward(F: SmoothMap, engine: DiffEngine, p: Point, v: TangentVector) -> TangentVector:
    """F_* v = J(p) v, based at F(p)."""
    J = F.jacobian_at(p.coords, engine)
    return TangentVector(F.image_point(p), J @ v.components)


def identity_map(M: ChartManifold) -> SmoothMap:
    return SmoothMap(M, M, lambda c: c, lambda c: np.eye(M.dim), name="identity")


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

    The arrays are read-only, because memoized splittings are shared.
    """

    coords: Array
    vertical: Array
    horizontal: Array
    projector_v: Array
    rank: int
    singular_values: Array

    def __post_init__(self):
        for a in (self.coords, self.vertical, self.horizontal, self.projector_v,
                  self.singular_values):
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
    rank_tol: float = 1e-8
    conf_tol: float = 1e-6

    def splitting_at(self, coords) -> Splitting:
        coords = np.array(coords, dtype=float)  # a copy: the Splitting makes it read-only
        memo = _SPLITTINGS.get()
        if memo is None:
            return self._splitting(coords)
        _, cache = memo.setdefault(id(self), (self, {}))
        key = coords.tobytes()
        if key not in cache:
            cache[key] = self._splitting(coords)
        return cache[key]

    def _splitting(self, coords: Array) -> Splitting:
        J = self.map.jacobian_at(coords, self.engine)
        g = self.map.source.metric_at(coords, check=False)
        _, s, vt = np.linalg.svd(J)
        smax = float(s[0]) if s.size else 0.0
        rank = int(np.sum(s > self.rank_tol * smax)) if smax > 0 else 0
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
        return Splitting(coords, vertical, horizontal, projector, rank, s)

    def split(self, p: Point, v: TangentVector) -> tuple[TangentVector, TangentVector]:
        s = self.splitting_at(p.coords)
        vert = s.vertical_part(v.components)
        return TangentVector(p, vert), TangentVector(p, v.components - vert)

    def dilation(self, p: Point) -> DilationEstimate:
        s = self.splitting_at(p.coords)
        J = self.map.jacobian_at(p.coords, self.engine)
        g_target = self.map.target.metric_at(self(p), check=False)
        jh = J @ s.horizontal
        q = jh.T @ g_target @ jh
        evals = np.linalg.eigvalsh(q)
        if evals[0] <= 0.0:
            raise RankError(
                f"pullback metric degenerate on horizontal space at {p.coords}",
                rank=s.rank,
                singular_values=s.singular_values,
            )
        lam_sq = float(np.trace(q)) / q.shape[0]
        return DilationEstimate(p.coords, lam_sq, float(evals[-1] / evals[0]))

    def __call__(self, p: Point) -> Array:
        return self.map(p.coords)

    def vertical_field(self, F: VectorField) -> VectorField:
        return VectorField(lambda c: self.splitting_at(c).vertical_part(F(c)))

    def horizontal_field(self, F: VectorField) -> VectorField:
        return VectorField(lambda c: self.splitting_at(c).horizontal_part(F(c)))

    def lambda_sq_field(self) -> ScalarField:
        source = self.map.source
        return ScalarField(lambda c: self.dilation(source.point(c)).lambda_sq)


def _oneill(
    ctx: SubmersionContext,
    engine: DiffEngine,
    part: Callable[[Splitting, Array], Array],
    E: VectorField,
    F: VectorField,
    p: Point,
    gamma: Optional[ChristoffelAt],
) -> TangentVector:
    """H nabla_D (VF) + V nabla_D (HF) with D = part(E) at p."""
    M = ctx.map.source
    s = ctx.splitting_at(p.coords)
    direction = part(s, E(p.coords))
    if gamma is None:
        gamma = christoffel(M, engine, p)
    d_vert = covariant_derivative_dir(M, engine, direction, ctx.vertical_field(F), p, gamma)
    d_horiz = covariant_derivative_dir(M, engine, direction, ctx.horizontal_field(F), p, gamma)
    return TangentVector(
        p, s.horizontal_part(d_vert.components) + s.vertical_part(d_horiz.components)
    )


def oneill_a(
    ctx: SubmersionContext,
    engine: DiffEngine,
    E: VectorField,
    F: VectorField,
    p: Point,
    gamma: Optional[ChristoffelAt] = None,
) -> TangentVector:
    """A_E F with projections recomputed along the stencil."""
    return _oneill(ctx, engine, Splitting.horizontal_part, E, F, p, gamma)


def oneill_t(
    ctx: SubmersionContext,
    engine: DiffEngine,
    E: VectorField,
    F: VectorField,
    p: Point,
    gamma: Optional[ChristoffelAt] = None,
) -> TangentVector:
    """T_E F with projections recomputed along the stencil."""
    return _oneill(ctx, engine, Splitting.vertical_part, E, F, p, gamma)


def fiber_mean_curvature(
    ctx: SubmersionContext,
    engine: DiffEngine,
    basis: Array,
    p: Point,
    gamma: Optional[ChristoffelAt] = None,
) -> Array:
    """Mean curvature at p of the fibers spanned by the columns of basis:
    T_u u averaged over the g-orthonormal columns u (zero for no columns)."""
    acc = np.zeros(basis.shape[0])
    for column in basis.T:
        u = VectorField.constant(column)
        acc += oneill_t(ctx, engine, u, u, p, gamma).components
    return acc / max(basis.shape[1], 1)


def vertical_gradient(
    ctx: SubmersionContext, engine: DiffEngine, phi: ScalarField, p: Point
) -> TangentVector:
    """Vertical part of the metric gradient of phi at p."""
    grad = gradient(ctx.map.source, engine, phi, p)
    s = ctx.splitting_at(p.coords)
    return TangentVector(p, s.vertical_part(grad.components))


def conformal_a_formula(
    ctx: SubmersionContext,
    engine: DiffEngine,
    X: VectorField,
    Y: VectorField,
    p: Point,
    lambda_sq_field: Optional[ScalarField] = None,
) -> TangentVector:
    """A_X Y = 1/2 { V[X, Y] - lambda^2 g(X, Y) grad_V(1/lambda^2) }.

    X and Y are replaced by their horizontal parts (as fields). Requires
    conformality at p; raises ConformalityError carrying the anisotropy
    otherwise. By default lambda^2 is the context's own dilation estimate,
    so the formula is entirely self-contained.
    """
    d = ctx.dilation(p)
    if not d.is_conformal(ctx.conf_tol):
        raise ConformalityError(
            f"map not conformal at {p.coords}: anisotropy {d.anisotropy:.6e}",
            anisotropy=d.anisotropy,
        )
    Xh = ctx.horizontal_field(X)
    Yh = ctx.horizontal_field(Y)
    bracket = lie_bracket(engine, Xh, Yh, p)
    s = ctx.splitting_at(p.coords)
    v_bracket = s.vertical_part(bracket.components)

    lam_field = lambda_sq_field if lambda_sq_field is not None else ctx.lambda_sq_field()
    inv_partials = None
    if lam_field.partials is not None:
        def inv_partials(c, lam_field=lam_field):
            val = lam_field(c)
            return -np.asarray(lam_field.partials(c), dtype=float) / (val * val)
    inv_lambda_sq = ScalarField(lambda c: 1.0 / lam_field(c), inv_partials)

    grad_v = vertical_gradient(ctx, engine, inv_lambda_sq, p).components
    g = ctx.map.source.metric_at(p.coords, check=False)
    inner = float(Xh(p.coords) @ g @ Yh(p.coords))
    lam_sq = lam_field(p.coords)
    return TangentVector(p, 0.5 * (v_bracket - lam_sq * inner * grad_v))
