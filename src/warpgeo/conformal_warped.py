"""Products of conformal submersions between warped products.

Given factor submersions phi1: M1 -> N1 and phi2: M2 -> N2 with dilations
lambda1, lambda2 and warps f (on M1), rho (on N1), the product map
(p1, p2) |-> (phi1(p1), phi2(p2)) between M1 x_f M2 and N1 x_rho N2 is
conformal exactly where the two candidate squared dilations agree:

    r1 = lambda1(p1)^2
    r2 = rho(phi1(p1))^2 lambda2(p2)^2 / f(p1)^2

When they agree, the product's squared dilation is r1; the verifiers below
measure this compatibility instead of assuming it (``compatibility_report``,
from one kernel of a point set's factor data; a point is a set of one),
cross-check the product's A tensor against the per-factor formulas (both
denominator conventions; each identity one rows kernel of the O'Neill
kernels, ``_first_factor_rows`` and ``_second_factor_rows``, handed to the
block pass ``submersion._add_in_blocks``), measure the fibers' mean
curvatures and mixed T values (``_fiber_rows``, a block pass too), and
exercise the Riemannian reduction and the conformal rescaling that turns
the product into a Riemannian submersion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from .connection import _lie_brackets
from .errors import ConfigurationError, ConformalityError, WarpPositivityError
from .fd import DiffEngine
from .manifold import (
    ChartManifold,
    PointFields,
    ScalarField,
    VectorField,
    _point_set,
    _with_stack,
    evaluation_scope,
)
from .report import TOLERANCES, CheckRecord, ResidualCheck, residual_norms, residual_scales
from .submersion import (
    SmoothMap,
    SubmersionContext,
    _add_in_blocks,
    _block_rows,
    _fiber_mean_curvatures,
    _gram_schmidt,
    _horizontal,
    _in_blocks,
    _inner,
    _oneills,
    _projectors,
    _vertical,
    _vertical_gradients,
)
from .warped import WarpedProduct, build_warped_product, lift

Array = np.ndarray


@dataclass(frozen=True)
class ConformalWarpedSubmersion:
    """phi1 x phi2 between warped products, with all contexts wired up.

    ctx runs on the warped ambients; ctx1 and ctx2 run on the factors with
    their intrinsic (unwarped) metrics, which is what the per-factor A
    tensors refer to. The product map is ctx.map, the factor maps are
    ctx1.map and ctx2.map, and the warps are source.warp and target.warp.
    """

    lambda1: ScalarField
    lambda2: ScalarField
    source: WarpedProduct
    target: WarpedProduct
    ctx: SubmersionContext
    ctx1: SubmersionContext
    ctx2: SubmersionContext


@dataclass(frozen=True)
class CompatibilityEntry:
    """The two candidate squared dilations at one point, their relative gap
    ``residual = |r1/r2 - 1|``, and the verdict."""

    coords: Array
    r1: float
    r2: float
    conformal_here: bool
    residual: float


def build_product_submersion(
    phi1: SmoothMap,
    lambda1: ScalarField,
    phi2: SmoothMap,
    lambda2: ScalarField,
    f: ScalarField,
    rho: ScalarField,
    engine: DiffEngine,
) -> ConformalWarpedSubmersion:
    """Assemble the product map with block-diagonal Jacobian.

    The product's images and Jacobians of a point set (``images``,
    ``jacobians_at``) are assembled from the factor maps' checked
    ``images`` and ``jacobians_at``. A factor failure raises there, and
    ``_point_set`` redoes the set with the per-point ``fn`` and ``jac``, so
    the product's own first failing point raises."""
    source = build_warped_product(phi1.source, phi2.source, f)
    target = build_warped_product(phi1.target, phi2.target, rho)
    m1, m2 = source.block("first"), source.block("second")
    n1, n2 = target.block("first"), target.block("second")

    blocks = ((n1, m1), (n2, m2))
    shape = (target.ambient.dim, source.ambient.dim)

    def joined(y1, y2):
        """(y1, y2) of one pair of factor images, or of each pair of two
        stacks of them."""
        return np.concatenate([y1, y2], axis=-1)

    def fn(coords):
        return joined(phi1(coords[m1]), phi2(coords[m2]))

    def images(coords):
        return joined(phi1.images(coords[:, m1]), phi2.images(coords[:, m2]))

    def jac(coords):
        return _block_diagonal(np.zeros(shape), blocks, phi1.jacobian_at(coords[m1], engine),
                               phi2.jacobian_at(coords[m2], engine))

    def jacobians(coords):
        return _block_diagonal(np.zeros((len(coords),) + shape), blocks,
                               phi1.jacobians_at(coords[:, m1], engine),
                               phi2.jacobians_at(coords[:, m2], engine))

    product = SmoothMap(source.ambient, target.ambient, _with_stack(fn, images),
                        _with_stack(jac, jacobians),
                        name=f"{phi1.name}x{phi2.name}")
    return ConformalWarpedSubmersion(
        lambda1=lambda1, lambda2=lambda2, source=source, target=target,
        ctx=SubmersionContext(product, engine),
        ctx1=SubmersionContext(phi1, engine), ctx2=SubmersionContext(phi2, engine),
    )


def _block_diagonal(J: Array, blocks: tuple, J1: Array, J2: Array) -> Array:
    """diag(J1, J2), written into the zeros ``J`` along the (rows, columns)
    ``blocks`` of the two factors: at one point, or at each point of two
    stacks. Returns ``J``."""
    (rows1, columns1), (rows2, columns2) = blocks
    J[..., rows1, columns1] = J1
    J[..., rows2, columns2] = J2
    return J


# the data of a kernel row, and the faults each is checked for, in order
_FACTOR_DATA = ("lambda1", "lambda2", "source warp", "target warp")
_FAULTS = ("<= 0", "is not finite", "squares to 0")  # NaN fails the first


def _factor_data(cws: ConformalWarpedSubmersion, coords: Array) -> Array:
    """The rows ``(lambda1, lambda2, f, rho o phi1, r1, r2)`` at the rows of
    the (N, dim) array ``coords``. phi1's images come from one ``images``
    call, so a DomainError comes first; then WarpPositivityError names the
    first point where a datum fails (its first fault) or r2 is 0 (inf is kept)."""
    c1, c2 = coords[:, cws.source.block("first")], coords[:, cws.source.block("second")]
    values = (v for a, b, y in zip(c1, c2, cws.ctx1.map.images(c1))
              for v in (cws.lambda1(a), cws.lambda2(b), cws.source.warp(a), cws.target.warp(y)))
    data = np.fromiter(values, float, 4 * len(coords)).reshape(-1, 4)  # no list of the set
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        squares = data * data
        r2 = squares[:, 3] * squares[:, 1] / squares[:, 2]
    passes = np.array([data > 0.0, data < np.inf, squares > 0.0])  # (fault, point, datum)
    failing = ~passes.all(axis=(0, 2)) | (r2 == 0.0)
    if failing.any():
        i = np.argmax(failing)
        faults = np.argwhere(~passes[:, i].T)  # (datum, fault), first datum first
        if len(faults):
            datum, fault = faults[0]
            raise WarpPositivityError(f"{_FACTOR_DATA[datum]} = {float(data[i, datum])} "
                                      f"{_FAULTS[fault]} at {coords[i]}")
        raise WarpPositivityError(f"r2 = (rho o phi1)^2 lambda2^2 / f^2 is 0 at {coords[i]}")
    return np.concatenate([data, squares[:, :1], r2[:, None]], axis=1)


def _positive_factor_data(cws: ConformalWarpedSubmersion, coords) -> tuple:
    """``(lambda1, lambda2, f, rho o phi1)`` at coords as Python floats:
    ``_factor_data`` on a stack of one, raising its errors."""
    return tuple(_factor_data(cws, np.asarray(coords, dtype=float)[None])[0, :4].tolist())


def compatibility(cws: ConformalWarpedSubmersion, coords) -> CompatibilityEntry:
    """r1 vs r2 at one point, a ``compatibility_report`` of one point."""
    return compatibility_report(cws, [coords])[0]


def compatibility_report(cws: ConformalWarpedSubmersion, points: Sequence[Array]) -> tuple:
    """r1 vs r2 at each point, in order; conformal iff |r1/r2 - 1| is at most
    the unscaled ``TOLERANCES["conformality/threshold"]``. The factor data
    of the set come from one ``_factor_data`` call through ``_point_set``,
    so the first point where the data fail raises its own error."""
    threshold = TOLERANCES["conformality/threshold"]
    data = _point_set(lambda coords: _factor_data(cws, coords), points, (6,))
    r1, r2 = data[:, 4], data[:, 5]
    with np.errstate(over="ignore", invalid="ignore"):  # as on Python floats: inf, NaN
        residual = np.abs(r1 / r2 - 1.0)
    return tuple(CompatibilityEntry(p, a, b, r <= threshold, r)
                 for p, a, b, r in zip(points, r1.tolist(), r2.tolist(), residual.tolist()))


def _conformal_points(cws: ConformalWarpedSubmersion, points: Sequence[Array]) -> list:
    """The points at which the two candidate dilations agree."""
    return [e.coords for e in compatibility_report(cws, points) if e.conformal_here]


def verify_first_factor_a_identity(
    cws: ConformalWarpedSubmersion,
    points: Sequence[Array],
    pairs1: Sequence[tuple[VectorField, VectorField]],
    tolerance: float = TOLERANCES["product-a-first-factor"],
) -> CheckRecord:
    """Product A on lifted first-factor horizontal fields equals the factor
    bracket/dilation-gradient formula.

    The gradient term is computed in both conventions (vertical gradient of
    1/lambda1^2 taken on the factor and lifted, and taken on the product);
    the reported residual is the worse of the two (NaN when either is), and
    the largest convention gap is noted. The samples are one block pass of
    ``_first_factor_rows`` (``_add_in_blocks``), whose residuals and gaps,
    and their order, are those of a point-by-point walk.
    """
    check = ResidualCheck("product-a-first-factor", tolerance)
    # never recorded: its largest gap is a note of the check
    gap = ResidualCheck("gradient-convention-gap", tolerance)
    with evaluation_scope():
        used = _conformal_points(cws, points)
        skipped = len(points) - len(used)
        _add_in_blocks([check, gap] * len(pairs1), partial(_first_factor_rows, cws, pairs1), used)

    if skipped:
        check.note(f"skipped {skipped} non-conformal points")
    check.note(f"gradient-convention gap {gap.max_residual:.2e}")
    return check.record()


def _first_factor_rows(cws: ConformalWarpedSubmersion, pairs1, coords: Array) -> Array:
    """The (residual, scale) and the (convention gap, scale) of each pair of
    ``verify_first_factor_a_identity`` at each row of the (N, dim) array
    ``coords``, as an (N, 2 * pairs, 2) array: ``_oneills``,
    ``_lie_brackets`` and ``_vertical_gradients`` per pair over the set, on
    the product and on the first factor."""
    W, engine = cws.source, cws.ctx.engine
    inv_l1_partials = None
    if cws.lambda1.partials is not None:
        def inv_l1_partials(c):
            v = cws.lambda1(c)
            return -2.0 * np.asarray(cws.lambda1.partials(c), float) / v**3
    inv_l1 = ScalarField(lambda c: 1.0 / cws.lambda1(c) ** 2, inv_l1_partials)
    inv_l1_lifted = lift(W, "first", inv_l1)
    c1 = coords[:, W.block("first")]
    G1 = np.array(W.first.metrics_at(c1, check=True))
    lam1_sq = np.array([cws.lambda1(c) ** 2 for c in c1])
    P1 = _projectors(cws.ctx1, c1)
    P = _projectors(cws.ctx, coords)
    columns = []
    for X1, Y1 in pairs1:
        Xl, Yl = lift(W, "first", X1), lift(W, "first", Y1)
        lhs = _oneills(cws.ctx, _horizontal, Xl, Yl, coords)
        inner = _inner(X1.values_at(c1), G1, Y1.values_at(c1))[:, 0]
        # convention A: everything on the first factor, then lifted
        br1 = _lie_brackets(W.first, engine, X1, Y1, c1)
        grad1 = _vertical_gradients(cws.ctx1, inv_l1, c1)
        rhs_factor = 0.5 * (_vertical(P1, br1) - (lam1_sq * inner)[:, None] * grad1)
        # convention B: bracket and vertical gradient on the product
        br = _lie_brackets(W.ambient, engine, Xl, Yl, coords)
        grad_m = _vertical_gradients(cws.ctx, inv_l1_lifted, coords)
        rhs_b = 0.5 * (_vertical(P, br) - (lam1_sq * inner)[:, None] * grad_m)
        rhs_a = W.pad_rows("first", rhs_factor)
        scale = residual_scales(lhs, rhs_a, rhs_b)
        columns += [(np.maximum(residual_norms(lhs - rhs_a), residual_norms(lhs - rhs_b)), scale),
                    (residual_norms(rhs_a - rhs_b), scale)]
    return _block_rows(columns, len(coords))


def second_factor_variant_fields(cws: ConformalWarpedSubmersion) -> dict[str, ScalarField]:
    """The two candidate scalar fields f^2 / lambda_i^2 on the product."""
    W = cws.source
    first, second = W.block("first"), W.block("second")
    f = cws.source.warp
    l1 = cws.lambda1
    l2 = cws.lambda2

    partials_first = None
    if f.partials is not None and l1.partials is not None:
        def partials_first(c1):
            fv, lv = f(c1), l1(c1)
            df = np.asarray(f.partials(c1), float)
            dl = np.asarray(l1.partials(c1), float)
            return 2.0 * fv * df / lv**2 - 2.0 * fv**2 * dl / lv**3

    def fn_second(c):
        return f(c[first]) ** 2 / l2(c[second]) ** 2

    # both blocks are written into one array: adding two padded arrays
    # would turn a -0.0 partial into +0.0
    partials_second = None
    if f.partials is not None and l2.partials is not None:
        def partials_second(c):
            c1, c2 = c[first], c[second]
            fv, lv = f(c1), l2(c2)
            out = np.zeros(len(c))
            out[first] = 2.0 * fv * np.asarray(f.partials(c1), float) / lv**2
            out[second] = -2.0 * fv**2 * np.asarray(l2.partials(c2), float) / lv**3
            return out

    first_field = ScalarField(lambda c1: f(c1) ** 2 / l1(c1) ** 2, partials_first)
    return {
        "first-factor-denominator": lift(W, "first", first_field),
        "second-factor-denominator": ScalarField(fn_second, partials_second),
    }


def verify_second_factor_a_identity(
    cws: ConformalWarpedSubmersion,
    points: Sequence[Array],
    pairs2: Sequence[tuple[VectorField, VectorField]],
    tolerance: float = TOLERANCES["product-a-second-factor"],
) -> tuple[CheckRecord, dict[str, float]]:
    """Product A on lifted second-factor horizontal fields.

    The candidate right-hand side is
      1/2 { A2(X2, Y2) - A2(Y2, X2) - lambda2^2 g2(X2, Y2) grad_V(f^2/den) }
    with den = lambda1^2 or lambda2^2; both are computed and the record names
    every variant whose residual passes. Returns the record plus the
    per-variant residuals for programmatic adjudication; the record's
    residual is the best finite variant's, and non-finite when no variant
    is finite. The samples are one block pass of ``_second_factor_rows``
    (``_add_in_blocks``), whose residuals, and their order, are those of a
    point-by-point walk.
    """
    check = ResidualCheck("product-a-second-factor", tolerance)
    variants = second_factor_variant_fields(cws)
    # never recorded: each variant's largest residual
    per_variant = {name: ResidualCheck(name, tolerance) for name in variants}
    with evaluation_scope():
        used = _conformal_points(cws, points)
        skipped = len(points) - len(used)
        _add_in_blocks(list(per_variant.values()) * len(pairs2),
                       partial(_second_factor_rows, cws, pairs2, variants), used)

    worst = {name: c.max_residual for name, c in per_variant.items()}
    # the check passes iff the best variant passes; fmin skips a NaN variant
    best = float(np.fmin.reduce(list(worst.values())))
    for _ in used:
        check.add(best)
    passing = sorted(name for name, r in worst.items() if r <= tolerance)  # NaN never passes
    check.note("passing variant(s): " + (", ".join(passing) if passing else "none"))
    for name in sorted(worst):
        check.note(f"{name} residual {worst[name]:.3e}")
    if skipped:
        check.note(f"skipped {skipped} non-conformal points")
    return check.record(), worst


def _second_factor_rows(cws: ConformalWarpedSubmersion, pairs2, variants: dict,
                        coords: Array) -> Array:
    """The (residual, scale) of each pair and variant of
    ``verify_second_factor_a_identity`` at each row of the (N, dim) array
    ``coords``, as an (N, pairs * variants, 2) array: ``_oneills`` on the
    product and on the second factor over the set, and ``_vertical_gradients``
    once per variant, at the first pair, where the point-by-point walk
    first needs them."""
    W = cws.source
    c2 = coords[:, W.block("second")]
    G2 = np.array(W.second.metrics_at(c2, check=True))
    lam2_sq = np.array([cws.lambda2(c) ** 2 for c in c2])
    grads = None  # each variant's vertical gradients at coords
    columns = []
    for X2, Y2 in pairs2:
        Xl, Yl = lift(W, "second", X2), lift(W, "second", Y2)
        lhs = _oneills(cws.ctx, _horizontal, Xl, Yl, coords)
        a2_xy = _oneills(cws.ctx2, _horizontal, X2, Y2, c2)
        a2_yx = _oneills(cws.ctx2, _horizontal, Y2, X2, c2)
        skew = W.pad_rows("second", a2_xy - a2_yx)
        inner = _inner(X2.values_at(c2), G2, Y2.values_at(c2))[:, 0]
        if grads is None:
            grads = [_vertical_gradients(cws.ctx, field, coords) for field in variants.values()]
        for g in grads:
            rhs = 0.5 * (skew - (lam2_sq * inner)[:, None] * g)
            columns.append((residual_norms(lhs - rhs), residual_scales(lhs, rhs)))
    return _block_rows(columns, len(coords))


def verify_riemannian_reduction(
    cws: ConformalWarpedSubmersion,
    points: Sequence[Array],
    tolerance: float = TOLERANCES["riemannian-reduction"],
) -> CheckRecord:
    """With lambda1 = lambda2 = 1 and rho o phi1 = f, the product map is a
    Riemannian submersion: squared dilation 1 and horizontal lengths kept.
    Raises WarpPositivityError where a dilation or a warp is not positive,
    then ConfigurationError where the hypotheses fail."""
    for p in points:
        l1, l2, fv, rv = _positive_factor_data(cws, p)
        if abs(l1 - 1.0) > 1e-12 or abs(l2 - 1.0) > 1e-12:
            raise ConfigurationError(
                f"reduction requires unit dilations; lambda1={l1}, lambda2={l2} at {p}"
            )
        if abs(rv - fv) > 1e-9 * (1.0 + abs(fv)):
            raise ConfigurationError(
                f"reduction requires target warp to pull back to the source warp; "
                f"got {rv} vs {fv} at {p}"
            )
    check = ResidualCheck("riemannian-reduction", tolerance)
    for _, d in _in_blocks(cws.ctx.dilations, points):
        # length preservation over the horizontal basis is |Q - I| in disguise
        check.add(max(abs(d.lambda_sq - 1.0), d.anisotropy - 1.0))
    return check.record()


def rescaled_context(cws: ConformalWarpedSubmersion, sigma_offset: float = 0.0) -> SubmersionContext:
    """Context of the same map with source metric lambda^2 e^{-2 offset} g,
    lambda^2 = r1 where the product is conformal; the metric raises
    ConformalityError elsewhere.

    With offset 0 the rescaled map is a Riemannian submersion; a nonzero
    offset multiplies every squared dilation by e^{2 offset}. The metric of
    a point set reads r1 in one ``compatibility_report`` call and the
    unchecked source metrics in one ``metrics_at`` call.
    """
    factor = float(np.exp(-2.0 * sigma_offset))
    base = cws.source.ambient

    def metric(coords):
        entry = compatibility(cws, base.point(coords))
        if not entry.conformal_here:
            raise ConformalityError(
                f"product not conformal at {coords}: r1={entry.r1:.6e}, r2={entry.r2:.6e}"
            )
        return (factor * entry.r1) * base.metric_at(coords, check=False)

    def metrics(coords):
        entries = compatibility_report(cws, [base.point(c) for c in coords])
        if not all(e.conformal_here for e in entries):
            # _point_set redoes the set point by point: the first one raises
            raise ConformalityError("product not conformal")
        r1 = np.array([e.r1 for e in entries])
        return (factor * r1)[:, None, None] * np.array(base.metrics_at(coords))

    rescaled = ChartManifold(base.dim, base.lower, base.upper, _with_stack(metric, metrics),
                             name=f"{base.name}-rescaled")
    return replace(cws.ctx, map=replace(cws.ctx.map, source=rescaled))


# the log-factor offset of the rescaling's uniqueness probe
PROBE_OFFSET = 0.1


def verify_rescaled_riemannian(
    cws: ConformalWarpedSubmersion,
    points: Sequence[Array],
    tolerance: float = TOLERANCES["rescale-to-riemannian"],
    probe_tolerance: float = TOLERANCES["rescale-uniqueness-probe"],
) -> list[CheckRecord]:
    """Rescaling by the squared dilation yields a Riemannian submersion, and
    the conformal factor achieving that is unique.

    The uniqueness probe perturbs the log factor by ``PROBE_OFFSET`` and
    passes when the perturbed dilation is detected away from 1
    (expected-fail) and matches e^{2 offset}.
    """
    main = ResidualCheck("rescale-to-riemannian", tolerance)
    ctx0 = rescaled_context(cws, 0.0)
    for _, d in _in_blocks(ctx0.dilations, points):
        main.add(max(abs(d.lambda_sq - 1.0), d.anisotropy - 1.0))

    probe_detect = ResidualCheck("rescale-uniqueness-probe", probe_tolerance,
                                 expected_fail=True)
    probe_value = ResidualCheck("rescale-probe-dilation", tolerance)
    expected = float(np.exp(2.0 * PROBE_OFFSET))
    ctx1 = rescaled_context(cws, PROBE_OFFSET)
    probes = [d for _, d in _in_blocks(ctx1.dilations, points)]
    for d in probes:
        probe_detect.add(abs(d.lambda_sq - 1.0))
        probe_value.add(abs(d.lambda_sq - expected), 1.0 + expected)
    probe_detect.note(f"offset {PROBE_OFFSET} perturbs squared dilation to {expected:.6f}")
    # log-factor gap |tau - sigma| recovered from the probe's dilation
    gaps = [abs(0.5 * np.log(d.lambda_sq)) for d in probes]
    probe_value.note(f"recovered log-factor offset {max(gaps):.6f}")
    return [main.record(), probe_detect.record(), probe_value.record()]


def factor_vertical_bases(
    cws: ConformalWarpedSubmersion, coords
) -> tuple[Array, Array]:
    """Lifted, ambient-metric-orthonormal bases of the two vertical blocks at
    coords: ``_factor_vertical_bases`` on a stack of one."""
    v1, v2 = _factor_vertical_bases(cws, np.asarray(coords, dtype=float)[None])
    return v1[0], v2[0]


def _factor_vertical_bases(cws: ConformalWarpedSubmersion, coords: Array) -> tuple[Array, Array]:
    """The bases of ``factor_vertical_bases`` at each row of the (N, dim)
    array ``coords``, as two (N, dim, k) stacks: one ``splittings_at`` call
    per factor, each point's checked ambient metric and one stacked
    Gram-Schmidt per block."""
    W = cws.source
    padded = []
    for which, ctx in (("first", cws.ctx1), ("second", cws.ctx2)):
        vertical = np.stack([s.vertical for s in ctx.splittings_at(coords[:, W.block(which)])])
        padded.append(np.zeros((len(coords), W.ambient.dim, vertical.shape[2])))
        padded[-1][:, W.block(which)] = vertical
    g = np.array(W.ambient.metrics_at(coords, check=True))
    return _gram_schmidt(padded[0], g), _gram_schmidt(padded[1], g)


def fiber_geometry_report(
    cws: ConformalWarpedSubmersion,
    points: Sequence[Array],
    expect_first_minimal: bool,
    expect_second_minimal: bool,
    tolerance: float = TOLERANCES["fiber-minimality-first"],
) -> list[CheckRecord]:
    """Mean curvatures of the two vertical blocks and the mixed T values.

    The fibers of the product map split into a first-factor and a
    second-factor vertical block; each block's mean curvature comes from
    averaging T over an orthonormal basis, and the minimality verdicts are
    compared against the scenario's expectations. T on mixed pairs measures
    whether the fibers are mixed totally geodesic. The samples are one
    block pass of ``_fiber_rows`` (``_add_in_blocks``), whose residuals,
    and their order, are those of a point-by-point walk.
    """
    h1_check = ResidualCheck("fiber-minimality-first", tolerance)
    h2_check = ResidualCheck("fiber-minimality-second", tolerance)
    mixed_check = ResidualCheck("mixed-fiber-geodesic", tolerance)
    # the vertical dimension of every splitting of each factor
    k1, k2 = (max(c.map.source.dim - c.map.target.dim, 0) for c in (cws.ctx1, cws.ctx2))
    with evaluation_scope():
        _add_in_blocks([h1_check, h2_check] + [mixed_check] * (k1 * k2),
                       partial(_fiber_rows, cws), points)

    records = []
    for check, expect in ((h1_check, expect_first_minimal), (h2_check, expect_second_minimal)):
        check.expected_fail = not expect
        check.note("expected " + ("minimal" if expect else "non-minimal"))
        records.append(check.record())
    records.append(mixed_check.record())
    return records


def _fiber_rows(cws: ConformalWarpedSubmersion, coords: Array) -> Array:
    """The (residual, scale) of the mean curvature of each vertical block and
    of T on each mixed pair of basis vectors at each row of the (N, dim)
    array ``coords``, as an (N, 2 + k1 k2, 2) array: the block's factor
    vertical bases (``_factor_vertical_bases``), their mean curvatures
    (``_fiber_mean_curvatures``) and T of each mixed pair's constant
    extensions (``PointFields``) from one ``_oneills`` call over the set."""
    v1, v2 = _factor_vertical_bases(cws, coords)
    h1 = _fiber_mean_curvatures(cws.ctx, v1, coords)
    h2 = _fiber_mean_curvatures(cws.ctx, v2, coords)
    columns = [(residual_norms(h), residual_scales(h)) for h in (h1, h2)]
    for a in range(v1.shape[2]):
        for b in range(v2.shape[2]):
            t_mixed = _oneills(cws.ctx, _vertical, PointFields.constant(v1[:, :, a]),
                               PointFields.constant(v2[:, :, b]), coords)
            columns.append((residual_norms(t_mixed), residual_scales(t_mixed)))
    return _block_rows(columns, len(coords))


def verify_kernel_product(
    cws: ConformalWarpedSubmersion, points: Sequence[Array]
) -> list[CheckRecord]:
    """Jacobian cross blocks are exactly zero and kernel dimensions add up."""
    blocks = ResidualCheck("jacobian-blocks", TOLERANCES["jacobian-blocks"])
    kernel = ResidualCheck("kernel-product", TOLERANCES["kernel-product"])
    m1, m2 = cws.source.block("first"), cws.source.block("second")
    n1, n2 = cws.target.block("first"), cws.target.block("second")
    factors = [cws.source.split_coords(p) for p in points]
    first = _in_blocks(cws.ctx1.splittings_at, [c1 for c1, _ in factors])
    second = _in_blocks(cws.ctx2.splittings_at, [c2 for _, c2 in factors])
    for (_, s), (_, s1), (_, s2) in zip(_in_blocks(cws.ctx.splittings_at, points), first, second):
        J = s.jacobian
        blocks.add(float(np.max(np.abs(J[n1, m2]))) + float(np.max(np.abs(J[n2, m1]))))
        kernel.add(abs(s.vertical.shape[1] - s1.vertical.shape[1] - s2.vertical.shape[1]))
    return [blocks.record(), kernel.record()]
