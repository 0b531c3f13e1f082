"""Products of conformal submersions between warped products.

Given factor submersions phi1: M1 -> N1 and phi2: M2 -> N2 with dilations
lambda1, lambda2 and warps f (on M1), rho (on N1), the product map
(p1, p2) |-> (phi1(p1), phi2(p2)) between M1 x_f M2 and N1 x_rho N2 is
conformal exactly where the two candidate squared dilations agree:

    r1 = lambda1(p1)^2
    r2 = rho(phi1(p1))^2 lambda2(p2)^2 / f(p1)^2

When they agree, the product's squared dilation is r1; the verifiers below
measure this compatibility instead of assuming it, cross-check the product's
A tensor against the per-factor formulas (both denominator conventions), and
exercise the Riemannian reduction and the conformal rescaling that turns the
product into a Riemannian submersion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .connection import christoffel, lie_bracket
from .errors import ConfigurationError, ConformalityError, WarpPositivityError
from .fd import DiffEngine
from .manifold import ChartManifold, ScalarField, VectorField
from .report import TOLERANCES, CheckRecord, ResidualCheck, residual_scale
from .submersion import (
    SmoothMap,
    SubmersionContext,
    _gram_schmidt,
    _in_blocks,
    _warm_parts,
    fiber_mean_curvature,
    oneill_a,
    oneill_t,
    vertical_gradient,
)
from .warped import WarpedProduct, build_warped_product, lift

Array = np.ndarray


@dataclass(frozen=True)
class ConformalWarpedSubmersion:
    """phi1 x phi2 between warped products, with all contexts wired up.

    ctx runs on the warped ambients; ctx1 and ctx2 run on the factors with
    their intrinsic (unwarped) metrics, which is what the per-factor A
    tensors refer to. The product map is ctx.map.
    """

    phi1: SmoothMap
    phi2: SmoothMap
    lambda1: ScalarField
    lambda2: ScalarField
    source: WarpedProduct
    target: WarpedProduct
    ctx: SubmersionContext
    ctx1: SubmersionContext
    ctx2: SubmersionContext

    @property
    def warp(self) -> ScalarField:
        return self.source.warp

    @property
    def target_warp(self) -> ScalarField:
        return self.target.warp

    def lambda_sq_field(self) -> ScalarField:
        """Squared lift dilation: r1 where compatibility holds, error elsewhere."""

        def fn(coords):
            entry = compatibility(self, self.source.ambient.point(coords))
            if not entry.conformal_here:
                raise ConformalityError(
                    f"product not conformal at {coords}: r1={entry.r1:.6e}, r2={entry.r2:.6e}"
                )
            return entry.r1

        m1 = self.source.first.dim
        partials = None
        if self.lambda1.partials is not None:
            def partials(coords):
                out = np.zeros(self.source.ambient.dim)
                c1 = coords[:m1]
                out[:m1] = 2.0 * self.lambda1(c1) * np.asarray(self.lambda1.partials(c1), float)
                return out

        return ScalarField(fn, partials)


@dataclass(frozen=True)
class CompatibilityEntry:
    """The two candidate squared dilations at one point, and the verdict."""

    coords: Array
    r1: float
    r2: float
    conformal_here: bool
    lambda_sq: Optional[float]


@dataclass(frozen=True)
class CompatibilityReport:
    entries: tuple

    @property
    def all_conformal(self) -> bool:
        return all(e.conformal_here for e in self.entries)

    @property
    def fail_fraction(self) -> float:
        if not self.entries:
            return 0.0
        return sum(not e.conformal_here for e in self.entries) / len(self.entries)


def build_product_submersion(
    phi1: SmoothMap,
    lambda1: ScalarField,
    phi2: SmoothMap,
    lambda2: ScalarField,
    f: ScalarField,
    rho: ScalarField,
    engine: DiffEngine,
    check_points: Sequence[Array] = (),
) -> ConformalWarpedSubmersion:
    """Assemble the product map with block-diagonal Jacobian.

    check_points (on the source ambient) get positivity and maximal-rank
    spot checks up front; failures raise with the offending point.
    """
    source = build_warped_product(phi1.source, phi2.source, f)
    target = build_warped_product(phi1.target, phi2.target, rho)
    m1 = phi1.source.dim
    n1 = phi1.target.dim

    def fn(coords):
        return np.concatenate([phi1(coords[:m1]), phi2(coords[m1:])])

    def jac(coords):
        J = np.zeros((target.ambient.dim, source.ambient.dim))
        J[:n1, :m1] = phi1.jacobian_at(coords[:m1], engine)
        J[n1:, m1:] = phi2.jacobian_at(coords[m1:], engine)
        return J

    product = SmoothMap(source.ambient, target.ambient, fn, jac,
                        name=f"{phi1.name}x{phi2.name}")
    cws = ConformalWarpedSubmersion(
        phi1=phi1,
        phi2=phi2,
        lambda1=lambda1,
        lambda2=lambda2,
        source=source,
        target=target,
        ctx=SubmersionContext(product, engine),
        ctx1=SubmersionContext(phi1, engine),
        ctx2=SubmersionContext(phi2, engine),
    )
    for p in check_points:
        c1, c2 = source.split_coords(p)
        for field, value, label in (
            (lambda1, lambda1(c1), "lambda1"),
            (lambda2, lambda2(c2), "lambda2"),
            (f, f(c1), "source warp"),
            (rho, rho(phi1(c1)), "target warp"),
        ):
            if value <= 0.0:
                raise WarpPositivityError(f"{label} = {value} <= 0 at {p}")
        cws.ctx.splitting_at(p)  # raises RankError when rank-deficient
    return cws


def compatibility(cws: ConformalWarpedSubmersion, coords) -> CompatibilityEntry:
    """r1 vs r2 at one point; conformal iff |r1/r2 - 1| is at most the
    unscaled ``TOLERANCES["conformality/threshold"]``."""
    c1, c2 = cws.source.split_coords(coords)
    l1 = cws.lambda1(c1)
    l2 = cws.lambda2(c2)
    fv = cws.warp(c1)
    rv = cws.target_warp(cws.phi1(c1))
    r1 = l1 * l1
    r2 = (rv * rv) * (l2 * l2) / (fv * fv)
    conformal_here = abs(r1 / r2 - 1.0) <= TOLERANCES["conformality/threshold"]
    return CompatibilityEntry(coords, r1, r2, conformal_here, r1 if conformal_here else None)


def compatibility_report(
    cws: ConformalWarpedSubmersion, points: Sequence[Array]
) -> CompatibilityReport:
    return CompatibilityReport(tuple(compatibility(cws, p) for p in points))


def _conformal_points(cws: ConformalWarpedSubmersion, points: Sequence[Array]) -> list:
    """The points at which the two candidate dilations agree."""
    return [p for p in points if compatibility(cws, p).conformal_here]


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
    the reported residual is the worse of the two, and the convention gap is
    noted.
    """
    check = ResidualCheck("product-a-first-factor", tolerance)
    convention_gap = 0.0
    inv_l1_partials = None
    if cws.lambda1.partials is not None:
        def inv_l1_partials(c):
            v = cws.lambda1(c)
            return -2.0 * np.asarray(cws.lambda1.partials(c), float) / v**3
    inv_l1 = ScalarField(lambda c: 1.0 / cws.lambda1(c) ** 2, inv_l1_partials)
    inv_l1_lifted = lift(cws.source, "first", inv_l1)
    engine = cws.ctx.engine
    used = _conformal_points(cws, points)
    skipped = len(points) - len(used)
    _warm_parts(cws.ctx, used, vertical=False, columns=cws.source.first_axes())

    for p in used:
        c1, _ = cws.source.split_coords(p)
        g1 = cws.source.first.metric_at(c1)
        lam1_sq = cws.lambda1(c1) ** 2
        s1 = cws.ctx1.splitting_at(c1)
        s = cws.ctx.splitting_at(p)
        gamma = christoffel(cws.source.ambient, engine, p)

        for X1, Y1 in pairs1:
            Xl = lift(cws.source, "first", X1)
            Yl = lift(cws.source, "first", Y1)
            lhs = oneill_a(cws.ctx, Xl, Yl, p, gamma)

            inner = float(X1(c1) @ g1 @ Y1(c1))
            # convention A: everything on the first factor, then lifted
            br1 = lie_bracket(cws.source.first, engine, X1, Y1, c1)
            grad1 = vertical_gradient(cws.ctx1, inv_l1, c1)
            rhs_factor = 0.5 * (s1.vertical_part(br1) - lam1_sq * inner * grad1)
            rhs_a = np.concatenate([rhs_factor, np.zeros(cws.source.second.dim)])
            # convention B: bracket and vertical gradient on the product
            br = lie_bracket(cws.source.ambient, engine, Xl, Yl, p)
            grad_m = vertical_gradient(cws.ctx, inv_l1_lifted, p)
            rhs_b = 0.5 * (s.vertical_part(br) - lam1_sq * inner * grad_m)

            scale = residual_scale(lhs, rhs_a, rhs_b)
            check.add(max(np.linalg.norm(lhs - rhs_a), np.linalg.norm(lhs - rhs_b)), scale)
            convention_gap = max(convention_gap, np.linalg.norm(rhs_a - rhs_b) / scale)

    if skipped:
        check.note(f"skipped {skipped} non-conformal points")
    check.note(f"gradient-convention gap {convention_gap:.2e}")
    return check.record()


def second_factor_variant_fields(cws: ConformalWarpedSubmersion) -> dict[str, ScalarField]:
    """The two candidate scalar fields f^2 / lambda_i^2 on the product."""
    m1 = cws.source.first.dim
    f = cws.warp
    l1 = cws.lambda1
    l2 = cws.lambda2

    def fn_first(c):
        return f(c[:m1]) ** 2 / l1(c[:m1]) ** 2

    def fn_second(c):
        return f(c[:m1]) ** 2 / l2(c[m1:]) ** 2

    partials_first = None
    if f.partials is not None and l1.partials is not None:
        def partials_first(c):
            c1 = c[:m1]
            fv, lv = f(c1), l1(c1)
            df = np.asarray(f.partials(c1), float)
            dl = np.asarray(l1.partials(c1), float)
            out = np.zeros(len(c))
            out[:m1] = 2.0 * fv * df / lv**2 - 2.0 * fv**2 * dl / lv**3
            return out

    partials_second = None
    if f.partials is not None and l2.partials is not None:
        def partials_second(c):
            c1, c2 = c[:m1], c[m1:]
            fv, lv = f(c1), l2(c2)
            out = np.zeros(len(c))
            out[:m1] = 2.0 * fv * np.asarray(f.partials(c1), float) / lv**2
            out[m1:] = -2.0 * fv**2 * np.asarray(l2.partials(c2), float) / lv**3
            return out

    return {
        "first-factor-denominator": ScalarField(fn_first, partials_first),
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
    per-variant residuals for programmatic adjudication.
    """
    check = ResidualCheck("product-a-second-factor", tolerance)
    variants = second_factor_variant_fields(cws)
    engine = cws.ctx.engine
    worst = {name: 0.0 for name in variants}
    used = _conformal_points(cws, points)
    skipped = len(points) - len(used)
    _warm_parts(cws.ctx, used, vertical=False, columns=cws.source.second_axes())
    _warm_parts(cws.ctx2, [cws.source.split_coords(p)[1] for p in used], vertical=False)

    for p in used:
        c1, c2 = cws.source.split_coords(p)
        g2 = cws.source.second.metric_at(c2)
        lam2_sq = cws.lambda2(c2) ** 2
        gamma = christoffel(cws.source.ambient, engine, p)
        gamma2 = christoffel(cws.source.second, engine, c2)

        for X2, Y2 in pairs2:
            Xl = lift(cws.source, "second", X2)
            Yl = lift(cws.source, "second", Y2)
            lhs = oneill_a(cws.ctx, Xl, Yl, p, gamma)

            a2_xy = oneill_a(cws.ctx2, X2, Y2, c2, gamma2)
            a2_yx = oneill_a(cws.ctx2, Y2, X2, c2, gamma2)
            skew = np.concatenate([np.zeros(cws.source.first.dim), a2_xy - a2_yx])
            inner = float(X2(c2) @ g2 @ Y2(c2))

            for name, field in variants.items():
                grad_v = vertical_gradient(cws.ctx, field, p)
                rhs = 0.5 * (skew - lam2_sq * inner * grad_v)
                worst[name] = max(
                    worst[name], np.linalg.norm(lhs - rhs) / residual_scale(lhs, rhs)
                )

    # the check passes iff the best variant passes
    for _ in used:
        check.add(min(worst.values()))
    passing = sorted(name for name, r in worst.items() if r <= tolerance)
    check.note("passing variant(s): " + (", ".join(passing) if passing else "none"))
    for name in sorted(worst):
        check.note(f"{name} residual {worst[name]:.3e}")
    if skipped:
        check.note(f"skipped {skipped} non-conformal points")
    return check.record(), worst


def verify_riemannian_reduction(
    cws: ConformalWarpedSubmersion,
    points: Sequence[Array],
    tolerance: float = TOLERANCES["riemannian-reduction"],
) -> CheckRecord:
    """With lambda1 = lambda2 = 1 and rho o phi1 = f, the product map is a
    Riemannian submersion: squared dilation 1 and horizontal lengths kept."""
    for p in points:
        c1, c2 = cws.source.split_coords(p)
        if abs(cws.lambda1(c1) - 1.0) > 1e-12 or abs(cws.lambda2(c2) - 1.0) > 1e-12:
            raise ConfigurationError(
                f"reduction requires unit dilations; lambda1={cws.lambda1(c1)}, "
                f"lambda2={cws.lambda2(c2)} at {p}"
            )
        fv = cws.warp(c1)
        rv = cws.target_warp(cws.phi1(c1))
        if abs(rv - fv) > 1e-9 * (1.0 + abs(fv)):
            raise ConfigurationError(
                f"reduction requires target warp to pull back to the source warp; "
                f"got {rv} vs {fv} at {p}"
            )
    check = ResidualCheck("riemannian-reduction", tolerance)
    for p in points:
        d = cws.ctx.dilation(p)
        # length preservation over the horizontal basis is |Q - I| in disguise
        check.add(max(abs(d.lambda_sq - 1.0), d.anisotropy - 1.0))
    return check.record()


def rescaled_context(cws: ConformalWarpedSubmersion, sigma_offset: float = 0.0) -> SubmersionContext:
    """Context of the same map with source metric lambda^2 e^{-2 offset} g.

    With offset 0 the rescaled map is a Riemannian submersion; a nonzero
    offset multiplies every squared dilation by e^{2 offset}.
    """
    lam_field = cws.lambda_sq_field()
    factor = float(np.exp(-2.0 * sigma_offset))
    base = cws.source.ambient

    def metric(coords):
        return (factor * lam_field(coords)) * base.metric_at(coords, check=False)

    rescaled = ChartManifold(base.dim, base.lower, base.upper, metric,
                             name=f"{base.name}-rescaled")
    return replace(cws.ctx, map=replace(cws.ctx.map, source=rescaled))


def verify_rescaled_riemannian(
    cws: ConformalWarpedSubmersion,
    points: Sequence[Array],
    tolerance: float = TOLERANCES["rescale-to-riemannian"],
    probe_offset: float = 0.1,
) -> list[CheckRecord]:
    """Rescaling by the squared dilation yields a Riemannian submersion, and
    the conformal factor achieving that is unique.

    The uniqueness probe perturbs the log factor by probe_offset and passes
    when the perturbed dilation is detected away from 1 (expected-fail) and
    matches e^{2 offset}.
    """
    main = ResidualCheck("rescale-to-riemannian", tolerance)
    ctx0 = rescaled_context(cws, 0.0)
    for _, d in _in_blocks(ctx0.dilations, points):
        main.add(max(abs(d.lambda_sq - 1.0), d.anisotropy - 1.0))

    probe_detect = ResidualCheck("rescale-uniqueness-probe", 100.0 * tolerance,
                                 expected_fail=True)
    probe_value = ResidualCheck("rescale-probe-dilation", tolerance)
    expected = float(np.exp(2.0 * probe_offset))
    ctx1 = rescaled_context(cws, probe_offset)
    probes = [d for _, d in _in_blocks(ctx1.dilations, points)]
    for d in probes:
        probe_detect.add(abs(d.lambda_sq - 1.0))
        probe_value.add(abs(d.lambda_sq - expected), 1.0 + expected)
    probe_detect.note(f"offset {probe_offset} perturbs squared dilation to {expected:.6f}")
    # log-factor gap |tau - sigma| recovered from the probe's dilation
    gaps = [abs(0.5 * np.log(d.lambda_sq)) for d in probes]
    probe_value.note(f"recovered log-factor offset {max(gaps):.6f}")
    return [main.record(), probe_detect.record(), probe_value.record()]


def factor_vertical_bases(
    cws: ConformalWarpedSubmersion, coords
) -> tuple[Array, Array]:
    """Lifted, ambient-metric-orthonormal bases of the two vertical blocks at coords."""
    c1, c2 = cws.source.split_coords(coords)
    m1, m2 = cws.source.first.dim, cws.source.second.dim
    s1 = cws.ctx1.splitting_at(c1)
    s2 = cws.ctx2.splitting_at(c2)
    g = cws.source.ambient.metric_at(coords)

    def embed(basis: Array, offset: int, total: int) -> Array:
        out = np.zeros((total, basis.shape[1]))
        out[offset : offset + basis.shape[0], :] = basis
        return out

    v1 = _gram_schmidt(embed(s1.vertical, 0, m1 + m2), g)
    v2 = _gram_schmidt(embed(s2.vertical, m1, m1 + m2), g)
    return v1, v2


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
    whether the fibers are mixed totally geodesic.
    """
    h1_check = ResidualCheck("fiber-minimality-first", tolerance)
    h2_check = ResidualCheck("fiber-minimality-second", tolerance)
    mixed_check = ResidualCheck("mixed-fiber-geodesic", tolerance)
    _warm_parts(cws.ctx, points, vertical=True)

    for p in points:
        v1, v2 = factor_vertical_bases(cws, p)
        gamma = christoffel(cws.source.ambient, cws.ctx.engine, p)
        h1 = fiber_mean_curvature(cws.ctx, v1, p, gamma)
        h2 = fiber_mean_curvature(cws.ctx, v2, p, gamma)
        h1_check.add(np.linalg.norm(h1), residual_scale(h1))
        h2_check.add(np.linalg.norm(h2), residual_scale(h2))

        for a in range(v1.shape[1]):
            for b in range(v2.shape[1]):
                e1 = VectorField.constant(v1[:, a])
                e2 = VectorField.constant(v2[:, b])
                t_mixed = oneill_t(cws.ctx, e1, e2, p, gamma)
                mixed_check.add(np.linalg.norm(t_mixed), residual_scale(t_mixed))

    records = []
    for check, expect in ((h1_check, expect_first_minimal), (h2_check, expect_second_minimal)):
        check.expected_fail = not expect
        check.note("expected " + ("minimal" if expect else "non-minimal"))
        records.append(check.record())
    records.append(mixed_check.record())
    return records


def verify_kernel_product(
    cws: ConformalWarpedSubmersion, points: Sequence[Array]
) -> list[CheckRecord]:
    """Jacobian cross blocks are exactly zero and kernel dimensions add up."""
    blocks = ResidualCheck("jacobian-blocks", TOLERANCES["jacobian-blocks"])
    kernel = ResidualCheck("kernel-product", TOLERANCES["kernel-product"])
    m1 = cws.source.first.dim
    n1 = cws.target.first.dim
    factors = [cws.source.split_coords(p) for p in points]
    first = _in_blocks(cws.ctx1.splittings_at, [c1 for c1, _ in factors])
    second = _in_blocks(cws.ctx2.splittings_at, [c2 for _, c2 in factors])
    for (_, s), (_, s1), (_, s2) in zip(_in_blocks(cws.ctx.splittings_at, points), first, second):
        J = s.jacobian
        blocks.add(float(np.max(np.abs(J[:n1, m1:]))) + float(np.max(np.abs(J[n1:, :m1]))))
        kernel.add(abs(s.vertical.shape[1] - s1.vertical.shape[1] - s2.vertical.shape[1]))
    return [blocks.record(), kernel.record()]
