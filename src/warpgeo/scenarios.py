"""Built-in scenario catalog.

Every scenario assembles concrete manifolds, warps and maps, samples a
bounded sub-box of the domain deterministically, and runs the verification
suites that apply to it. The catalog order is stable and part of the public
surface; ``expected`` entries document the verdicts a default run must
produce (including deliberate failures of the negative scenarios).

A scenario that raises a ``GeometryError`` still yields a report: every
check it provides fails with ``n_samples = 0`` and a note naming the error,
and ``run_all`` goes on with the next scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .conformal_warped import (
    ConformalWarpedSubmersion,
    build_product_submersion,
    compatibility_report,
    fiber_geometry_report,
    verify_first_factor_a_identity,
    verify_kernel_product,
    verify_riemannian_reduction,
    verify_rescaled_riemannian,
    verify_second_factor_a_identity,
)
from .errors import ConfigurationError, GeometryError
from .fd import DiffEngine
from .fields import vector_field_library
from .manifold import ChartManifold, ScalarField, evaluation_scope
from .report import TOLERANCES, CheckRecord, ResidualCheck, RunConfig, VerificationReport
from .sampling import sample_points
from .submersion import SmoothMap, SubmersionContext, _in_blocks
from .suites import (
    a_crossval_records,
    dilation_records,
    engine_health_records,
    fd_consistency_record,
    horizontal_pairs,
    splitting_records,
    t_umbilicity_records,
)
from .warped import (
    build_warped_product,
    projection_map,
    verify_leaf_fiber_geometry,
    verify_metric_blocks,
    verify_warped_connection,
)

Array = np.ndarray

@dataclass(frozen=True)
class Scenario:
    """One catalog entry. ``builder`` returns the scenario's objects, whose
    ``"ctx"`` map has the sampled chart as its source; ``runner`` returns the
    records that ``run_scenario`` puts between the fd-consistency and
    engine-health checks every scenario shares."""

    scenario_id: str
    description: str
    expected: dict
    provides: tuple
    builder: Callable[[DiffEngine], dict]
    runner: Callable[..., list]


def _exp_field(rate: float, axis: int, dim: int) -> ScalarField:
    """exp(rate * x_axis) with analytic partials."""

    def fn(c):
        return float(np.exp(rate * c[axis]))

    def partials(c):
        out = np.zeros(dim)
        out[axis] = rate * np.exp(rate * c[axis])
        return out

    return ScalarField(fn, partials)


# ---------------------------------------------------------------------------
# scenario builders: return every object the runner (and tests) need
# ---------------------------------------------------------------------------


def _build_warped_line(engine: DiffEngine) -> dict:
    line_t = ChartManifold.euclidean(1, [-2.0], [2.0], name="t-line")
    line_x = ChartManifold.euclidean(1, [-2.0], [2.0], name="x-line")
    warp = _exp_field(1.0, 0, 1)
    W = build_warped_product(line_t, line_x, warp, name="warped-line")
    ctx = SubmersionContext(projection_map(W, "first"), engine)
    return {
        "warped": W,
        "ctx": ctx,
        "sample_lower": np.array([-0.8, -0.8]),
        "sample_upper": np.array([0.8, 0.8]),
        "expected_lambda_sq": lambda c: 1.0,
        "scalar_checks": [(line_t, warp)],
        "map_checks": [ctx.map],
    }


def _build_sphere_warped(engine: DiffEngine) -> dict:
    theta = ChartManifold.euclidean(1, [0.0], [np.pi], name="colatitude")
    phi = ChartManifold.euclidean(1, [0.0], [2.0 * np.pi], name="longitude")
    warp = ScalarField(
        lambda c: float(np.sin(c[0])), lambda c: np.array([np.cos(c[0])])
    )
    W = build_warped_product(theta, phi, warp, name="sphere-chart")
    ctx = SubmersionContext(projection_map(W, "first"), engine)
    return {
        "warped": W,
        "ctx": ctx,
        "sample_lower": np.array([0.5, 0.5]),
        "sample_upper": np.array([2.6, 5.5]),
        "expected_lambda_sq": lambda c: 1.0,
        "scalar_checks": [(theta, warp)],
        "map_checks": [ctx.map],
    }


def _build_product_plain(engine: DiffEngine) -> dict:
    plane = ChartManifold.euclidean(2, [-2.0, -2.0], [2.0, 2.0], name="plane")
    line = ChartManifold.euclidean(1, [-2.0], [2.0], name="line")
    warp = ScalarField.constant(1.0)
    W = build_warped_product(plane, line, warp, name="plain-product")
    ctx = SubmersionContext(projection_map(W, "first"), engine)
    return {
        "warped": W,
        "ctx": ctx,
        "sample_lower": np.array([-0.8, -0.8, -0.8]),
        "sample_upper": np.array([0.8, 0.8, 0.8]),
        "expected_lambda_sq": lambda c: 1.0,
        "scalar_checks": [(plane, warp)],
        "map_checks": [ctx.map],
    }


def spiral_map(source: ChartManifold, target: ChartManifold) -> SmoothMap:
    """(x1..x4) |-> (e^{x3} sin x4, e^{x3} cos x4), with analytic Jacobian."""

    def fn(c):
        e = np.exp(c[2])
        return np.array([e * np.sin(c[3]), e * np.cos(c[3])])

    def jac(c):
        e = np.exp(c[2])
        s, co = np.sin(c[3]), np.cos(c[3])
        return np.array([[0.0, 0.0, e * s, e * co], [0.0, 0.0, e * co, -e * s]])

    return SmoothMap(source, target, fn, jac, name="exp-spiral")


def _build_exp_spiral(engine: DiffEngine) -> dict:
    source = ChartManifold.euclidean(4, [-2.0] * 4, [2.0] * 4, name="R4")
    target = ChartManifold.euclidean(2, [-9.0] * 2, [9.0] * 2, name="R2")
    smap = spiral_map(source, target)
    fd_map = SmoothMap(source, target, smap.fn, None, name="exp-spiral-fd")
    return {
        "ctx": SubmersionContext(smap, engine),
        "ctx_fd": SubmersionContext(fd_map, engine),
        "sample_lower": np.array([-0.8] * 4),
        "sample_upper": np.array([0.8] * 4),
        "expected_lambda_sq": lambda c: float(np.exp(2.0 * c[2])),
        "scalar_checks": [],
        "map_checks": [smap],
    }


def _build_cws_constant(engine: DiffEngine) -> dict:
    M1 = ChartManifold.euclidean(2, [-1.5, -1.5], [1.5, 1.5], name="M1")
    N1 = ChartManifold.euclidean(1, [-3.5], [3.5], name="N1")
    M2 = ChartManifold.euclidean(2, [-1.5, -1.5], [1.5, 1.5], name="M2")
    N2 = ChartManifold.euclidean(1, [-3.5], [3.5], name="N2")
    double = lambda c: np.array([2.0 * c[0]])
    double_jac = lambda c: np.array([[2.0, 0.0]])
    phi1 = SmoothMap(M1, N1, double, double_jac, name="double-x")
    phi2 = SmoothMap(M2, N2, double, double_jac, name="double-u")
    cws = build_product_submersion(
        phi1,
        ScalarField.constant(2.0),
        phi2,
        ScalarField.constant(2.0),
        _exp_field(2.0, 0, 2),
        _exp_field(1.0, 0, 1),
        engine,
    )
    return {
        "cws": cws,
        "ctx": cws.ctx,
        "sample_lower": np.array([-0.6] * 4),
        "sample_upper": np.array([0.6] * 4),
        "expected_lambda_sq": lambda c: 4.0,
        "scalar_checks": [
            (M1, cws.lambda1),
            (M2, cws.lambda2),
            (M1, cws.warp),
            (N1, cws.target_warp),
        ],
        "map_checks": [phi1, phi2, cws.ctx.map],
    }


def _build_cws_incompatible(engine: DiffEngine) -> dict:
    objs = _build_cws_constant(engine)
    base = objs["cws"]
    cws = build_product_submersion(
        base.phi1,
        base.lambda1,
        base.phi2,
        base.lambda2,
        base.warp,
        ScalarField.constant(1.0),
        engine,
    )
    return {
        "cws": cws,
        "ctx": cws.ctx,
        "sample_lower": np.array([0.1, -0.6, -0.6, -0.6]),
        "sample_upper": np.array([0.6, 0.6, 0.6, 0.6]),
        "expected_lambda_sq": None,
        "scalar_checks": [(cws.source.first, cws.warp)],
        "map_checks": [cws.ctx.map],
    }


def _build_cws_variable(engine: DiffEngine) -> dict:
    M1 = ChartManifold.euclidean(2, [-1.5, -1.5], [1.5, 1.5], name="M1")
    N1 = ChartManifold.euclidean(1, [-8.0], [8.0], name="N1")
    M2 = ChartManifold.euclidean(2, [-1.5, -1.5], [1.5, 1.5], name="M2")
    N2 = ChartManifold.euclidean(1, [-2.0], [2.0], name="N2")
    phi1 = SmoothMap(
        M1,
        N1,
        lambda c: np.array([c[0] * np.exp(c[1])]),
        lambda c: np.array([[np.exp(c[1]), c[0] * np.exp(c[1])]]),
        name="shear-exp",
    )
    phi2 = SmoothMap(
        M2, N2, lambda c: np.array([c[0]]), lambda c: np.array([[1.0, 0.0]]),
        name="first-coord",
    )
    lam1 = ScalarField(
        lambda c: float(np.exp(c[1]) * np.sqrt(1.0 + c[0] ** 2)),
        lambda c: np.array(
            [
                np.exp(c[1]) * c[0] / np.sqrt(1.0 + c[0] ** 2),
                np.exp(c[1]) * np.sqrt(1.0 + c[0] ** 2),
            ]
        ),
    )
    warp = ScalarField(
        lambda c: float(np.exp(-c[1]) / np.sqrt(1.0 + c[0] ** 2)),
        lambda c: np.array(
            [
                -c[0] * np.exp(-c[1]) * (1.0 + c[0] ** 2) ** -1.5,
                -np.exp(-c[1]) / np.sqrt(1.0 + c[0] ** 2),
            ]
        ),
    )
    cws = build_product_submersion(
        phi1, lam1, phi2, ScalarField.constant(1.0), warp, ScalarField.constant(1.0), engine
    )
    return {
        "cws": cws,
        "ctx": cws.ctx,
        "sample_lower": np.array([0.1, 0.2, -0.6, -0.6]),
        "sample_upper": np.array([0.6, 0.8, 0.6, 0.6]),
        "expected_lambda_sq": lambda c: float(np.exp(2.0 * c[1]) * (1.0 + c[0] ** 2)),
        "scalar_checks": [(M1, lam1), (M1, warp)],
        "map_checks": [phi1, phi2, cws.ctx.map],
    }


def _build_cws_riemannian(engine: DiffEngine) -> dict:
    M1 = ChartManifold.euclidean(2, [-1.5, -1.5], [1.5, 1.5], name="M1")
    N1 = ChartManifold.euclidean(1, [-2.0], [2.0], name="N1")
    M2 = ChartManifold.euclidean(2, [-1.5, -1.5], [1.5, 1.5], name="M2")
    N2 = ChartManifold.euclidean(1, [-2.0], [2.0], name="N2")
    first_coord = lambda c: np.array([c[0]])
    first_jac = lambda c: np.array([[1.0, 0.0]])
    phi1 = SmoothMap(M1, N1, first_coord, first_jac, name="first-coord")
    phi2 = SmoothMap(M2, N2, first_coord, first_jac, name="first-coord")
    cws = build_product_submersion(
        phi1,
        ScalarField.constant(1.0),
        phi2,
        ScalarField.constant(1.0),
        _exp_field(1.0, 0, 2),
        _exp_field(1.0, 0, 1),
        engine,
    )
    return {
        "cws": cws,
        "ctx": cws.ctx,
        "sample_lower": np.array([-0.6] * 4),
        "sample_upper": np.array([0.6] * 4),
        "expected_lambda_sq": lambda c: 1.0,
        "scalar_checks": [(M1, cws.warp), (N1, cws.target_warp)],
        "map_checks": [phi1, phi2, cws.ctx.map],
    }


def _build_cws_mixed_local(engine: DiffEngine) -> dict:
    M1 = ChartManifold.euclidean(4, [-2.0] * 4, [2.0] * 4, name="M1")
    N1 = ChartManifold.euclidean(2, [-9.0] * 2, [9.0] * 2, name="N1")
    M2 = ChartManifold.euclidean(1, [-2.0], [2.0], name="M2")
    N2 = ChartManifold.euclidean(1, [-2.0], [2.0], name="N2")
    phi1 = spiral_map(M1, N1)
    phi2 = SmoothMap(M2, N2, lambda c: c, lambda c: np.eye(1), name="identity")
    cws = build_product_submersion(
        phi1,
        _exp_field(1.0, 2, 4),
        phi2,
        ScalarField.constant(1.0),
        ScalarField.constant(1.0),
        ScalarField.constant(1.0),
        engine,
    )
    return {
        "cws": cws,
        "ctx": cws.ctx,
        "sample_lower": np.array([-0.6, -0.6, 0.1, -0.6, -0.6]),
        "sample_upper": np.array([0.6, 0.6, 0.6, 0.6, 0.6]),
        "expected_lambda_sq": None,
        "scalar_checks": [(M1, cws.lambda1)],
        "map_checks": [phi1, cws.ctx.map],
    }


# ---------------------------------------------------------------------------
# suite assembly
# ---------------------------------------------------------------------------


def _points(objs: dict, config: RunConfig):
    margin = 4.0 * config.fd_step
    coords = sample_points(
        objs["sample_lower"], objs["sample_upper"], config.samples, config.seed, margin
    )
    return [objs["ctx"].map.source.point(c) for c in coords]


def _factor_pairs(M: ChartManifold, rng, n_pairs: int):
    fields = vector_field_library(M, rng, 2 * n_pairs)
    return [(fields[2 * i], fields[2 * i + 1]) for i in range(n_pairs)]


def _points_by_manifold(objs: dict, points) -> dict:
    """Spot-check points for fd-consistency, keyed by manifold identity.

    The points are sample points of the sampled chart, ``ctx.map.source``.
    Ambient sample points are split into factor points (and pushed through
    the first factor map) so fields living on factors get checked too.
    """
    spot = points[: min(3, len(points))]
    source = objs["ctx"].map.source
    out: dict = {id(source): spot}
    cws = objs.get("cws")
    W = objs.get("warped") or (cws.source if cws is not None else None)
    if W is None or source is not W.ambient:
        return out
    for p in spot:
        c1, c2 = W.split_coords(p)
        out.setdefault(id(W.first), []).append(c1)
        out.setdefault(id(W.second), []).append(c2)
        if cws is not None:
            image = cws.phi1(c1)
            if cws.target.first.contains(image):
                out.setdefault(id(cws.target.first), []).append(cws.target.first.point(image))
    return out


def _run_warped_scenario(
    objs: dict, config: RunConfig, engine: DiffEngine, points, rng, expected: dict
) -> list[CheckRecord]:
    W = objs["warped"]
    ctx = objs["ctx"]
    tol = config.tolerance
    pairs1 = _factor_pairs(W.first, rng, 3)
    pairs2 = _factor_pairs(W.second, rng, 3)
    records = [verify_metric_blocks(W, points)]
    records += verify_warped_connection(
        W, engine, points, pairs1, pairs2, tolerance=tol("warped-conn-first-pair")
    )
    records += verify_leaf_fiber_geometry(
        W,
        engine,
        points,
        leaf_tolerance=tol("leaf-totally-geodesic"),
        fiber_tolerance=tol("fiber-umbilical"),
    )
    records.append(splitting_records(ctx, points, rng, tolerance=tol("split-decomposition")))
    records += dilation_records(
        ctx,
        points,
        objs["expected_lambda_sq"],
        conformality_tol=tol("conformality"),
        value_tol=tol("dilation-value"),
    )
    records.append(t_umbilicity_records(ctx, points, rng, tolerance=tol("t-umbilical")))
    records += a_crossval_records(ctx, points, rng, tolerance=tol("a-vs-bracket-formula"))
    return records


_WARPED_PROVIDES = (
    "fd-consistency",
    "metric-blocks",
    "warped-conn-first-pair",
    "warped-conn-mixed",
    "warped-conn-fiber-normal",
    "warped-conn-fiber-tangent",
    "leaf-totally-geodesic",
    "fiber-umbilical",
    "fiber-mean-curvature-warp",
    "split-decomposition",
    "conformality",
    "dilation-value",
    "t-umbilical",
    "a-vs-bracket-formula",
    "a-extension-independence",
    "torsion-free",
    "metric-compatibility",
)


def _run_exp_spiral(
    objs: dict, config: RunConfig, engine: DiffEngine, points, rng, expected: dict
) -> list[CheckRecord]:
    ctx = objs["ctx"]
    ctx_fd = objs["ctx_fd"]
    tol = config.tolerance
    records = [splitting_records(ctx, points, rng, tolerance=tol("split-decomposition"))]
    records += dilation_records(
        ctx,
        points,
        objs["expected_lambda_sq"],
        conformality_tol=tol("conformality/exp-spiral-r4"),
        value_tol=tol("dilation-value"),
    )
    records += dilation_records(
        ctx_fd,
        points,
        objs["expected_lambda_sq"],
        conformality_tol=tol("fd-conformality"),
        value_tol=tol("fd-dilation-value"),
        check_prefix="fd-",
    )
    records += a_crossval_records(ctx, points, rng, tolerance=tol("a-vs-bracket-formula"))
    return records


_SPIRAL_PROVIDES = (
    "fd-consistency",
    "split-decomposition",
    "conformality",
    "dilation-value",
    "fd-conformality",
    "fd-dilation-value",
    "a-vs-bracket-formula",
    "a-extension-independence",
    "torsion-free",
    "metric-compatibility",
)


def _compatibility_records(
    cws: ConformalWarpedSubmersion, points, config: RunConfig, expect_conformal: bool
) -> list[CheckRecord]:
    report = compatibility_report(cws, points)
    if expect_conformal:
        check = ResidualCheck("dilation-compatibility", config.tolerance("dilation-compatibility"))
        agree = ResidualCheck("compatibility-vs-dilation",
                              config.tolerance("compatibility-vs-dilation"))
        for entry, (_, d) in zip(report.entries, _in_blocks(cws.ctx.dilations, points)):
            check.add(abs(entry.r1 / entry.r2 - 1.0))
            agree.add(abs(d.lambda_sq - entry.r1), 1.0 + abs(entry.r1))
        return [check.record(), agree.record()]
    fails = sum(1 for e in report.entries if not e.conformal_here)
    worst = max(abs(e.r1 / e.r2 - 1.0) for e in report.entries)
    return [
        CheckRecord(
            check_id="dilation-compatibility",
            n_samples=len(points),
            max_residual=worst,
            tolerance=TOLERANCES["conformality/threshold"],
            passed=fails >= int(np.ceil(0.9 * len(points))),
            expected_fail=True,
            notes=f"non-conformal at {fails}/{len(points)} points (needs >= 90%)",
        )
    ]


def _run_cws_scenario(
    objs: dict, config: RunConfig, engine: DiffEngine, points, rng, expected: dict
) -> list[CheckRecord]:
    cws: ConformalWarpedSubmersion = objs["cws"]
    conformal = expected["conformal"]
    tol = config.tolerance

    records = [verify_metric_blocks(cws.source, points)]
    records += verify_kernel_product(cws, points)
    records += _compatibility_records(cws, points, config, conformal)
    records.append(splitting_records(cws.ctx, points, rng, tolerance=tol("split-decomposition")))
    records += dilation_records(
        cws.ctx,
        points,
        objs["expected_lambda_sq"],
        conformality_tol=tol("conformality"),
        value_tol=tol("dilation-value"),
        expect_conformal=conformal,
    )
    if conformal:
        records += a_crossval_records(cws.ctx, points, rng, tolerance=tol("a-vs-bracket-formula"))
        pairs1 = horizontal_pairs(cws.ctx1, rng, 2)
        pairs2 = horizontal_pairs(cws.ctx2, rng, 2)
        records.append(verify_first_factor_a_identity(
            cws, points, pairs1, tolerance=tol("product-a-first-factor")
        ))
        item2, _ = verify_second_factor_a_identity(
            cws, points, pairs2, tolerance=tol("product-a-second-factor")
        )
        records.append(item2)
        if expected.get("riemannian"):
            records.append(
                verify_riemannian_reduction(cws, points, tolerance=tol("riemannian-reduction"))
            )
        records += verify_rescaled_riemannian(
            cws, points, tolerance=tol("rescale-to-riemannian"),
            probe_tolerance=tol("rescale-uniqueness-probe"),
        )
    records += fiber_geometry_report(
        cws,
        points,
        expect_first_minimal=expected["first_factor_minimal"],
        expect_second_minimal=expected["second_factor_minimal"],
        tolerance=tol("fiber-minimality-first"),
    )
    return records


def _cws_provides(conformal: bool, riemannian: bool = False) -> tuple:
    ids = [
        "fd-consistency",
        "metric-blocks",
        "jacobian-blocks",
        "kernel-product",
    ]
    if conformal:
        ids += ["dilation-compatibility", "compatibility-vs-dilation"]
    else:
        ids += ["dilation-compatibility"]
    ids += ["split-decomposition", "conformality"]
    if conformal:
        ids += [
            "dilation-value",
            "a-vs-bracket-formula",
            "a-extension-independence",
            "product-a-first-factor",
            "product-a-second-factor",
        ]
        if riemannian:
            ids.append("riemannian-reduction")
        ids += ["rescale-to-riemannian", "rescale-uniqueness-probe", "rescale-probe-dilation"]
    ids += [
        "fiber-minimality-first",
        "fiber-minimality-second",
        "mixed-fiber-geodesic",
        "torsion-free",
        "metric-compatibility",
    ]
    return tuple(ids)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

_SCENARIOS: list[Scenario] = [
    Scenario(
        "warped-line",
        "line x_exp(t) line: block metric, connection identities, leaf/fiber "
        "geometry, first-factor projection as a Riemannian submersion",
        {
            "conformal": True,
            "dilation_sq": "1",
            "first_factor_minimal": None,
            "second_factor_minimal": None,
        },
        _WARPED_PROVIDES,
        _build_warped_line,
        _run_warped_scenario,
    ),
    Scenario(
        "sphere-warped",
        "round-sphere chart (0,pi) x_sin(theta) (0,2pi): warped-product "
        "identities on a curved example",
        {
            "conformal": True,
            "dilation_sq": "1",
            "first_factor_minimal": None,
            "second_factor_minimal": None,
        },
        _WARPED_PROVIDES,
        _build_sphere_warped,
        _run_warped_scenario,
    ),
    Scenario(
        "product-plain",
        "plane x line with unit warp: the plain Riemannian product limit",
        {
            "conformal": True,
            "dilation_sq": "1",
            "first_factor_minimal": None,
            "second_factor_minimal": None,
        },
        _WARPED_PROVIDES,
        _build_product_plain,
        _run_warped_scenario,
    ),
    Scenario(
        "exp-spiral-r4",
        "R4 -> R2, (x1..x4) |-> (e^{x3} sin x4, e^{x3} cos x4): conformal "
        "submersion with squared dilation e^{2 x3}; analytic and FD Jacobians",
        {
            "conformal": True,
            "dilation_sq": "exp(2*x3)",
            "first_factor_minimal": None,
            "second_factor_minimal": None,
        },
        _SPIRAL_PROVIDES,
        _build_exp_spiral,
        _run_exp_spiral,
    ),
    Scenario(
        "cws-constant-dilation",
        "product of two doubling submersions with warps e^{2x} / e^{s}: "
        "conformal with squared dilation 4 everywhere",
        {
            "conformal": True,
            "dilation_sq": "4",
            "second_factor_variant": "both",
            "riemannian": False,
            "first_factor_minimal": True,
            "second_factor_minimal": False,
        },
        _cws_provides(True),
        _build_cws_constant,
        _run_cws_scenario,
    ),
    Scenario(
        "cws-incompatible",
        "same factors but unit target warp: the two candidate dilations "
        "disagree, conformality must fail at >= 90% of samples",
        {
            "conformal": False,
            "dilation_sq": None,
            "first_factor_minimal": True,
            "second_factor_minimal": False,
        },
        _cws_provides(False),
        _build_cws_incompatible,
        _run_cws_scenario,
    ),
    Scenario(
        "cws-variable-dilation",
        "shear-exponential first factor with non-constant dilation "
        "e^{y} sqrt(1+x^2): discriminates the two second-factor gradient "
        "denominators",
        {
            "conformal": True,
            "dilation_sq": "exp(2*y)*(1+x^2)",
            "second_factor_variant": "second-factor-denominator",
            "riemannian": False,
            "first_factor_minimal": False,
            "second_factor_minimal": False,
        },
        _cws_provides(True),
        _build_cws_variable,
        _run_cws_scenario,
    ),
    Scenario(
        "cws-riemannian",
        "unit dilations with target warp pulling back to the source warp: "
        "the product map is a Riemannian submersion",
        {
            "conformal": True,
            "dilation_sq": "1",
            "second_factor_variant": "both",
            "riemannian": True,
            "first_factor_minimal": True,
            "second_factor_minimal": False,
        },
        _cws_provides(True, riemannian=True),
        _build_cws_riemannian,
        _run_cws_scenario,
    ),
    Scenario(
        "cws-mixed-local",
        "exp-spiral first factor with unit warps: candidate dilations "
        "e^{2 x3} vs 1 agree only on the x3 = 0 slice, so conformality "
        "fails on the sampled box",
        {
            "conformal": False,
            "dilation_sq": None,
            "first_factor_minimal": True,
            "second_factor_minimal": True,
        },
        _cws_provides(False),
        _build_cws_mixed_local,
        _run_cws_scenario,
    ),
]

_BY_ID = {s.scenario_id: s for s in _SCENARIOS}


def list_scenarios(matching: str = "") -> list[Scenario]:
    """The catalog in its stable documented order; an empty filter returns
    everything, otherwise ids containing the substring."""
    if not matching:
        return list(_SCENARIOS)
    return [s for s in _SCENARIOS if matching in s.scenario_id]


def build_objects(scenario_id: str, engine: DiffEngine) -> dict:
    """Construct a scenario's manifolds, maps and sample box (for tests)."""
    if scenario_id not in _BY_ID:
        raise ConfigurationError(f"unknown scenario {scenario_id!r}")
    return _BY_ID[scenario_id].builder(engine)


def _run_suites(scenario: Scenario, config: RunConfig) -> list[CheckRecord]:
    index = next(i for i, s in enumerate(_SCENARIOS) if s.scenario_id == scenario.scenario_id)
    rng = np.random.default_rng([config.seed, index])
    engine = config.engine()
    objs = scenario.builder(engine)
    points = _points(objs, config)
    with evaluation_scope():
        records = [
            fd_consistency_record(
                engine,
                objs["scalar_checks"],
                objs["map_checks"],
                _points_by_manifold(objs, points),
                tolerance=config.tolerance("fd-consistency"),
            )
        ]
        records += scenario.runner(objs, config, engine, points, rng, scenario.expected)
        records += engine_health_records(
            objs["ctx"].map.source,
            engine,
            points,
            rng,
            torsion_tol=config.tolerance("torsion-free"),
            compat_tol=config.tolerance("metric-compatibility"),
        )
    return records


def _gate(scenario: Scenario, check_id: str, config: RunConfig) -> float:
    """The tolerance the scenario's runner gives the check ``check_id``."""
    if check_id == "dilation-compatibility" and not scenario.expected["conformal"]:
        return TOLERANCES["conformality/threshold"]  # a verdict, never scaled
    variant = f"{check_id}/{scenario.scenario_id}"
    return config.tolerance(variant if variant in TOLERANCES else check_id)


def run_scenario(scenario_id: str, config: RunConfig) -> VerificationReport:
    """Run one scenario; a ``GeometryError`` it raises becomes a failed
    report rather than propagating, whose records keep their gates."""
    if scenario_id not in _BY_ID:
        raise ConfigurationError(f"unknown scenario {scenario_id!r}")
    scenario = _BY_ID[scenario_id]
    try:
        records = _run_suites(scenario, config)
    except GeometryError as exc:
        note = f"scenario aborted by {type(exc).__name__}: {exc}"
        records = [
            CheckRecord(check_id, 0, 0.0, _gate(scenario, check_id, config), passed=False,
                        notes=note)
            for check_id in scenario.provides
        ]
    return VerificationReport(
        scenario=scenario.scenario_id,
        description=scenario.description,
        config=config.to_dict(),
        checks=records,
    )


def run_all(config: RunConfig) -> list[VerificationReport]:
    return [run_scenario(s.scenario_id, config) for s in _SCENARIOS]
