"""Built-in scenario catalog.

Every scenario assembles concrete manifolds, warps and maps, samples a
bounded sub-box of the domain deterministically, and runs its suites in
order. A scenario is declared by its kind, as one call of the kind's
builder with its data: ``_warped`` for a warped product and its
first-factor projection, ``_submersion`` for a plain submersion, ``_cws``
for a product of two submersions between warped products; ``_objects``
writes the objects every kind returns. A suite declares the check ids it
records, in order, and one function that records them, so a scenario's
checks are the concatenation of its suites' ids: a new check goes into one
suite. The catalog order is stable and part of the public surface;
``expected`` entries document the verdicts a default run must produce
(including deliberate failures of the negative scenarios).

A scenario that raises a ``GeometryError`` still yields a report: every
check it provides fails with ``n_samples = 0`` and a note naming the error,
and ``run_all`` goes on with the next scenario. A sample box that the
``--fd-step`` margin empties is a ``ConfigurationError`` of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from .fields import field_pairs
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


@dataclass(frozen=True)
class Suite:
    """The check ids a suite records, in order, and the function
    ``(objs, config, engine, points, rng) -> records`` that records them.

    A check is gated at ``config.tolerance(check_id)`` unless ``gates``
    names its gate: a ``TOLERANCES`` key, scaled like any other, or a float,
    which is never scaled. Checks that one tolerance argument of their
    verifier gates name that argument's key, and have no entry of their
    own."""

    ids: tuple
    run: Callable[..., list]
    gates: dict = field(default_factory=dict)

    def gate(self, check_id: str, config: RunConfig) -> float:
        gate = self.gates.get(check_id, check_id)
        return config.tolerance(gate) if isinstance(gate, str) else gate


@dataclass(frozen=True)
class Scenario:
    """One catalog entry. ``builder`` returns the scenario's objects, whose
    ``"ctx"`` map has the sampled chart as its source; ``suites`` run on
    them in order, from fd-consistency first to engine health last."""

    scenario_id: str
    description: str
    expected: dict
    builder: Callable[[DiffEngine], dict]
    suites: tuple

    @property
    def provides(self) -> tuple:
        """Every check id the scenario records, in report order."""
        return tuple(check_id for suite in self.suites for check_id in suite.ids)


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
# scenario builders, one per kind: each returns ``build(engine) -> objects``,
# and every call builds fresh charts and maps
# ---------------------------------------------------------------------------


def _objects(ctx: SubmersionContext, lower, upper, expected_lambda_sq, scalar_checks, map_checks,
             **named) -> dict:
    """A scenario's objects: ``ctx``, whose map has the sampled chart as its
    source, the sample box, the squared-dilation oracle (None for a
    non-conformal map), the ``(chart, field)`` pairs and maps fd-consistency
    checks, and the kind's own objects (``warped``, ``cws`` or ``ctx_fd``)."""
    return {
        "ctx": ctx,
        "sample_lower": np.array(lower, dtype=float),
        "sample_upper": np.array(upper, dtype=float),
        "expected_lambda_sq": expected_lambda_sq,
        "scalar_checks": scalar_checks,
        "map_checks": map_checks,
        **named,
    }


def _euclidean(name: str, lower, upper) -> Callable[[], ChartManifold]:
    """A factory of the Euclidean chart on the box ``(lower, upper)``."""
    return lambda: ChartManifold.euclidean(len(lower), lower, upper, name=name)


def _warped(first, second, warp: ScalarField, name: str, lower, upper):
    """``first x_warp second``, from two chart factories, and its
    first-factor projection, a Riemannian submersion."""

    def build(engine: DiffEngine) -> dict:
        M1 = first()
        W = build_warped_product(M1, second(), warp, name=name)
        ctx = SubmersionContext(projection_map(W, "first"), engine)
        return _objects(ctx, lower, upper, lambda c: 1.0, [(M1, warp)], [ctx.map], warped=W)

    return build


def _submersion(make_map, lower, upper, expected_lambda_sq):
    """The map ``make_map()``, whose Jacobian is analytic, and as ``ctx_fd``
    its twin with a finite-difference Jacobian."""

    def build(engine: DiffEngine) -> dict:
        smap = make_map()
        fd_map = SmoothMap(smap.source, smap.target, smap.fn, None, name=f"{smap.name}-fd")
        return _objects(SubmersionContext(smap, engine), lower, upper, expected_lambda_sq, [],
                        [smap], ctx_fd=SubmersionContext(fd_map, engine))

    return build


def _cws(factors, lower, upper, expected_lambda_sq, fields, maps):
    """The product submersion ``build_product_submersion(*factors(), engine)``.

    fd-consistency checks the product's ``fields`` (of ``lambda1``,
    ``lambda2``, ``warp``, ``target_warp``) on the charts they live on, and
    its ``maps`` (of ``phi1``, ``phi2``, ``product``)."""

    def build(engine: DiffEngine) -> dict:
        cws = build_product_submersion(*factors(), engine)
        W, T = cws.source, cws.target
        named_fields = {"lambda1": (W.first, cws.lambda1), "lambda2": (W.second, cws.lambda2),
                        "warp": (W.first, W.warp), "target_warp": (T.first, T.warp)}
        named_maps = {"phi1": cws.ctx1.map, "phi2": cws.ctx2.map, "product": cws.ctx.map}
        return _objects(cws.ctx, lower, upper, expected_lambda_sq,
                        [named_fields[name] for name in fields],
                        [named_maps[name] for name in maps], cws=cws, warped=cws.source)

    return build


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


def _spiral_r4() -> SmoothMap:
    """``spiral_map`` from R4 into a box of R2 that holds its image."""
    return spiral_map(ChartManifold.euclidean(4, [-2.0] * 4, [2.0] * 4, name="R4"),
                      ChartManifold.euclidean(2, [-9.0] * 2, [9.0] * 2, name="R2"))


def _first_coord(source: ChartManifold, target: ChartManifold) -> SmoothMap:
    """(x, y) |-> x."""
    return SmoothMap(source, target, lambda c: np.array([c[0]]), lambda c: np.array([[1.0, 0.0]]),
                     name="first-coord")


# factor families: each returns the arguments of build_product_submersion
# but the engine, (phi1, lambda1, phi2, lambda2, f, rho)


def _doubling(rho: ScalarField) -> tuple:
    """Two doubling submersions (x, y) |-> 2x, with dilations 2 and source
    warp e^{2x}."""
    double = lambda c: np.array([2.0 * c[0]])
    double_jac = lambda c: np.array([[2.0, 0.0]])
    M1 = ChartManifold.euclidean(2, [-1.5, -1.5], [1.5, 1.5], name="M1")
    N1 = ChartManifold.euclidean(1, [-3.5], [3.5], name="N1")
    M2 = ChartManifold.euclidean(2, [-1.5, -1.5], [1.5, 1.5], name="M2")
    N2 = ChartManifold.euclidean(1, [-3.5], [3.5], name="N2")
    two = ScalarField.constant(2.0)
    return (SmoothMap(M1, N1, double, double_jac, name="double-x"), two,
            SmoothMap(M2, N2, double, double_jac, name="double-u"), two,
            _exp_field(2.0, 0, 2), rho)


def _shear_exp() -> tuple:
    """(x, y) |-> x e^y, with dilation e^y sqrt(1 + x^2) and the warp that
    makes the product conformal, times the first-coordinate map."""
    M1 = ChartManifold.euclidean(2, [-1.5, -1.5], [1.5, 1.5], name="M1")
    N1 = ChartManifold.euclidean(1, [-8.0], [8.0], name="N1")
    M2 = ChartManifold.euclidean(2, [-1.5, -1.5], [1.5, 1.5], name="M2")
    N2 = ChartManifold.euclidean(1, [-2.0], [2.0], name="N2")
    phi1 = SmoothMap(M1, N1, lambda c: np.array([c[0] * np.exp(c[1])]),
                     lambda c: np.array([[np.exp(c[1]), c[0] * np.exp(c[1])]]), name="shear-exp")
    root = lambda c: np.sqrt(1.0 + c[0] ** 2)
    lam1 = ScalarField(lambda c: float(np.exp(c[1]) * root(c)),
                       lambda c: np.array([np.exp(c[1]) * c[0] / root(c), np.exp(c[1]) * root(c)]))
    warp = ScalarField(lambda c: float(np.exp(-c[1]) / root(c)),
                       lambda c: np.array([-c[0] * np.exp(-c[1]) * (1.0 + c[0] ** 2) ** -1.5,
                                           -np.exp(-c[1]) / root(c)]))
    unit = ScalarField.constant(1.0)
    return phi1, lam1, _first_coord(M2, N2), unit, warp, unit


def _first_coords() -> tuple:
    """Two first-coordinate maps with unit dilations, and warps e^x on both
    sides, so rho o phi1 = f."""
    M1 = ChartManifold.euclidean(2, [-1.5, -1.5], [1.5, 1.5], name="M1")
    N1 = ChartManifold.euclidean(1, [-2.0], [2.0], name="N1")
    M2 = ChartManifold.euclidean(2, [-1.5, -1.5], [1.5, 1.5], name="M2")
    N2 = ChartManifold.euclidean(1, [-2.0], [2.0], name="N2")
    unit = ScalarField.constant(1.0)
    return (_first_coord(M1, N1), unit, _first_coord(M2, N2), unit,
            _exp_field(1.0, 0, 2), _exp_field(1.0, 0, 1))


def _spiral_identity() -> tuple:
    """The exp-spiral R4 -> R2, dilation e^{x3}, times the identity of a
    line, with unit warps."""
    M1 = ChartManifold.euclidean(4, [-2.0] * 4, [2.0] * 4, name="M1")
    N1 = ChartManifold.euclidean(2, [-9.0] * 2, [9.0] * 2, name="N1")
    M2 = ChartManifold.euclidean(1, [-2.0], [2.0], name="M2")
    N2 = ChartManifold.euclidean(1, [-2.0], [2.0], name="N2")
    unit = ScalarField.constant(1.0)
    identity = SmoothMap(M2, N2, lambda c: c, lambda c: np.eye(1), name="identity")
    return spiral_map(M1, N1), _exp_field(1.0, 2, 4), identity, unit, unit, unit


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _points(objs: dict, config: RunConfig):
    margin = 4.0 * config.fd_step
    coords = sample_points(
        objs["sample_lower"], objs["sample_upper"], config.samples, config.seed, margin
    )
    return [objs["ctx"].map.source.point(c) for c in coords]


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
    W = objs.get("warped")
    if W is None or source is not W.ambient:
        return out
    for p in spot:
        c1, c2 = W.split_coords(p)
        out.setdefault(id(W.first), []).append(c1)
        out.setdefault(id(W.second), []).append(c2)
        if cws is not None:
            out.setdefault(id(cws.target.first), []).append(cws.ctx1.map.image_point(c1))
    return out


def _compatibility_records(
    cws: ConformalWarpedSubmersion, points, config: RunConfig, expect_conformal: bool
) -> list[CheckRecord]:
    entries = compatibility_report(cws, points)
    if expect_conformal:
        check = ResidualCheck("dilation-compatibility", config.tolerance("dilation-compatibility"))
        agree = ResidualCheck("compatibility-vs-dilation",
                              config.tolerance("compatibility-vs-dilation"))
        for entry, (_, d) in zip(entries, _in_blocks(cws.ctx.dilations, points)):
            check.add(entry.residual)
            agree.add(abs(d.lambda_sq - entry.r1), 1.0 + abs(entry.r1))
        return [check.record(), agree.record()]
    fails = sum(1 for e in entries if not e.conformal_here)
    worst = float(np.max([e.residual for e in entries]))  # a NaN residual propagates
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


def _suite(*ids: str, gates: dict | None = None):
    """The decorated ``(objs, config, engine, points, rng)`` function as the
    suite that records ``ids``, gated as ``gates`` says."""
    return lambda run: Suite(ids, run, gates or {})


def _shared(gate: str, *ids: str) -> dict:
    """``ids`` gated at ``gate``'s entry: one tolerance argument of their
    verifier gates them all."""
    return dict.fromkeys(ids, gate)


@_suite("fd-consistency")
def _fd_consistency(objs, config, engine, points, rng):
    by_manifold = _points_by_manifold(objs, points)
    return [fd_consistency_record(engine, objs["scalar_checks"], objs["map_checks"], by_manifold,
                                  config.tolerance("fd-consistency"))]


@_suite("metric-blocks")
def _metric_blocks(objs, config, engine, points, rng):
    return [verify_metric_blocks(objs["warped"], points)]


_CONN_SHARED = ("warped-conn-mixed", "warped-conn-fiber-normal", "warped-conn-fiber-tangent")


@_suite("warped-conn-first-pair", *_CONN_SHARED,
        gates=_shared("warped-conn-first-pair", *_CONN_SHARED))
def _warped_connection(objs, config, engine, points, rng):
    W = objs["warped"]
    pairs1 = field_pairs(W.first, rng, 3)
    pairs2 = field_pairs(W.second, rng, 3)
    return verify_warped_connection(W, engine, points, pairs1, pairs2,
                                    config.tolerance("warped-conn-first-pair"))


@_suite("leaf-totally-geodesic", "fiber-umbilical", "fiber-mean-curvature-warp",
        gates=_shared("fiber-umbilical", "fiber-mean-curvature-warp"))
def _leaf_fiber(objs, config, engine, points, rng):
    return verify_leaf_fiber_geometry(objs["warped"], engine, points,
                                      config.tolerance("leaf-totally-geodesic"),
                                      config.tolerance("fiber-umbilical"))


@_suite("split-decomposition")
def _splitting(objs, config, engine, points, rng):
    return [splitting_records(objs["ctx"], points, rng, config.tolerance("split-decomposition"))]


def _dilation(conformal: bool = True, conformality_gate: str = "conformality") -> Suite:
    """Conformality, gated at ``conformality_gate``, and for a conformal map
    the dilation against the scenario's oracle."""

    def run(objs, config, engine, points, rng):
        return dilation_records(objs["ctx"], points, objs["expected_lambda_sq"],
                                config.tolerance(conformality_gate),
                                config.tolerance("dilation-value"), expect_conformal=conformal)

    ids = ("conformality", "dilation-value") if conformal else ("conformality",)
    return Suite(ids, run, {"conformality": conformality_gate})


@_suite("fd-conformality", "fd-dilation-value")
def _fd_dilation(objs, config, engine, points, rng):
    return dilation_records(objs["ctx_fd"], points, objs["expected_lambda_sq"],
                            config.tolerance("fd-conformality"),
                            config.tolerance("fd-dilation-value"), check_prefix="fd-")


@_suite("t-umbilical")
def _t_umbilicity(objs, config, engine, points, rng):
    return [t_umbilicity_records(objs["ctx"], points, rng, config.tolerance("t-umbilical"))]


@_suite("a-vs-bracket-formula", "a-extension-independence",
        gates=_shared("a-vs-bracket-formula", "a-extension-independence"))
def _a_crossval(objs, config, engine, points, rng):
    return a_crossval_records(objs["ctx"], points, rng, config.tolerance("a-vs-bracket-formula"))


@_suite("torsion-free", "metric-compatibility")
def _engine_health(objs, config, engine, points, rng):
    return engine_health_records(objs["ctx"].map.source, engine, points, rng,
                                 config.tolerance("torsion-free"),
                                 config.tolerance("metric-compatibility"))


@_suite("jacobian-blocks", "kernel-product")
def _kernel_product(objs, config, engine, points, rng):
    return verify_kernel_product(objs["cws"], points)


def _compatibility(conformal: bool) -> Suite:
    """dilation-compatibility, and its agreement with the dilation, for a
    conformal map; for a non-conformal one, the unscaled verdict alone."""

    def run(objs, config, engine, points, rng):
        return _compatibility_records(objs["cws"], points, config, conformal)

    if conformal:
        return Suite(("dilation-compatibility", "compatibility-vs-dilation"), run)
    threshold = TOLERANCES["conformality/threshold"]
    return Suite(("dilation-compatibility",), run, {"dilation-compatibility": threshold})


@_suite("product-a-first-factor", "product-a-second-factor")
def _product_a(objs, config, engine, points, rng):
    cws = objs["cws"]
    pairs1 = horizontal_pairs(cws.ctx1, rng, 2)
    pairs2 = horizontal_pairs(cws.ctx2, rng, 2)
    first = verify_first_factor_a_identity(cws, points, pairs1,
                                           config.tolerance("product-a-first-factor"))
    second, _ = verify_second_factor_a_identity(cws, points, pairs2,
                                                config.tolerance("product-a-second-factor"))
    return [first, second]


@_suite("riemannian-reduction")
def _riemannian_reduction(objs, config, engine, points, rng):
    return [verify_riemannian_reduction(objs["cws"], points,
                                        config.tolerance("riemannian-reduction"))]


@_suite("rescale-to-riemannian", "rescale-uniqueness-probe", "rescale-probe-dilation",
        gates=_shared("rescale-to-riemannian", "rescale-probe-dilation"))
def _rescale(objs, config, engine, points, rng):
    return verify_rescaled_riemannian(
        objs["cws"], points, tolerance=config.tolerance("rescale-to-riemannian"),
        probe_tolerance=config.tolerance("rescale-uniqueness-probe"),
    )


def _fiber_geometry(expected: dict) -> Suite:
    """Fiber minimality of each factor's block, as ``expected`` says, and
    the mixed block."""

    def run(objs, config, engine, points, rng):
        return fiber_geometry_report(objs["cws"], points, expected["first_factor_minimal"],
                                     expected["second_factor_minimal"],
                                     config.tolerance("fiber-minimality-first"))

    shared = ("fiber-minimality-second", "mixed-fiber-geodesic")
    return Suite(("fiber-minimality-first", *shared), run, _shared("fiber-minimality-first", *shared))


_WARPED_SUITES = (
    _fd_consistency,
    _metric_blocks,
    _warped_connection,
    _leaf_fiber,
    _splitting,
    _dilation(),
    _t_umbilicity,
    _a_crossval,
    _engine_health,
)

_SPIRAL_SUITES = (
    _fd_consistency,
    _splitting,
    _dilation(conformality_gate="conformality/exp-spiral-r4"),
    _fd_dilation,
    _a_crossval,
    _engine_health,
)


def _warped_scenario(scenario_id: str, description: str, builder) -> Scenario:
    """A warped product scenario: the warped-product identities, and its
    first-factor projection as a Riemannian submersion."""
    expected = {"conformal": True, "dilation_sq": "1",
                "first_factor_minimal": None, "second_factor_minimal": None}
    return Scenario(scenario_id, description, expected, builder, _WARPED_SUITES)


def _cws_scenario(scenario_id: str, description: str, expected: dict, builder) -> Scenario:
    """A conformal warped product scenario, whose suites follow from its
    ``expected`` verdicts."""
    conformal = expected["conformal"]
    suites = [
        _fd_consistency,
        _metric_blocks,
        _kernel_product,
        _compatibility(conformal),
        _splitting,
        _dilation(conformal),
    ]
    if conformal:
        suites += [_a_crossval, _product_a]
        if expected["riemannian"]:
            suites.append(_riemannian_reduction)
        suites.append(_rescale)
    suites += [_fiber_geometry(expected), _engine_health]
    return Scenario(scenario_id, description, expected, builder, tuple(suites))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

_SCENARIOS: list[Scenario] = [
    _warped_scenario(
        "warped-line",
        "line x_exp(t) line: block metric, connection identities, leaf/fiber "
        "geometry, first-factor projection as a Riemannian submersion",
        _warped(_euclidean("t-line", [-2.0], [2.0]), _euclidean("x-line", [-2.0], [2.0]),
                _exp_field(1.0, 0, 1), "warped-line", [-0.8] * 2, [0.8] * 2),
    ),
    _warped_scenario(
        "sphere-warped",
        "round-sphere chart (0,pi) x_sin(theta) (0,2pi): warped-product "
        "identities on a curved example",
        _warped(_euclidean("colatitude", [0.0], [np.pi]),
                _euclidean("longitude", [0.0], [2.0 * np.pi]),
                ScalarField(lambda c: float(np.sin(c[0])), lambda c: np.array([np.cos(c[0])])),
                "sphere-chart", [0.5, 0.5], [2.6, 5.5]),
    ),
    _warped_scenario(
        "product-plain",
        "plane x line with unit warp: the plain Riemannian product limit",
        _warped(_euclidean("plane", [-2.0, -2.0], [2.0, 2.0]), _euclidean("line", [-2.0], [2.0]),
                ScalarField.constant(1.0), "plain-product", [-0.8] * 3, [0.8] * 3),
    ),
    Scenario(
        "exp-spiral-r4",
        "R4 -> R2, (x1..x4) |-> (e^{x3} sin x4, e^{x3} cos x4): conformal "
        "submersion with squared dilation e^{2 x3}; analytic and FD Jacobians",
        {"conformal": True, "dilation_sq": "exp(2*x3)",
         "first_factor_minimal": None, "second_factor_minimal": None},
        _submersion(_spiral_r4, [-0.8] * 4, [0.8] * 4, lambda c: float(np.exp(2.0 * c[2]))),
        _SPIRAL_SUITES,
    ),
    _cws_scenario(
        "cws-constant-dilation",
        "product of two doubling submersions with warps e^{2x} / e^{s}: "
        "conformal with squared dilation 4 everywhere",
        {"conformal": True, "dilation_sq": "4",
         "second_factor_variant": "both", "riemannian": False,
         "first_factor_minimal": True, "second_factor_minimal": False},
        _cws(lambda: _doubling(_exp_field(1.0, 0, 1)), [-0.6] * 4, [0.6] * 4, lambda c: 4.0,
             ("lambda1", "lambda2", "warp", "target_warp"), ("phi1", "phi2", "product")),
    ),
    _cws_scenario(
        "cws-incompatible",
        "same factors but unit target warp: the two candidate dilations "
        "disagree, conformality must fail at >= 90% of samples",
        {"conformal": False, "dilation_sq": None,
         "first_factor_minimal": True, "second_factor_minimal": False},
        _cws(lambda: _doubling(ScalarField.constant(1.0)), [0.1, -0.6, -0.6, -0.6], [0.6] * 4,
             None, ("warp",), ("product",)),
    ),
    _cws_scenario(
        "cws-variable-dilation",
        "shear-exponential first factor with non-constant dilation "
        "e^{y} sqrt(1+x^2): discriminates the two second-factor gradient "
        "denominators",
        {"conformal": True, "dilation_sq": "exp(2*y)*(1+x^2)",
         "second_factor_variant": "second-factor-denominator", "riemannian": False,
         "first_factor_minimal": False, "second_factor_minimal": False},
        _cws(_shear_exp, [0.1, 0.2, -0.6, -0.6], [0.6, 0.8, 0.6, 0.6],
             lambda c: float(np.exp(2.0 * c[1]) * (1.0 + c[0] ** 2)),
             ("lambda1", "warp"), ("phi1", "phi2", "product")),
    ),
    _cws_scenario(
        "cws-riemannian",
        "unit dilations with target warp pulling back to the source warp: "
        "the product map is a Riemannian submersion",
        {"conformal": True, "dilation_sq": "1",
         "second_factor_variant": "both", "riemannian": True,
         "first_factor_minimal": True, "second_factor_minimal": False},
        _cws(_first_coords, [-0.6] * 4, [0.6] * 4, lambda c: 1.0,
             ("warp", "target_warp"), ("phi1", "phi2", "product")),
    ),
    _cws_scenario(
        "cws-mixed-local",
        "exp-spiral first factor with unit warps: candidate dilations "
        "e^{2 x3} vs 1 agree only on the x3 = 0 slice, so conformality "
        "fails on the sampled box",
        {"conformal": False, "dilation_sq": None,
         "first_factor_minimal": True, "second_factor_minimal": True},
        _cws(_spiral_identity, [-0.6, -0.6, 0.1, -0.6, -0.6], [0.6] * 5, None,
             ("lambda1",), ("phi1", "product")),
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


def _aborted(scenario: Scenario, config: RunConfig, exc: GeometryError) -> list[CheckRecord]:
    """Every check of the scenario, failed with no samples at its own gate."""
    note = f"scenario aborted by {type(exc).__name__}: {exc}"
    return [
        CheckRecord(check_id, 0, 0.0, suite.gate(check_id, config), passed=False, notes=note)
        for suite in scenario.suites
        for check_id in suite.ids
    ]


def _run_suites(scenario: Scenario, config: RunConfig) -> list[CheckRecord]:
    engine = config.engine()
    try:
        objs = scenario.builder(engine)
    except GeometryError as exc:
        return _aborted(scenario, config, exc)
    # a sample box the step's margin empties is the run's error, so it propagates
    points = _points(objs, config)
    index = next(i for i, s in enumerate(_SCENARIOS) if s.scenario_id == scenario.scenario_id)
    rng = np.random.default_rng([config.seed, index])
    try:
        with evaluation_scope():
            return [
                record
                for suite in scenario.suites
                for record in suite.run(objs, config, engine, points, rng)
            ]
    except GeometryError as exc:
        return _aborted(scenario, config, exc)


def run_scenario(scenario_id: str, config: RunConfig) -> VerificationReport:
    """Run one scenario; a ``GeometryError`` its builder or a suite raises
    becomes a failed report rather than propagating, whose records keep
    their gates."""
    if scenario_id not in _BY_ID:
        raise ConfigurationError(f"unknown scenario {scenario_id!r}")
    scenario = _BY_ID[scenario_id]
    return VerificationReport(
        scenario=scenario.scenario_id,
        description=scenario.description,
        config=config.to_dict(),
        checks=_run_suites(scenario, config),
    )


def run_all(config: RunConfig) -> list[VerificationReport]:
    return [run_scenario(s.scenario_id, config) for s in _SCENARIOS]
