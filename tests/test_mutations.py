"""Detection power: each injected defect must fail at least one gated check
of ``run_scenario``, or of a detector built here, at default settings.

A defect is applied to the one helper that both the single-point and the
point-set path of its structure call, so every path carries it. Each defect
runs only on the scenarios and detectors that catch it, and the test checks
that each of them does; a defect caught by a single one is a weak spot. A
detector lives in this module, not in the catalogue, so that the catalogue's
pinned report digests stay as they are.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from warpgeo import (
    ChartManifold,
    DiffEngine,
    RunConfig,
    ScalarField,
    SmoothMap,
    SubmersionContext,
    conformal_warped,
    connection,
    sample_points,
    submersion,
    suites,
    warped,
)
from warpgeo.fields import field_pairs, modulated_constants
from warpgeo.scenarios import build_objects, list_scenarios, run_scenario

pytestmark = pytest.mark.mutation


def _first_block_columns_swapped(J, blocks, J1, J2):
    """``conformal_warped._block_diagonal`` with the columns of the first
    factor's block reversed (swapped, for its two columns)."""
    (rows1, columns1), (rows2, columns2) = blocks
    J[..., rows1, columns1] = J1[..., ::-1]
    J[..., rows2, columns2] = J2
    return J


def _warp_to_the_power_1_9(g, blocks, g1, f, g2):
    """``warped._warped_metric`` with f |f|^0.9 in place of f^2."""
    first, second = blocks
    g[..., first, first] = g1
    g[..., second, second] = (f * np.abs(f) ** 0.9) * g2
    return g


_ONEILL_KERNEL = submersion._oneill_kernel


def _frozen_projections(ctx, part, E, F, coords):
    """``submersion._oneill_kernel`` whose fields VF and HF are split, at
    every stencil point of a point, with the splitting of that point: each
    point is a stack of one, with its own row's fields where they belong to
    the points, under a context whose every splitting is its own."""
    out = []
    for n, c in enumerate(coords):
        s = ctx.splitting_at(c)
        frozen = SimpleNamespace(map=ctx.map, engine=ctx.engine, splitting_at=lambda _: s,
                                 splittings_at=lambda points: [s] * len(points))
        out.append(_ONEILL_KERNEL(frozen, part, submersion._row(E, n), submersion._row(F, n),
                                  c[None])[0])
    return np.array(out).reshape(len(coords), ctx.map.source.dim)


_PROJECTORS = submersion._projectors


def _projectors_rolled_by_one_point(ctx, coords):
    """``submersion._projectors`` rolled by one point along the set axis: each
    point of a set gets its predecessor's vertical projector."""
    return np.roll(_PROJECTORS(ctx, coords), 1, axis=0)


def _without_christoffel_term(direction, dY, y, gamma):
    """``connection._covariant_from_partials`` without its Christoffel term,
    at one point or at each point of stacks."""
    return connection._along(direction, dY)


_STACKED_PARTIALS = DiffEngine.stacked_partials


def _set_rolled_by_one_point(engine, fn, coords, lower, upper, along=None, stack=None,
                             owned=False):
    """``DiffEngine.stacked_partials`` with the values of the set rolled by one
    point along the set axis: each point gets its predecessor's partials,
    on the walk of ``fn`` and on that of a point-set form alike."""
    return np.roll(_STACKED_PARTIALS(engine, fn, coords, lower, upper, along, stack, owned), 1,
                   axis=0)


_WALK = DiffEngine._walk


def _owners_rolled_by_one_point(engine, fn, coords, lower, upper, axes, used=None, stack=None,
                                owned=False):
    """``DiffEngine._walk`` that hands a form that takes owners the row of the
    point before each stencil point's own base point in the set: each
    point's stencil points are evaluated with its predecessor's field."""
    if owned:
        form, n = stack, len(coords)
        stack = lambda points, owners: form(points, (owners - 1) % n)  # noqa: E731
    return _WALK(engine, fn, coords, lower, upper, axes, used, stack, owned)


_LOG_WARP = warped.WarpedProduct.log_warp


def _log_warp_sign_flipped(W):
    """``WarpedProduct.log_warp`` as -ln f, whose partials give -grad ln f."""
    log_warp = _LOG_WARP(W)
    partials = log_warp.partials
    return ScalarField(lambda c: -log_warp(c),
                       None if partials is None else (lambda c: -partials(c)))


_VARIANT_FIELDS = conformal_warped.second_factor_variant_fields


def _first_factor_field_twice(cws):
    """``second_factor_variant_fields`` with the first-factor denominator's
    field under both names."""
    variants = _VARIANT_FIELDS(cws)
    return dict.fromkeys(variants, variants["first-factor-denominator"])


_STACKED_DILATIONS = SubmersionContext._stacked_dilations


def _dilations_times_1_01(ctx, coords_list):
    """``SubmersionContext._stacked_dilations`` with each lambda^2 times 1.01."""
    return [replace(d, lambda_sq=d.lambda_sq * 1.01)
            for d in _STACKED_DILATIONS(ctx, coords_list)]


def _anisotropy_minus_0_1(ctx, coords_list):
    """``SubmersionContext._stacked_dilations`` with each anisotropy minus 0.1,
    below 1 where the map is conformal: a negative conformality residual."""
    return [replace(d, anisotropy=d.anisotropy - 0.1)
            for d in _STACKED_DILATIONS(ctx, coords_list)]


_A_FORMULAS = submersion._conformal_a_formulas


def _a_formula_with_0_6(ctx, X, Y, coords_seq):
    """``conformal_a_formula``'s kernel with 0.6 in place of 1/2: 1.2 times its value."""
    return 1.2 * _A_FORMULAS(ctx, X, Y, coords_seq)


def _bracket_dropped(M, engine, X, Y, coords):
    """``_lie_brackets`` as ``conformal_a_formula``'s kernel calls it,
    dropped: its V[X, Y] term is then 0."""
    return np.zeros((len(coords), M.dim))


def heisenberg(config: RunConfig) -> list:
    """``a_crossval_records`` of the projection (x, y, z) -> (x, y) of the
    Heisenberg metric dx^2 + dy^2 + (dz - x dy)^2 on (-1, 1)^3 onto the
    Euclidean square: a Riemannian submersion whose horizontal distribution
    is not integrable, [dx, dy + x dz] = dz, so A has a bracket term."""
    def metric(c):
        x = c[0]
        return np.array([[1.0, 0.0, 0.0], [0.0, 1.0 + x * x, -x], [0.0, -x, 1.0]])

    M = ChartManifold(3, [-1.0] * 3, [1.0] * 3, metric, name="heisenberg")
    N = ChartManifold.euclidean(2, [-1.0] * 2, [1.0] * 2)
    ctx = SubmersionContext(SmoothMap(M, N, lambda c: c[:2], lambda c: np.eye(2, 3)),
                            config.engine())
    coords = sample_points([-0.8] * 3, [0.8] * 3, config.samples, config.seed,
                           4.0 * config.fd_step)
    return suites.a_crossval_records(ctx, [M.point(c) for c in coords],
                                     np.random.default_rng(config.seed),
                                     config.tolerance("a-vs-bracket-formula"))


DETECTORS = {"heisenberg": heisenberg}
SCENARIOS = tuple(s.scenario_id for s in list_scenarios())
WARPED = ("warped-line", "sphere-warped")
CWS = ("cws-constant-dilation", "cws-incompatible", "cws-variable-dilation", "cws-riemannian",
       "cws-mixed-local")

# name -> (the holders of the helper, its name, the mutant, the scenarios
# and the detectors that catch it)
MUTANTS = {
    "product-jacobian-columns-swapped": (
        (conformal_warped,), "_block_diagonal", _first_block_columns_swapped, CWS, (),
    ),
    # on cws-variable-dilation the product is then no longer conformal, and a
    # ConformalityError aborts the scenario
    "warp-power-1.9": (
        (warped,), "_warped_metric", _warp_to_the_power_1_9, WARPED + ("cws-variable-dilation",),
        (),
    ),
    # of the scenarios, only cws-variable-dilation catches it
    "frozen-projections": (
        (submersion,), "_oneill_kernel", _frozen_projections, ("cws-variable-dilation",),
        ("heisenberg",),
    ),
    "christoffel-term-dropped": (
        (connection, submersion), "_covariant_from_partials", _without_christoffel_term,
        WARPED + CWS[:4], ("heisenberg",),
    ),
    "log-warp-sign-flipped": (
        (warped.WarpedProduct,), "log_warp", _log_warp_sign_flipped, WARPED, (),
    ),
    # a weak spot: only cws-variable-dilation catches it
    "second-factor-variant-is-the-first": (
        (conformal_warped,), "second_factor_variant_fields", _first_factor_field_twice,
        ("cws-variable-dilation",), (),
    ),
    # every scenario with a dilation oracle
    "dilation-times-1.01": (
        (SubmersionContext,), "_stacked_dilations", _dilations_times_1_01,
        tuple(s for s in SCENARIOS if s not in ("cws-incompatible", "cws-mixed-local")), (),
    ),
    # of the scenarios, only cws-variable-dilation catches it
    "a-formula-0.6-for-one-half": (
        (submersion, suites), "_conformal_a_formulas", _a_formula_with_0_6,
        ("cws-variable-dilation",), ("heisenberg",),
    ),
    # the set walk alone, which the connection verifiers and FD Jacobian
    # stacks run: a stack of one, as a single point is, is not moved; every
    # scenario's metric-compatibility check catches it
    "stacked-walk-rolled-by-one-point": (
        (DiffEngine,), "stacked_partials", _set_rolled_by_one_point, SCENARIOS, (),
    ),
    # every catalogue submersion has an integrable horizontal distribution, so
    # V[X, Y] = 0 there, and only the Heisenberg detector sees the bracket term
    "bracket-dropped": (
        (submersion,), "_lie_brackets", _bracket_dropped, (), ("heisenberg",),
    ),
    # the O'Neill kernels' set path alone (``_oneill_kernel`` and
    # ``_vertical_gradients``): a stack of one is not moved; every other
    # scenario's vertical projector is the same at every point, so only
    # cws-variable-dilation catches it
    "oneill-set-projectors-rolled-by-one-point": (
        (submersion,), "_projectors", _projectors_rolled_by_one_point,
        ("cws-variable-dilation",), ("heisenberg",),
    ),
    # the set walk of fields that belong to their points (the extensions of
    # a_crossval_records, the umbilicity and fiber suites' basis fields): a
    # weak spot, since only cws-variable-dilation of the scenarios catches
    # it; elsewhere the projector of each scenario is the same at every
    # point, or, along the vertical directions T takes, the same along them,
    # so a field's projected derivative does not depend on whose vector it
    # extends
    "walk-owners-rolled-by-one-point": (
        (DiffEngine,), "_walk", _owners_rolled_by_one_point, ("cws-variable-dilation",),
        ("heisenberg",),
    ),
}


def _paths(name: str) -> list:
    """The single-point value of the mutated structure at a point of
    ``cws-variable-dilation``'s product, and its value in a point set of two,
    for the defects in a structure with a point-set path; for a rolled set,
    which a single point never takes, the value in a set of two (of fields
    that belong to the points, for rolled owners)."""
    ctx = build_objects("cws-variable-dilation", DiffEngine())["cws"].ctx
    M = ctx.map.source
    p, q = (M.point(M.lower + t * (M.upper - M.lower)) for t in (0.3, 0.6))
    if name == "warp-power-1.9":
        return [M.metric(p), M.metrics_at([p, q])[0]]
    if name == "dilation-times-1.01":
        return [ctx.dilation(p).lambda_sq, ctx.dilations([p, q])[0].lambda_sq]
    if name == "stacked-walk-rolled-by-one-point":
        return [connection.christoffels(M, DiffEngine(), [p, q])[0]]
    if name == "product-jacobian-columns-swapped":
        return [ctx.map.jac(p), ctx.map.jacobians_at([p, q], DiffEngine())[0]]
    E, F = field_pairs(M, np.random.default_rng(3), 1)[0]
    if name == "frozen-projections":
        return [submersion.oneill_a(ctx, E, F, p),
                submersion._oneills(ctx, submersion._horizontal, E, F, [p, q])[0]]
    if name == "oneill-set-projectors-rolled-by-one-point":
        return [submersion._oneills(ctx, submersion._horizontal, E, F, [p, q])[0]]
    if name == "walk-owners-rolled-by-one-point":
        coords = np.array([p, q])
        x = ctx.horizontal_field(modulated_constants(E.values_at(coords), 0, coords))
        y = ctx.horizontal_field(modulated_constants(F.values_at(coords), M.dim - 1, coords))
        return [submersion._oneills(ctx, submersion._horizontal, x, y, coords)[0]]
    return []


def _gated_failures(records) -> list:
    return [c for c in records if not c.passed and not c.informational]


@pytest.mark.parametrize("detector", DETECTORS)
def test_each_detector_passes_unmutated(detector):
    assert not _gated_failures(DETECTORS[detector](RunConfig()))


@pytest.mark.parametrize("name", MUTANTS)
def test_each_mutant_fails_a_gated_check_on_every_scenario_that_runs_it(name, monkeypatch):
    holders, helper, mutant, scenario_ids, detectors = MUTANTS[name]
    clean = _paths(name)
    for holder in holders:
        monkeypatch.setattr(holder, helper, mutant)
    # both paths carry the defect
    assert all(not np.array_equal(a, b) for a, b in zip(clean, _paths(name)))
    runs = {s: lambda s=s: run_scenario(s, RunConfig()).checks for s in scenario_ids}
    runs.update({d: lambda d=d: DETECTORS[d](RunConfig()) for d in detectors})
    margin = 0.0
    for where, run in runs.items():
        failed = _gated_failures(run())
        assert failed, f"{name} survives {where}"
        ratios = [c.max_residual / c.tolerance for c in failed if c.tolerance > 0]
        margin = max([margin] + [r for r in ratios if np.isfinite(r)])
    # the detection margin: the largest residual-to-tolerance ratio
    print(f"{name}: worst ratio {margin:.3g} over {', '.join(runs)}")
    assert margin > 1.0


# the scenarios whose gated conformality check expects a conformal map
CONFORMAL = tuple(s for s in SCENARIOS if s not in ("cws-incompatible", "cws-mixed-local"))


def test_a_negative_residual_aborts_its_scenario_by_the_residual_contract(monkeypatch):
    # an anisotropy below 1 gives the conformality check a negative residual,
    # which would pass under any tolerance as a residual below it; the
    # residual contract of ResidualCheck.add rejects it, so the run aborts
    ctx = build_objects("cws-variable-dilation", DiffEngine())["cws"].ctx
    M = ctx.map.source
    p, q = (M.lower + t * (M.upper - M.lower) for t in (0.3, 0.6))
    clean = [ctx.dilation(p).anisotropy, ctx.dilations([p, q])[0].anisotropy]
    monkeypatch.setattr(SubmersionContext, "_stacked_dilations", _anisotropy_minus_0_1)
    assert [ctx.dilation(p).anisotropy, ctx.dilations([p, q])[0].anisotropy] == [
        a - 0.1 for a in clean]
    for scenario_id in CONFORMAL:
        checks = run_scenario(scenario_id, RunConfig()).checks
        assert checks and all(not c.passed and c.n_samples == 0 for c in checks)
        assert all(c.notes.startswith("scenario aborted by ConfigurationError: check "
                                      "'conformality': residual -0.09") for c in checks)
