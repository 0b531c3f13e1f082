"""Detection power: each injected defect must fail at least one gated check
of ``run_scenario`` at default settings.

A defect is applied to the one helper that both the single-point and the
point-set path of its structure call, so every path carries it. Each defect
runs only on the scenarios that catch it, and the test checks that each of
them does; a defect caught by a single scenario is a weak spot.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from warpgeo import (
    DiffEngine,
    RunConfig,
    ScalarField,
    SubmersionContext,
    conformal_warped,
    connection,
    submersion,
    suites,
    warped,
)
from warpgeo.scenarios import build_objects, list_scenarios, run_scenario


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


_ONEILL = submersion._oneill


def _frozen_projections(ctx, part, E, F, coords, gamma):
    """``submersion._oneill`` whose fields VF and HF are split at every
    stencil point with the splitting of ``coords``."""
    s = ctx.splitting_at(coords)
    frozen = SimpleNamespace(map=ctx.map, engine=ctx.engine, splitting_at=lambda c: s)
    return _ONEILL(frozen, part, E, F, coords, gamma)


def _without_christoffel_term(direction, dY, y, gamma):
    """``connection._covariant_from_partials`` without its Christoffel term."""
    return direction @ dY


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


_A_FORMULA = submersion.conformal_a_formula


def _a_formula_with_0_6(ctx, X, Y, coords):
    """``conformal_a_formula`` with 0.6 in place of 1/2: 1.2 times its value."""
    return 1.2 * _A_FORMULA(ctx, X, Y, coords)


def _bracket_dropped(M, engine, X, Y, coords):
    """``lie_bracket`` as ``conformal_a_formula`` calls it, dropped: its
    V[X, Y] term is then 0."""
    return np.zeros(M.dim)


SCENARIOS = tuple(s.scenario_id for s in list_scenarios())
WARPED = ("warped-line", "sphere-warped")
CWS = ("cws-constant-dilation", "cws-incompatible", "cws-variable-dilation", "cws-riemannian",
       "cws-mixed-local")

# name -> (the holders of the helper, its name, the mutant, the scenarios
# that catch it)
MUTANTS = {
    "product-jacobian-columns-swapped": (
        (conformal_warped,), "_block_diagonal", _first_block_columns_swapped, CWS,
    ),
    # on cws-variable-dilation the product is then no longer conformal, and a
    # ConformalityError aborts the scenario
    "warp-power-1.9": (
        (warped,), "_warped_metric", _warp_to_the_power_1_9, WARPED + ("cws-variable-dilation",),
    ),
    # a weak spot: only cws-variable-dilation catches it
    "frozen-projections": (
        (submersion,), "_oneill", _frozen_projections, ("cws-variable-dilation",),
    ),
    "christoffel-term-dropped": (
        (connection, submersion), "_covariant_from_partials", _without_christoffel_term,
        WARPED + CWS[:4],
    ),
    "log-warp-sign-flipped": (
        (warped.WarpedProduct,), "log_warp", _log_warp_sign_flipped, WARPED,
    ),
    # a weak spot: only cws-variable-dilation catches it
    "second-factor-variant-is-the-first": (
        (conformal_warped,), "second_factor_variant_fields", _first_factor_field_twice,
        ("cws-variable-dilation",),
    ),
    # every scenario with a dilation oracle
    "dilation-times-1.01": (
        (SubmersionContext,), "_stacked_dilations", _dilations_times_1_01,
        tuple(s for s in SCENARIOS if s not in ("cws-incompatible", "cws-mixed-local")),
    ),
    # a weak spot: only cws-variable-dilation catches it
    "a-formula-0.6-for-one-half": (
        (suites,), "conformal_a_formula", _a_formula_with_0_6, ("cws-variable-dilation",),
    ),
    "bracket-dropped": (
        (submersion,), "lie_bracket", _bracket_dropped, SCENARIOS,
    ),
}


def _paths(name: str) -> list:
    """The single-point value of the mutated structure at a point of
    ``cws-variable-dilation``'s product, and its value in a point set of two,
    for the defects in a structure with a point-set path."""
    ctx = build_objects("cws-variable-dilation", DiffEngine())["cws"].ctx
    M = ctx.map.source
    p, q = (M.point(M.lower + t * (M.upper - M.lower)) for t in (0.3, 0.6))
    if name == "warp-power-1.9":
        return [M.metric(p), M.metrics_at([p, q])[0]]
    if name == "dilation-times-1.01":
        return [ctx.dilation(p).lambda_sq, ctx.dilations([p, q])[0].lambda_sq]
    if name == "product-jacobian-columns-swapped":
        return [ctx.map.jac(p), ctx.map.jacobians_at([p, q], DiffEngine())[0]]
    return []


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: every catalog submersion has an integrable horizontal "
        "distribution, so V[X, Y] = 0 and no scenario sees the bracket term")))
    if name == "bracket-dropped" else name
    for name in MUTANTS
])
def test_each_mutant_fails_a_gated_check_on_every_scenario_that_runs_it(name, monkeypatch):
    holders, helper, mutant, scenario_ids = MUTANTS[name]
    clean = _paths(name)
    for holder in holders:
        monkeypatch.setattr(holder, helper, mutant)
    # both paths carry the defect
    assert all(not np.array_equal(a, b) for a, b in zip(clean, _paths(name)))
    margin = 0.0
    for scenario_id in scenario_ids:
        report = run_scenario(scenario_id, RunConfig())
        failed = [c for c in report.checks if not c.passed and not c.informational]
        assert failed, f"{name} survives {scenario_id}"
        ratios = [c.max_residual / c.tolerance for c in failed if c.tolerance > 0]
        margin = max([margin] + [r for r in ratios if np.isfinite(r)])
    # the detection margin: the largest residual-to-tolerance ratio
    print(f"{name}: worst ratio {margin:.3g} over {', '.join(scenario_ids)}")
    assert margin > 1.0
