"""Detection power: each injected defect must fail at least one gated check
of ``run_scenario`` at default settings.

A defect is applied to the one helper that both the single-point and the
point-set path of its structure call, so every path carries it. Each defect
runs only on the scenarios that catch it, and the test checks that each of
them does; a defect caught by a single scenario is a weak spot.
"""

import numpy as np
import pytest

from warpgeo import DiffEngine, RunConfig, conformal_warped, warped
from warpgeo.scenarios import build_objects, run_scenario


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


# name -> (module, helper, mutant, the scenarios that catch it)
MUTANTS = {
    "product-jacobian-columns-swapped": (
        conformal_warped, "_block_diagonal", _first_block_columns_swapped,
        ("cws-constant-dilation", "cws-incompatible", "cws-variable-dilation", "cws-riemannian",
         "cws-mixed-local"),
    ),
    # on cws-variable-dilation the product is then no longer conformal, and a
    # ConformalityError aborts the scenario
    "warp-power-1.9": (
        warped, "_warped_metric", _warp_to_the_power_1_9,
        ("warped-line", "sphere-warped", "cws-variable-dilation"),
    ),
}


def _paths(name: str) -> list:
    """The single-point and the point-set value of the mutated structure at
    one point of ``cws-variable-dilation``'s product."""
    cws = build_objects("cws-variable-dilation", DiffEngine())["cws"]
    F = cws.ctx.map
    p = F.source.point(F.source.lower + 0.3 * (F.source.upper - F.source.lower))
    if name == "warp-power-1.9":
        return [F.source.metric(p), F.source.metrics_at([p])[0]]
    return [F.jac(p), F.jacobians_at([p], DiffEngine())[0]]


@pytest.mark.parametrize("name", MUTANTS)
def test_each_mutant_fails_a_gated_check_on_every_scenario_that_runs_it(name, monkeypatch):
    module, helper, mutant, scenario_ids = MUTANTS[name]
    clean = _paths(name)
    monkeypatch.setattr(module, helper, mutant)
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
