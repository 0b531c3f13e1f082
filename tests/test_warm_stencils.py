"""The stencil warm-up of the O'Neill suites: each case is compared with the
same run whose ``warm_stencils`` does nothing. Outside a scope the warm-up
computes nothing, and each O'Neill suite opens a scope of its own."""

import numpy as np
import pytest

from warpgeo import RunConfig, SmoothMap, SubmersionContext, VectorField
from warpgeo import evaluation_scope, manifold, oneill_t, submersion
from warpgeo.errors import StencilError
from warpgeo.fd import DiffEngine
from warpgeo.manifold import _MEMO
from warpgeo.scenarios import _points, build_objects, list_scenarios, run_scenario
from warpgeo.conformal_warped import (
    factor_vertical_bases,
    fiber_geometry_report,
    verify_first_factor_a_identity,
    verify_second_factor_a_identity,
)
from warpgeo.submersion import fiber_mean_curvature
from warpgeo.suites import a_crossval_records, horizontal_pairs, t_umbilicity_records

ENGINE = DiffEngine()
# single-point misses (keyed by memo tag), then point-set kernel calls
KERNELS = ("splitting", "dilation", "_stacked_splittings", "_stacked_dilations")


def _no_warm_up(monkeypatch):
    monkeypatch.setattr(SubmersionContext, "warm_stencils", lambda self, *a, **k: None)


def _count_kernels(monkeypatch) -> dict:
    """Counts from now on the splittings and dilations that ``splitting_at``
    and ``dilation``, or a point-set call of one point, compute on a memo
    miss, and the other calls of the stacked kernels; a single-point miss is
    a stack of one, and it counts only as a miss."""
    counts = dict.fromkeys(KERNELS, 0)
    single = [0]  # > 0 while a single-point miss is computed
    memoized = manifold._memoized

    def spy(owner, coords, tag, compute, *args):
        if tag not in KERNELS:  # a metric or a Christoffel entry
            return memoized(owner, coords, tag, compute, *args)

        def counted(*a):
            counts[tag] += 1
            single[0] += 1
            try:
                return compute(*a)
            finally:
                single[0] -= 1

        return memoized(owner, coords, tag, counted, *args)

    # splitting_at and dilation call submersion's binding, a set of one
    # point manifold's own
    for module in (submersion, manifold):
        monkeypatch.setattr(module, "_memoized", spy)
    for name in KERNELS[2:]:
        kernel = getattr(SubmersionContext, name)

        def stacked(self, coords_list, name=name, kernel=kernel):
            counts[name] += not single[0]
            return kernel(self, coords_list)

        monkeypatch.setattr(SubmersionContext, name, stacked)
    return counts


def _outcome(call):
    """``("ok", value)``, or the type and message of what ``call`` raised."""
    try:
        return "ok", call()
    except Exception as exc:  # the outcome is what the test compares
        return type(exc), str(exc)


def _with_and_without_warm_up(run, monkeypatch):
    with_warm_up = run()
    with monkeypatch.context() as m:
        _no_warm_up(m)
        return with_warm_up, run()


def _warped_line(n):
    objs = build_objects("warped-line", ENGINE)
    rng = np.random.default_rng(3)
    coords = rng.uniform(objs["sample_lower"], objs["sample_upper"], size=(n, 2))
    return objs["ctx"], [objs["ctx"].map.source.point(c) for c in coords]


def test_outside_a_scope_the_warm_up_computes_nothing(monkeypatch):
    ctx, points = _warped_line(4)
    counts = _count_kernels(monkeypatch)
    ctx.warm_stencils(points, range(2), dilations=True)
    ctx.warm_stencils(points, range(2))
    assert set(counts.values()) == {0}


# each O'Neill suite, and fiber_mean_curvature, at the points of a cws
ONEILL_CALLS = {
    "a_crossval_records": lambda cws, pts: a_crossval_records(
        cws.ctx, pts, np.random.default_rng(1)),
    "t_umbilicity_records": lambda cws, pts: t_umbilicity_records(
        cws.ctx, pts, np.random.default_rng(2)),
    "verify_first_factor_a_identity": lambda cws, pts: verify_first_factor_a_identity(
        cws, pts, horizontal_pairs(cws.ctx1, np.random.default_rng(3), 2)),
    "verify_second_factor_a_identity": lambda cws, pts: verify_second_factor_a_identity(
        cws, pts, horizontal_pairs(cws.ctx2, np.random.default_rng(4), 2)),
    "fiber_geometry_report": lambda cws, pts: fiber_geometry_report(cws, pts, True, False),
    "fiber_mean_curvature": lambda cws, pts: fiber_mean_curvature(
        cws.ctx, factor_vertical_bases(cws, pts[0])[1], pts[0]).tobytes(),
}


@pytest.mark.parametrize("name", ONEILL_CALLS)
def test_outside_a_scope_an_oneill_call_opens_its_own(name, monkeypatch):
    config = RunConfig(samples=3)
    objs = build_objects("cws-variable-dilation", config.engine())
    points = _points(objs, config)
    counts = _count_kernels(monkeypatch)

    def run():
        before = dict(counts)
        value = repr(ONEILL_CALLS[name](objs["cws"], points))
        return value, {k: counts[k] - before[k] for k in KERNELS}

    def scoped():
        with evaluation_scope():
            return run()

    (outside, outside_counts), (inside, inside_counts) = run(), scoped()
    assert outside == inside
    assert outside_counts == inside_counts
    # each suite warms its stencils up; fiber_mean_curvature has no warm-up
    assert (outside_counts["_stacked_splittings"] > 0) == (name != "fiber_mean_curvature")


def _inject_rank_error(monkeypatch, bad: np.ndarray):
    """The Jacobian of every map is zero at the coordinates ``bad``, as the
    splitting kernel reads it: through ``SmoothMap.jacobians_at``."""
    jacobians_at = SmoothMap.jacobians_at

    def patched(self, coords_seq, engine):
        J = jacobians_at(self, coords_seq, engine)
        for i, c in enumerate(coords_seq):
            c = np.asarray(c, dtype=float)
            if c.shape == bad.shape and np.array_equal(c, bad):
                J[i] = 0.0
        return J

    monkeypatch.setattr(SmoothMap, "jacobians_at", patched)


# (scenario, sample, axis, the scenario aborts): a stencil point that the
# O'Neill suites use, and one on an axis that none of them differentiates
INJECTIONS = [
    ("warped-line", 3, 0, True),
    ("warped-line", 5, 1, True),
    ("cws-variable-dilation", 2, 3, True),
    ("cws-incompatible", 1, 3, True),
    ("cws-mixed-local", 4, 4, False),
]


@pytest.mark.parametrize("scenario, sample, axis, aborts", INJECTIONS)
def test_a_rank_error_at_one_stencil_point_changes_nothing(
    scenario, sample, axis, aborts, monkeypatch
):
    config = RunConfig(samples=6)
    objs = build_objects(scenario, config.engine())
    M = objs["ctx"].map.source
    point = _points(objs, config)[sample]
    bad = config.engine().stencil_points(point, M.lower, M.upper, (axis,))[0]
    _inject_rank_error(monkeypatch, bad)
    warm, plain = _with_and_without_warm_up(
        lambda: run_scenario(scenario, config).to_json(), monkeypatch
    )
    assert warm == plain
    assert ("scenario aborted by RankError" in warm) == aborts


def test_a_stencil_that_does_not_fit_on_a_skipped_axis_changes_nothing(monkeypatch):
    # christoffel symbols need every axis at a suite's base point, so the
    # skipped axis is exercised on the tensor, with zero symbols: T along the
    # vertical axis 1
    ctx, _ = _warped_line(0)
    M = ctx.map.source
    p = M.point([float(M.lower[0]) + 1e-10, 0.3])  # no room along axis 0
    with pytest.raises(StencilError):
        ENGINE.stencil_points(p, M.lower, M.upper, (0,))
    u = VectorField.constant([0.0, 1.0])
    counts = _count_kernels(monkeypatch)

    def run():
        with evaluation_scope():
            ctx.warm_stencils([p], (0, 1))
            before = counts["splitting"]
            return oneill_t(ctx, u, u, p).tobytes(), counts["splitting"] - before

    with monkeypatch.context() as m:
        m.setattr(submersion, "christoffels",
                  lambda M, engine, coords: [np.zeros((2, 2, 2)) for _ in coords])
        (warm, warm_singles), (plain, plain_singles) = _with_and_without_warm_up(run, m)
    assert warm == plain
    # axis 1 was still warmed: only the base point is computed on its own
    assert (warm_singles, plain_singles) == (1, 3)

    def suite():
        with evaluation_scope():
            return a_crossval_records(ctx, [p], np.random.default_rng(0))

    warm, plain = _with_and_without_warm_up(lambda: _outcome(suite), monkeypatch)
    assert warm == plain and warm[0] is StencilError


def test_a_rank_error_on_an_axis_the_tensor_skips_changes_nothing(monkeypatch):
    ctx, (p,) = _warped_line(1)
    M = ctx.map.source
    _inject_rank_error(monkeypatch, ENGINE.stencil_points(p, M.lower, M.upper, (0,))[0])
    u = VectorField.constant([0.0, 1.0])  # T along the vertical axis 1 only

    def run():
        with evaluation_scope():
            ctx.warm_stencils([p], (0, 1))  # the block with axis 0 fails
            return oneill_t(ctx, u, u, p).tobytes()

    warm, plain = _with_and_without_warm_up(run, monkeypatch)
    assert warm == plain


def _catalog_kernel_counts(monkeypatch):
    counts = _count_kernels(monkeypatch)
    for s in list_scenarios():
        run_scenario(s.scenario_id, RunConfig())
    return dict(counts)


def test_the_catalog_computes_few_single_point_kernels(monkeypatch):
    warm, plain = _with_and_without_warm_up(
        lambda: _catalog_kernel_counts(monkeypatch), monkeypatch
    )
    # every stencil point of the catalog's O'Neill suites is warmed as a set
    assert warm["splitting"] == 0 and warm["dilation"] == 0
    # without it, the dilations that the A formula differentiates are computed
    # one by one, each with its own splitting where none is stored; the
    # O'Neill kernels' split forms fetch their stencil points' splittings as
    # sets
    assert plain["dilation"] > 1000 and 0 < plain["splitting"] < plain["dilation"]
    assert warm["_stacked_splittings"] > plain["_stacked_splittings"]
    assert warm["_stacked_dilations"] > plain["_stacked_dilations"]


def test_every_warmed_entry_is_looked_up(monkeypatch):
    lookups, warmed, warming = set(), set(), [0]
    memoized, memoized_many = submersion._memoized, submersion._memoized_many

    def record(owner, coords_seq, tag):
        if not warming[0]:
            lookups.update((id(owner), np.asarray(c, float).tobytes(), tag) for c in coords_seq)

    def spy(owner, coords, tag, compute, *args):
        record(owner, [coords], tag)
        return memoized(owner, coords, tag, compute, *args)

    def spy_many(owner, coords_seq, tag, compute_many):
        record(owner, coords_seq, tag)
        return memoized_many(owner, coords_seq, tag, compute_many)

    warm_stencils = SubmersionContext.warm_stencils

    def spy_warm(self, points, axes, dilations=False):
        cache = _MEMO.get().get(id(self), (None, {}))[1]
        before = set(cache)
        warming[0] += 1
        try:
            warm_stencils(self, points, axes, dilations)
        finally:
            warming[0] -= 1
        cache = _MEMO.get()[id(self)][1]
        tag = "dilation" if dilations else "splitting"
        warmed.update((id(self), key, t) for key, t in set(cache) - before if t == tag)

    monkeypatch.setattr(submersion, "_memoized", spy)
    monkeypatch.setattr(submersion, "_memoized_many", spy_many)
    monkeypatch.setattr(SubmersionContext, "warm_stencils", spy_warm)
    total = 0
    for s in list_scenarios():
        lookups.clear()
        warmed.clear()
        run_scenario(s.scenario_id, RunConfig())
        assert warmed <= lookups, (s.scenario_id, len(warmed - lookups))
        total += len(warmed)
    assert total > 1500  # thousands of stencil points are warmed
