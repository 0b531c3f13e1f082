"""The stencil warm-up of the O'Neill suites: each case is compared with the
same run whose ``warm_stencils`` does nothing."""

import numpy as np
import pytest

from warpgeo import RunConfig, SmoothMap, SubmersionContext, VectorField
from warpgeo import evaluation_scope, oneill_t, submersion
from warpgeo.errors import StencilError
from warpgeo.fd import DiffEngine
from warpgeo.manifold import _MEMO
from warpgeo.scenarios import _points, build_objects, list_scenarios, run_scenario
from warpgeo.suites import a_crossval_records, t_umbilicity_records

ENGINE = DiffEngine()
KERNELS = ("_splitting", "_stacked_splittings", "_dilation", "_stacked_dilations")


def _no_warm_up(monkeypatch):
    monkeypatch.setattr(SubmersionContext, "warm_stencils", lambda self, *a, **k: None)


def _count_kernels(monkeypatch) -> dict:
    """Counts the calls of each splitting and dilation kernel from now on."""
    counts = dict.fromkeys(KERNELS, 0)
    for name in KERNELS:
        kernel = getattr(SubmersionContext, name)

        def counted(self, coords, name=name, kernel=kernel):
            counts[name] += 1
            return kernel(self, coords)

        monkeypatch.setattr(SubmersionContext, name, counted)
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

    def run():
        before = dict(counts)
        records = (
            a_crossval_records(ctx, points, np.random.default_rng(1))
            + [t_umbilicity_records(ctx, points, np.random.default_rng(2))]
        )
        return records, {k: counts[k] - before[k] for k in KERNELS}

    warm, plain = _with_and_without_warm_up(run, monkeypatch)
    assert warm == plain


def _inject_rank_error(monkeypatch, bad: np.ndarray):
    """The Jacobian of every map is zero at the coordinates ``bad``."""
    jacobian_at = SmoothMap.jacobian_at

    def patched(self, coords, engine):
        J = jacobian_at(self, coords, engine)
        c = np.asarray(coords, dtype=float)
        return np.zeros_like(J) if c.shape == bad.shape and np.array_equal(c, bad) else J

    monkeypatch.setattr(SmoothMap, "jacobian_at", patched)


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
    # skipped axis is exercised on the tensor: T along the vertical axis 1
    ctx, _ = _warped_line(0)
    M = ctx.map.source
    p = M.point([float(M.lower[0]) + 1e-10, 0.3])  # no room along axis 0
    with pytest.raises(StencilError):
        ENGINE.stencil_points(p, M.lower, M.upper, (0,))
    u = VectorField.constant([0.0, 1.0])
    gamma = np.zeros((2, 2, 2))
    counts = _count_kernels(monkeypatch)

    def run():
        with evaluation_scope():
            ctx.warm_stencils([p], (0, 1))
            before = counts["_splitting"]
            return oneill_t(ctx, u, u, p, gamma).tobytes(), counts["_splitting"] - before

    (warm, warm_singles), (plain, plain_singles) = _with_and_without_warm_up(run, monkeypatch)
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
    assert warm["_splitting"] <= 600 and warm["_dilation"] <= 50
    # without it, the stencil points of the O'Neill suites are computed one by one
    assert plain["_splitting"] > 1500 and plain["_dilation"] > 1000
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

    def spy_many(owner, coords_seq, tag, compute_many, compute):
        record(owner, coords_seq, tag)
        return memoized_many(owner, coords_seq, tag, compute_many, compute)

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
