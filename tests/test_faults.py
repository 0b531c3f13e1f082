"""Faulty user callables are reported, not raised.

Every chart metric, map ``fn``, map ``jac`` and ``ScalarField.fn`` of a
scenario's objects (the charts, maps and fields its builder makes or the
catalog hands it) returns NaN, inf or a wrong shape (two stacked copies of
its value) at about one evaluated point in five, chosen by a hash of the
point's coordinates. Every run must still return a report, must not pass
overall and must name a point in its notes. The named cases are faults that
once escaped ``run_scenario`` or passed it; the last tests check calls of
the input boundary on their own, on the map of ``tests/boundary_maps.py``
whose datum is bad from the second point on.
"""

import re
import zlib
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from boundary_maps import BOUNDARY_FAULTS, POINTS, bad_from_second_point
from warpgeo import (
    ChartManifold,
    DegenerateMetricError,
    DiffEngine,
    DomainError,
    GeometryError,
    RankError,
    RunConfig,
    ScalarField,
    SmoothMap,
    SubmersionContext,
    WarpPositivityError,
    build_warped_product,
    evaluation_scope,
    gradient,
    lift,
)
from warpgeo import scenarios
from warpgeo.manifold import check_scalar_field
from warpgeo.scenarios import list_scenarios, run_scenario

pytestmark = pytest.mark.boundary

CONFIG = RunConfig(samples=3)
ENGINE = DiffEngine()

FAULTS = {
    "nan": lambda value: np.full(np.shape(value), np.nan),
    "inf": lambda value: np.full(np.shape(value), np.inf),
    "shape": lambda value: np.stack([value, value]),
}

# callable kind -> the class that holds it and its attribute
KINDS = {
    "metric": (ChartManifold, "metric"),
    "fn": (SmoothMap, "fn"),
    "jac": (SmoothMap, "jac"),
    "scalar": (ScalarField, "fn"),
}

# a point as numpy prints it, named by an error message
POINT = re.compile(r"(at|of|point) \[[^\]]+\]")


def _faulty(fn, fault):
    """``fn``, except that its value is ``fault(value)`` at about one point
    in five."""

    def faulty(coords):
        value = fn(coords)
        if zlib.crc32(np.asarray(coords, dtype=float).tobytes()) % 5 == 0:
            return fault(value)
        return value

    return faulty


def _instances(obj, cls, seen: set):
    """Every instance of ``cls`` reachable from ``obj`` through dicts,
    lists, tuples and dataclass fields, each once."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, cls):
        yield obj
    if isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (list, tuple)):
        children = obj
    elif is_dataclass(obj) and not isinstance(obj, type):
        children = [getattr(obj, f.name) for f in fields(obj)]
    else:
        return
    for child in children:
        yield from _instances(child, cls, seen)


def _set(monkeypatch, obj, attr: str, fn) -> None:
    """Replace a callable of a frozen instance until the test ends."""
    monkeypatch.setitem(vars(obj), attr, fn)


def _run_edited(monkeypatch, scenario_id: str, edit):
    """``run_scenario`` on the objects of the scenario's builder after
    ``edit(objs)``, which may replace their callables in place."""
    scenario = scenarios._BY_ID[scenario_id]

    def builder(engine):
        objs = scenario.builder(engine)
        edit(objs)
        return objs

    monkeypatch.setitem(scenarios._BY_ID, scenario_id, replace(scenario, builder=builder))
    return run_scenario(scenario_id, CONFIG)


def _assert_reported(report) -> None:
    assert not report.overall_pass
    notes = [c.notes for c in report.checks if not c.passed]
    assert any(POINT.search(n) for n in notes), notes


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("kind", KINDS)
def test_every_faulty_callable_is_reported(kind, fault, monkeypatch):
    cls, attr = KINDS[kind]
    without = []
    for scenario in list_scenarios():
        wrapped = []

        def edit(objs):
            for obj in _instances(objs, cls, set()):
                if getattr(obj, attr) is not None:
                    _set(monkeypatch, obj, attr, _faulty(getattr(obj, attr), FAULTS[fault]))
                    wrapped.append(obj)

        report = _run_edited(monkeypatch, scenario.scenario_id, edit)
        if wrapped:
            _assert_reported(report)
        else:
            without.append(scenario.scenario_id)
    # only the plain submersion has no scalar field
    assert without == (["exp-spiral-r4"] if kind == "scalar" else [])


def _aborted_by(report, error: type) -> str:
    """The note of a report whose scenario ``error`` aborted."""
    _assert_reported(report)
    note = report.checks[0].notes
    assert note.startswith(f"scenario aborted by {error.__name__}: "), note
    return note


def test_a_transposed_jacobian_aborts_with_rank_error(monkeypatch):
    # numpy's ValueError escaped run_scenario from the splitting kernel
    M = ChartManifold.euclidean(2)
    N = ChartManifold.euclidean(1)
    smap = SmoothMap(M, N, lambda c: c[:1], lambda c: np.array([[1.0], [0.0]]))
    with pytest.raises(RankError, match=r"Jacobian of shape \(2, 1\) at \[0.1 0.2\]"):
        SubmersionContext(smap, DiffEngine()).splitting_at(M.point([0.1, 0.2]))

    def transpose(smap):
        jac = smap.jac
        _set(monkeypatch, smap, "jac", lambda c: jac(c).T)

    # the map of a plain submersion, and a factor map inside a product's Jacobian
    report = _run_edited(monkeypatch, "exp-spiral-r4", lambda objs: transpose(objs["ctx"].map))
    _aborted_by(report, RankError)
    report = _run_edited(monkeypatch, "cws-constant-dilation",
                         lambda objs: transpose(objs["cws"].ctx1.map))
    _aborted_by(report, RankError)


def test_a_vector_valued_scalar_field_aborts_with_geometry_error(monkeypatch):
    # float() of the vector raised TypeError, which escaped run_scenario
    field = ScalarField(lambda c: np.array([1.0, 2.0]))
    with pytest.raises(GeometryError, match=r"scalar field of shape \(2,\) at \[0.1\]"):
        field([0.1])

    def vector_lambda1(objs):
        lambda1 = objs["cws"].lambda1
        fn = lambda1.fn
        _set(monkeypatch, lambda1, "fn", lambda c: np.array([fn(c), fn(c)]))

    report = _run_edited(monkeypatch, "cws-variable-dilation", vector_lambda1)
    assert "scalar field of shape (2,)" in _aborted_by(report, GeometryError)


def test_nan_first_factor_images_abort_cws_variable_dilation(monkeypatch):
    # images NaN for x > 0.3 left the scenario passing: the dilation kernel
    # read the target metric, which is constant, at the unchecked images
    def nan_images(objs):
        phi1 = objs["cws"].ctx1.map
        fn = phi1.fn
        _set(monkeypatch, phi1, "fn", lambda c: np.array([np.nan]) if c[0] > 0.3 else fn(c))

    note = _aborted_by(_run_edited(monkeypatch, "cws-variable-dilation", nan_images),
                       DomainError)
    assert "image [nan] of" in note and "outside target domain" in note


# the input boundary, call by call


@pytest.mark.parametrize("fault", BOUNDARY_FAULTS)
def test_a_single_point_conversion_checks_the_shape_only(fault):
    # finiteness and the target box are checked on the stack that the
    # point-set calls read
    datum, bad, error = BOUNDARY_FAULTS[fault]
    F = bad_from_second_point(**{datum: bad}).map
    convert = F if datum == "fn" else (lambda c: F.jacobian_at(c, ENGINE))
    if "of shape" in error[1]:
        with pytest.raises(error[0]) as exc:
            convert(POINTS[1])
        assert str(exc.value) == error[1]
    else:
        np.testing.assert_array_equal(convert(POINTS[1]), np.asarray(bad(POINTS[1]), dtype=float))


def test_a_non_finite_fd_jacobian_is_named_by_the_fd_consistency_check():
    # FD through a NaN image; the analytic Jacobian is fine. Taking the
    # larger of 0.0 and a NaN gap read 0.0, so fd-consistency passed
    ctx = bad_from_second_point(fn=lambda c: [np.nan])
    with pytest.raises(RankError, match=re.escape("Jacobian not finite at [0.3 0.4]")):
        ctx.map.check_jacobian(ENGINE, POINTS)


@pytest.mark.parametrize("fault", [f for f, (datum, _, _) in BOUNDARY_FAULTS.items()
                                   if datum == "jac"])
def test_the_fd_consistency_check_names_the_first_bad_analytic_jacobian(fault):
    _, bad, (error, message) = BOUNDARY_FAULTS[fault]
    with pytest.raises(error) as exc:
        bad_from_second_point(jac=bad).map.check_jacobian(ENGINE, POINTS)
    assert str(exc.value) == message


def test_the_splitting_kernel_checks_a_memoized_unchecked_metric():
    # metrics_at shares its memo entries with metric_at(c, check=False), so
    # the finiteness test runs on the stack the kernel reads, hits included
    ctx = bad_from_second_point(metric=lambda c: np.full((2, 2), np.nan))
    M = ctx.map.source
    message = re.escape("metric not finite at [0.3 0.4]")
    with evaluation_scope():
        assert np.isnan(M.metric_at(POINTS[1], check=False)).all()  # stored unchecked
        for call in (lambda: ctx.splitting_at(POINTS[1]), lambda: ctx.splittings_at(POINTS)):
            with pytest.raises(DegenerateMetricError, match=message):
                call()


def test_a_scalar_field_is_checked_on_every_path_that_evaluates_it():
    M = ChartManifold.euclidean(2, -1.0, 1.0)
    vector = ScalarField(lambda c: c)
    W = build_warped_product(M, M, ScalarField.constant(1.0))
    lifted = lift(W, "first", vector)
    message = re.escape("scalar field of shape (2,) at [0.3 0.4]")
    for call in (lambda: vector(POINTS[1]), lambda: lifted(np.concatenate(POINTS[1:]))):
        with pytest.raises(GeometryError, match=message):
            call()
    # an FD partial evaluates the field at its stencil points
    with pytest.raises(GeometryError, match=re.escape("scalar field of shape (2,) at [0.3")):
        gradient(M, ENGINE, vector, POINTS[1])


def test_a_nan_fd_gap_is_not_dropped():
    M = ChartManifold.euclidean(2, -1.0, 1.0)
    phi = ScalarField(lambda c: 1.0 if c[0] < 0.2 else np.nan, lambda c: np.zeros(2))
    assert np.isnan(check_scalar_field(M, ENGINE, phi, POINTS))


def test_an_infinite_warp_raises_warp_positivity_in_the_ambient_metric():
    # inf * 0 made a NaN entry, with numpy's "invalid value" warning
    M = ChartManifold.euclidean(1, -1.0, 1.0)
    W = build_warped_product(M, M, ScalarField(lambda c: np.inf))
    with pytest.raises(WarpPositivityError,
                       match=re.escape("warp inf is not in (0, inf) at first-factor point [0.3]")):
        W.ambient.metric_at([0.3, 0.4], check=False)
