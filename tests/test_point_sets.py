"""Point-set splittings and dilations (``splittings_at``, ``dilations``):
bit-identical to the single-point calls on every catalog context, the same
first error in input order, and one memo entry per point shared with
``splitting_at`` and ``dilation``; plus the numpy property the stacked
kernel rests on."""

from contextlib import nullcontext
from dataclasses import fields

import numpy as np
import pytest

from warpgeo import (
    ChartManifold,
    DiffEngine,
    RankError,
    SmoothMap,
    SubmersionContext,
    evaluation_scope,
)
from warpgeo.fd import SCHEMES
from warpgeo.sampling import sample_points
from warpgeo.scenarios import build_objects, list_scenarios
from warpgeo.submersion import Splitting

SIZES = (0, 1, 64, 65)

STACKED_KERNEL = (
    "the stacked kernel of SubmersionContext.splittings_at/dilations is only "
    "bit-identical to splitting_at/dilation while numpy's stacked calls equal "
    "its per-matrix calls"
)


def _catalog_contexts(engine):
    """(context, points) for every submersion context of the catalog: the
    scenario maps, the FD-Jacobian map and both factor maps of each product."""
    out = []
    for scenario in list_scenarios():
        objs = build_objects(scenario.scenario_id, engine)
        coords = sample_points(objs["sample_lower"], objs["sample_upper"], max(SIZES), 11,
                               4.0 * engine.step)
        for key in ("ctx", "ctx_fd"):
            if key in objs:
                ctx = objs[key]
                out.append((ctx, [ctx.map.source.point(c) for c in coords]))
        cws = objs.get("cws")
        if cws is not None:
            halves = [cws.source.split_coords(c) for c in coords]
            for ctx, k in ((cws.ctx1, 0), (cws.ctx2, 1)):
                out.append((ctx, [ctx.map.source.point(h[k]) for h in halves]))
    return out


def _outcome(compute):
    try:
        return compute()
    except Exception as exc:
        return type(exc), str(exc)


def _assert_same_splitting(want, got):
    for f in fields(Splitting):
        a, b = getattr(want, f.name), getattr(got, f.name)
        if isinstance(a, np.ndarray):
            # same layout too, so that products taken later are the same calls
            assert np.array_equal(a, b) and a.strides == b.strides, f.name
        else:
            assert a == b, f.name


@pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_point_sets_bit_identical_to_single_points(scheme, scoped, monkeypatch):
    contexts = _catalog_contexts(DiffEngine(scheme=scheme))
    assert any(ctx.map.jac is None for ctx, _ in contexts)  # an FD Jacobian
    assert any(ctx.map.source.dim == ctx.map.target.dim for ctx, _ in contexts)  # no fiber
    want = [
        ([ctx.splitting_at(p) for p in points], [ctx.dilation(p) for p in points])
        for ctx, points in contexts
    ]

    def no_fallback(self, coords):
        raise AssertionError("the stacked kernel fell back to one point at a time")

    monkeypatch.setattr(SubmersionContext, "_splitting", no_fallback)
    monkeypatch.setattr(SubmersionContext, "_dilation", no_fallback)
    for (ctx, points), (splittings, dilations) in zip(contexts, want):
        for n in SIZES:
            with evaluation_scope() if scoped else nullcontext():
                got_s = ctx.splittings_at(points[:n])
                got_d = ctx.dilations(points[:n])
            assert len(got_s) == len(got_d) == n
            for w, g in zip(splittings, got_s):
                _assert_same_splitting(w, g)
            for w, g in zip(dilations, got_d):
                assert np.array_equal(w.coords, g.coords)
                assert (w.lambda_sq, w.anisotropy) == (g.lambda_sq, g.anisotropy)


def _guarded_map(calls):
    """R^2 -> R: the squared radius, rank-deficient at the origin; its map and
    Jacobian raise ValueError at x = 0.5. Appends "fn" or "jac" to calls."""
    def fn(c):
        calls.append("fn")
        if c[0] == 0.5:
            raise ValueError(f"map undefined at {c}")
        return np.array([c[0] ** 2 + c[1] ** 2])

    def jac(c):
        calls.append("jac")
        if c[0] == 0.5:
            raise ValueError(f"Jacobian undefined at {c}")
        return np.array([[2.0 * c[0], 2.0 * c[1]]])

    M = ChartManifold.euclidean(2, [-1, -1], [1, 1])
    N = ChartManifold.euclidean(1, [-5], [5])
    return M, SubmersionContext(SmoothMap(M, N, fn, jac), DiffEngine())


@pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
@pytest.mark.parametrize("order, error", [
    ([[0.2, 0.1], [0.0, 0.0], [0.5, 0.3], [0.3, 0.4]], RankError),
    ([[0.2, 0.1], [0.5, 0.3], [0.0, 0.0], [0.3, 0.4]], ValueError),
], ids=["rank-deficient-first", "raising-map-first"])
def test_first_failing_point_raises_as_the_single_point_loop(order, error, scoped):
    M, ctx = _guarded_map([])
    points = [M.point(c) for c in order]
    loops = (
        (lambda: [ctx.splitting_at(p) for p in points],
         lambda: ctx.splittings_at(points)),
        (lambda: [ctx.dilation(p) for p in points], lambda: ctx.dilations(points)),
    )
    for single, point_set in loops:
        with evaluation_scope() if scoped else nullcontext():
            want = _outcome(single)
        with evaluation_scope() if scoped else nullcontext():
            got = _outcome(point_set)
        assert want[0] is error and got == want


def test_point_set_and_single_point_share_memo_entries():
    calls = []
    M, ctx = _guarded_map(calls)
    coords = [np.array([0.1 * k, -0.2]) for k in range(1, 5)]
    points = [M.point(c) for c in coords]
    with evaluation_scope():
        first = ctx.splitting_at(coords[0])
        splittings = ctx.splittings_at(coords + [coords[2].copy()])
        assert splittings[0] is first and splittings[4] is splittings[2]
        assert all(ctx.splitting_at(c) is s for c, s in zip(coords, splittings))
        dilations = ctx.dilations(points)  # its splittings are the ones above
        assert calls.count("jac") == len(coords)
        assert all(ctx.dilation(p) is d for p, d in zip(points, dilations))
        lone = ctx.dilation(M.point([0.7, 0.1]))
        assert ctx.dilations([M.point([0.7, 0.1])])[0] is lone
        assert ctx.splittings_at([[0.7, 0.1]])[0] is ctx.splitting_at([0.7, 0.1])
    # nothing is stored outside a scope
    assert ctx.splittings_at(coords[:1])[0] is not ctx.splittings_at(coords[:1])[0]
    assert ctx.dilations(points[:1])[0] is not ctx.dilation(points[0])


def test_errors_are_not_stored_and_earlier_points_are():
    calls = []
    M, ctx = _guarded_map(calls)
    points = [M.point(c) for c in ([0.2, 0.1], [0.0, 0.0])]
    with evaluation_scope():
        for _ in range(3):
            with pytest.raises(RankError):
                ctx.splittings_at(points)
            with pytest.raises(RankError):
                ctx.dilations(points)
        # the point before the failing one was stored, as a loop would store it
        n = len(calls)
        ctx.splitting_at(points[0])
        ctx.dilation(points[0])
        assert len(calls) == n


def test_numpy_stacked_calls_equal_per_matrix_calls():
    rng = np.random.default_rng(20261018)
    for m, n in ((1, 1), (1, 2), (2, 4), (3, 5), (5, 5)):
        N = 17
        J = rng.standard_normal((N, m, n))
        A = rng.standard_normal((N, n, n))
        G = A @ A.transpose(0, 2, 1) + np.eye(n)
        B = rng.standard_normal((N, n, m))
        u, v = rng.standard_normal((2, N, n))
        Gt = G[:, :m, :m]
        W = A[:, m:]  # a row block, as the kernel slices its right singular vectors
        cases = {
            "svd": (lambda: np.linalg.svd(J), lambda i: np.linalg.svd(J[i])),
            "solve": (lambda: np.linalg.solve(G, B), lambda i: np.linalg.solve(G[i], B[i])),
            "eigvalsh": (lambda: np.linalg.eigvalsh(G), lambda i: np.linalg.eigvalsh(G[i])),
            "(m x n)(n x m)": (lambda: J @ B, lambda i: J[i] @ B[i]),
            "B^T G B": (lambda: B.transpose(0, 2, 1) @ G @ B, lambda i: B[i].T @ G[i] @ B[i]),
            "W G W^T": (
                lambda: W @ G @ W.transpose(0, 2, 1), lambda i: W[i] @ G[i] @ W[i].T,
            ),
            "(1 x n)(n x n)(n x 1)": (
                lambda: (u[:, None, :] @ G @ v[:, :, None])[:, 0, 0],
                lambda i: u[i] @ G[i] @ v[i],
            ),
            "(J B)^T Gt (J B)": (
                lambda: (J @ B).transpose(0, 2, 1) @ Gt @ (J @ B),
                lambda i: (J[i] @ B[i]).T @ Gt[i] @ (J[i] @ B[i]),
            ),
            "trace": (lambda: np.trace(G, axis1=1, axis2=2), lambda i: np.trace(G[i])),
        }
        for name, (stacked, single) in cases.items():
            whole = stacked()
            for i in range(N):
                one = single(i)
                same = all(np.array_equal(a[i], b) for a, b in zip(whole, one)) \
                    if isinstance(one, tuple) else np.array_equal(whole[i], one)
                assert same, f"{name} on ({m}, {n}) matrices, matrix {i}: {STACKED_KERNEL}"
