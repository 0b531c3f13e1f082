"""One workload process of the warpgeo benchmark.

``run.py`` starts this file in a fresh process with the BLAS thread count
pinned to 1; it prints one JSON object as its last line of standard output.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --probe-setup --workload NAME --seed N

Every workload is a closed loop: one caller, each call waiting for the last.
Pass k draws fresh inputs from (seed, k), so a cache that outlives a pass
cannot turn later passes into replays of the first; pass 0 uses the seed
itself, so its report and its counts are a function of ``--seed`` alone.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # the set-up clock starts before numpy or warpgeo load

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

WORKLOADS = ("catalog-default", "connection-central4", "dilation-survey")

# samples per scenario and pass; "small" is for the benchmark's self-tests
SAMPLES = {
    "catalog-default": {"full": 25, "small": 2},
    "connection-central4": {"full": 120, "small": 3},
    "dilation-survey": {"full": 1500, "small": 6},
}
MIN_PASSES = 5

# Pass 0 of every timed run uses this seed, so the report digest and the
# accuracy figure are checked on the same input in every run; later passes
# draw their inputs from --seed.
REFERENCE_SEED = 42

# Host speed on a shared 2-vCPU VM drifts by up to 2x over tens of seconds.
# Every timed interval is rescaled by the speed of a fixed calibration kernel
# run next to it: t_ref = t * KERNEL_REF_S / t_kernel, so times read as
# seconds on a host where the kernel takes KERNEL_REF_S.
KERNEL_REF_S = 0.075

# shortest timed segment between two calibration probes
LAP_S = 0.5

# SHA-256 of `warpgeo verify --all --report json --seed 42` at default settings
SEED42_REPORT_SHA256 = "410524b1ea11b55d35740b0c8df67496be4a304f7d651cf8896272222c3e292f"

CATALOG_IDS = (
    "warped-line",
    "sphere-warped",
    "product-plain",
    "exp-spiral-r4",
    "cws-constant-dilation",
    "cws-incompatible",
    "cws-variable-dilation",
    "cws-riemannian",
    "cws-mixed-local",
)
CONNECTION_IDS = ("warped-line", "sphere-warped", "product-plain")
DILATION_IDS = ("exp-spiral-r4", "cws-variable-dilation", "cws-incompatible")


def load_warpgeo():
    """Import warpgeo from this checkout's ``src``, never from elsewhere."""
    package_dir = SRC / "warpgeo"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no warpgeo sources at {package_dir}")
    sys.path.insert(0, str(SRC))
    import warpgeo
    import warpgeo.cli  # noqa: F401  (loaded up front so the tracer sees it)

    if Path(warpgeo.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit(f"benchmark: imported warpgeo from {warpgeo.__file__}")
    return warpgeo


# ---------------------------------------------------------------------------
# grading: every check record against what its call promises
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """Checks of one pass: how many were attempted, how many came out wrong."""

    attempted: int = 0
    failed: int = 0
    n_samples: int = 0
    ratios: list = field(default_factory=list)  # max_residual / tolerance, gated checks
    errors: list = field(default_factory=list)

    def grade(self, expected_ids, records) -> None:
        """``records`` are check dicts, or None when the call raised."""
        expected_ids = list(expected_ids)
        records = records or []
        produced = {r["check_id"]: r for r in records}
        unexpected = [i for i in produced if i not in expected_ids]
        self.attempted += len(expected_ids) + len(unexpected)
        self.failed += len(unexpected)
        for check_id in expected_ids:
            rec = produced.get(check_id)
            if rec is None:
                self.failed += 1
                continue
            self.n_samples += rec["n_samples"]
            if rec["informational"]:
                continue
            if not rec["passed"]:
                self.failed += 1
            elif not rec["expected_fail"] and rec["tolerance"] > 0:
                ratio = rec["max_residual"] / rec["tolerance"]
                if ratio > 0 and math.isfinite(ratio):
                    self.ratios.append(ratio)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class CatalogDefault:
    """`warpgeo verify --all --report json` in-process, at default settings."""

    name = "catalog-default"

    def __init__(self, wg, samples: int):
        self.wg = wg
        self.samples = samples

    def setup(self, seed: int):
        # what the CLI builds before its first check: objects and sample points
        from warpgeo import sampling, scenarios

        config = self.wg.RunConfig(seed=seed, samples=self.samples)
        engine = config.engine()
        for scenario_id in CATALOG_IDS:
            objs = scenarios.build_objects(scenario_id, engine)
            sampling.sample_points(
                objs["sample_lower"], objs["sample_upper"], config.samples, seed,
                4.0 * config.fd_step,
            )
        return {"first": self.inputs(None, seed, 0)}

    def inputs(self, state, seed: int, k: int):
        return seed + 1_000_003 * k

    def run(self, state, pass_seed: int, lap=None):
        from warpgeo import cli, scenarios

        argv = ["verify", "--all", "--report", "json", "--seed", str(pass_seed)]
        if self.samples != 25:
            argv += ["--samples", str(self.samples)]
        original = scenarios.run_scenario
        if lap is not None:
            def run_scenario(*args, **kwargs):  # marks a segment boundary per scenario
                report = original(*args, **kwargs)
                lap()
                return report

            scenarios.run_scenario = run_scenario
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        finally:
            scenarios.run_scenario = original
        return code, out.getvalue()

    def grade(self, result, tally: Tally) -> None:
        from warpgeo import scenarios

        code, text = result
        by_id = {}
        if text and code in (0, 1):
            by_id = {r["scenario"]: r["checks"] for r in json.loads(text)["reports"]}
        else:
            tally.errors.append(f"verify --all exited {code} without a report")
        for scenario in scenarios.list_scenarios():
            tally.grade(scenario.provides, by_id.get(scenario.scenario_id))


class LibraryWorkload:
    """Suite functions called directly on catalog objects at fresh points."""

    scenario_ids: tuple = ()
    config_kwargs: dict = {}

    def __init__(self, wg, samples: int):
        self.wg = wg
        self.samples = samples
        self.config = wg.RunConfig(samples=samples, **self.config_kwargs)

    def setup(self, seed: int):
        from warpgeo import scenarios

        engine = self.config.engine()
        objects = [scenarios.build_objects(i, engine) for i in self.scenario_ids]
        state = {"engine": engine, "objects": objects}
        state["first"] = self.inputs(state, seed, 0)
        return state

    def inputs(self, state, seed: int, k: int):
        from warpgeo import sampling

        out = []
        for index, objs in enumerate(state["objects"]):
            M = self.manifold(objs)
            coords = sampling.sample_points(
                objs["sample_lower"], objs["sample_upper"], self.samples,
                [seed, k, index], 4.0 * self.config.fd_step,
            )
            rng_seed = [seed, k, index, 1]
            out.append(([M.point(c) for c in coords], rng_seed))
        return out

    def run(self, state, inputs, lap=None):
        import numpy as np

        calls = []
        for objs, (points, rng_seed) in zip(state["objects"], inputs):
            rng = np.random.default_rng(rng_seed)
            calls += self.calls(state["engine"], objs, points, rng)
        records = []
        for expected_ids, thunk in calls:
            try:
                records.append((expected_ids, thunk()))
            except self.wg.GeometryError as exc:
                records.append((expected_ids, exc))
            if lap is not None:
                lap()
        return records

    def grade(self, result, tally: Tally) -> None:
        for expected_ids, records in result:
            if isinstance(records, Exception):
                tally.errors.append(f"{type(records).__name__}: {records}")
                records = None
            tally.grade(expected_ids, [r.to_dict() for r in records] if records else None)


class ConnectionCentral4(LibraryWorkload):
    """Connection identities, leaf/fiber geometry and engine health at central4:
    FD partials, metric evaluations and Christoffel symbols, no splitting."""

    name = "connection-central4"
    scenario_ids = CONNECTION_IDS
    config_kwargs = {"scheme": "central4"}

    def manifold(self, objs):
        return objs["warped"].ambient

    def calls(self, engine, objs, points, rng):
        from warpgeo import fields, suites, warped

        W = objs["warped"]
        f1 = fields.vector_field_library(W.first, rng, 6)
        f2 = fields.vector_field_library(W.second, rng, 6)
        pairs1 = [(f1[2 * i], f1[2 * i + 1]) for i in range(3)]
        pairs2 = [(f2[2 * i], f2[2 * i + 1]) for i in range(3)]
        return [
            (
                ("warped-conn-first-pair", "warped-conn-mixed",
                 "warped-conn-fiber-normal", "warped-conn-fiber-tangent"),
                lambda: warped.verify_warped_connection(
                    W, engine, points, pairs1, pairs2, tolerance=1e-6
                ),
            ),
            (
                ("leaf-totally-geodesic", "fiber-umbilical", "fiber-mean-curvature-warp"),
                lambda: warped.verify_leaf_fiber_geometry(
                    W, engine, points, leaf_tolerance=1e-8, fiber_tolerance=1e-6
                ),
            ),
            (
                ("torsion-free", "metric-compatibility"),
                lambda: suites.engine_health_records(
                    W.ambient, engine, points, rng, torsion_tol=1e-6, compat_tol=1e-5
                ),
            ),
        ]


class DilationSurvey(LibraryWorkload):
    """Splittings, dilations (analytic and FD Jacobians) and dilation
    compatibility at many fresh points: each splitting is needed twice."""

    name = "dilation-survey"
    scenario_ids = DILATION_IDS
    config_kwargs = {}

    def manifold(self, objs):
        return objs["cws"].source.ambient if "cws" in objs else objs["ctx"].map.source

    def calls(self, engine, objs, points, rng):
        from warpgeo import scenarios, suites

        lam = objs["expected_lambda_sq"]
        if "cws" not in objs:
            ctx, ctx_fd = objs["ctx"], objs["ctx_fd"]
            return [
                (("split-decomposition",), lambda: [suites.splitting_records(ctx, points, rng)]),
                (
                    ("conformality", "dilation-value"),
                    lambda: suites.dilation_records(
                        ctx, points, lam, conformality_tol=1e-8, value_tol=1e-8
                    ),
                ),
                (
                    ("fd-conformality", "fd-dilation-value"),
                    lambda: suites.dilation_records(
                        ctx_fd, points, lam, conformality_tol=1e-6, value_tol=1e-6,
                        check_prefix="fd-",
                    ),
                ),
            ]
        cws = objs["cws"]
        conformal = lam is not None
        return [
            (("split-decomposition",), lambda: [suites.splitting_records(cws.ctx, points, rng)]),
            (
                ("conformality", "dilation-value") if conformal else ("conformality",),
                lambda: suites.dilation_records(
                    cws.ctx, points, lam, conformality_tol=1e-6, value_tol=1e-8,
                    expect_conformal=conformal,
                ),
            ),
            (
                ("dilation-compatibility", "compatibility-vs-dilation")
                if conformal else ("dilation-compatibility",),
                # the catalog's own verdict rule, so the grade cannot go stale
                lambda: scenarios._compatibility_records(cws, points, self.config, conformal),
            ),
        ]


WORKLOAD_CLASSES = {
    "catalog-default": CatalogDefault,
    "connection-central4": ConnectionCentral4,
    "dilation-survey": DilationSurvey,
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def report_digest(workload, result):
    if isinstance(workload, CatalogDefault):
        return hashlib.sha256(result[1].encode()).hexdigest()
    return None


def speed_probe() -> float:
    """Seconds taken by a fixed calibration kernel of small numpy and LAPACK
    calls from Python, the same mix of work as the verification passes."""
    import numpy as np

    start = time.perf_counter()
    a = np.arange(16.0).reshape(4, 4) * 0.01 + np.eye(4)
    v = np.ones(4)
    acc = 0.0
    keys = {}
    for i in range(3000):
        b = a + i * 1e-9
        _, s, _ = np.linalg.svd(b)
        g = np.linalg.solve(b, v)
        acc += float(s[0]) + float(g @ v)
        keys[i % 7] = np.asarray([acc, i], dtype=float).tobytes()
    return time.perf_counter() - start


class RefClock:
    """Times one pass at reference host speed.

    The pass is cut at natural boundaries (scenarios, suite calls) into
    segments of at least LAP_S seconds. The calibration kernel runs between
    segments, outside the timed intervals, and each segment is rescaled by
    the mean kernel time on its two sides.
    """

    def __init__(self, kernel_s: float):
        self.kernel_s = kernel_s
        self.kernels: list = []
        self.raw = 0.0
        self.ref = 0.0
        self.start = time.perf_counter()

    def lap(self, final: bool = False) -> None:
        segment = time.perf_counter() - self.start
        if segment < LAP_S and not final:
            return
        kernel_s = speed_probe()
        self.raw += segment
        self.ref += segment * KERNEL_REF_S / (0.5 * (self.kernel_s + kernel_s))
        self.kernel_s = kernel_s
        self.kernels.append(kernel_s)
        self.start = time.perf_counter()


def measure(workload, seed: int, seconds: float) -> dict:
    """Untraced passes until the time is used, at least MIN_PASSES.

    Pass 0 runs on the reference seed's inputs, pass k >= 1 on (seed, k).
    """
    state = workload.setup(REFERENCE_SEED)
    setup_s = time.perf_counter() - T_START
    kernels = [speed_probe()]
    setup_ref_s = setup_s * KERNEL_REF_S / kernels[0]
    walls, ref_walls, rates = [], [], []
    total = Tally()
    first = None
    digest = None
    begin = time.perf_counter()
    k = 0
    while True:
        inputs = state["first"] if k == 0 else workload.inputs(state, seed, k)
        clock = RefClock(kernels[-1])
        result = workload.run(state, inputs, clock.lap)
        clock.lap(final=True)
        kernels += clock.kernels
        wall, ref_wall = clock.raw, clock.ref
        tally = Tally()
        workload.grade(result, tally)
        if k == 0:
            first = tally
            digest = report_digest(workload, result)
        walls.append(wall)
        ref_walls.append(ref_wall)
        rates.append(tally.n_samples / ref_wall)
        total.attempted += tally.attempted
        total.failed += tally.failed
        total.errors += tally.errors
        k += 1
        elapsed = time.perf_counter() - begin
        if k >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            break
    return {
        "setup_s": setup_ref_s,
        "raw_setup_s": setup_s,
        "walls": walls,
        "ref_walls": ref_walls,
        "kernels": kernels,
        "rate": statistics.median(rates),
        "attempted": total.attempted,
        "failed": total.failed,
        "errors": total.errors[:20],
        "worst_tol_ratio": max(first.ratios, default=0.0),
        "report_sha256": digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# per-layer metrics: (metric name, statistic, traced function, unit)
def _layer_spec() -> list:
    spec = [
        ("fd.partial.calls", "calls", "fd.partial", "count"),
        ("fd.stencil_evals", "stencil", None, "count"),
        ("fd.partial.self_s", "self", "fd.partial", "s"),
        ("manifold.metric_at.calls", "calls", "manifold.metric_at", "count"),
        ("manifold.metric_at.reuse", "reuse", "manifold.metric_at", "calls/key"),
        ("manifold.metric_at.self_s", "self", "manifold.metric_at", "s"),
        ("connection.christoffel.calls", "calls", "connection.christoffel", "count"),
        ("connection.christoffel.self_s", "self", "connection.christoffel", "s"),
        ("connection.covariant_derivative_dir.calls", "calls",
         "connection.covariant_derivative_dir", "count"),
        ("connection.covariant_derivative_dir.self_s", "self",
         "connection.covariant_derivative_dir", "s"),
        ("connection.lie_bracket.calls", "calls", "connection.lie_bracket", "count"),
        ("submersion.splitting_at.calls", "calls", "submersion.splitting_at", "count"),
        ("submersion.splitting_at.reuse", "reuse", "submersion.splitting_at", "calls/key"),
        ("submersion.splitting_at.self_s", "self", "submersion.splitting_at", "s"),
        ("submersion.jacobian_at.calls", "calls", "submersion.jacobian_at", "count"),
        ("submersion.dilation.calls", "calls", "submersion.dilation", "count"),
    ]
    totals = [
        "submersion.oneill_a",
        "submersion.oneill_t",
        "submersion.conformal_a_formula",
        "suites.engine_health_records",
        "suites.splitting_records",
        "suites.dilation_records",
        "suites.a_crossval_records",
        "suites.t_umbilicity_records",
        "suites.fd_consistency_record",
        "warped.verify_warped_connection",
        "warped.verify_leaf_fiber_geometry",
        "warped.verify_metric_blocks",
        "conformal_warped.verify_kernel_product",
        "conformal_warped.compatibility_report",
        "conformal_warped.verify_first_factor_a_identity",
        "conformal_warped.verify_second_factor_a_identity",
        "conformal_warped.verify_riemannian_reduction",
        "conformal_warped.verify_rescaled_riemannian",
        "conformal_warped.fiber_geometry_report",
    ]
    totals += [f"scenarios.run_scenario.{i}" for i in CATALOG_IDS]
    totals += ["scenarios.build_objects", "report.reports_to_json"]
    spec += [(f"{name}.total_s", "total", name, "s") for name in totals]
    spec += [
        ("checks.worst_tol_ratio", "worst", None, "ratio"),
        ("trace.untraced_wall_s", "untraced", None, "s"),
        ("trace.wall_s", "traced", None, "s"),
        ("trace.overhead_s", "overhead", None, "s"),
    ]
    return spec


LAYER_SPEC = _layer_spec()


def timed_pass(workload, seed: int, tracer=None):
    """One pass on freshly built objects at the seed, timed at reference speed.

    With a tracer, set-up and pass run traced; the calibration kernel runs
    between scenarios or suite calls, outside every reported span.
    """
    with tracer or contextlib.nullcontext():
        state = workload.setup(seed)
        clock = RefClock(speed_probe())
        result = workload.run(state, state["first"], clock.lap)
        clock.lap(final=True)
    return result, clock.ref


def trace(workload, seed: int, seconds: float, out_dir: Path) -> dict:
    """Pairs of (untraced, traced) passes over fresh objects at the seed.

    A discarded warm-up pass comes first, and the pairs alternate which
    side runs first, so the overhead compares warm passes with each other.
    """
    from tracer import Tracer

    untraced, traced, tracers = [], [], []
    total = Tally()
    first = None
    digests = set()
    timed_pass(workload, seed)
    begin = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        tracer = Tracer(workload.wg)
        order = (None, tracer) if len(tracers) % 2 == 0 else (tracer, None)
        for side in order:
            outcome, wall = timed_pass(workload, seed, side)
            (untraced if side is None else traced).append(wall)
            tally = Tally()
            workload.grade(outcome, tally)
            if first is None:
                first = tally
            total.attempted += tally.attempted
            total.failed += tally.failed
            total.errors += tally.errors
            digests.add(report_digest(workload, outcome))
        tracers.append(tracer)
        pair = time.perf_counter() - pair_start
        if time.perf_counter() - begin + pair > seconds:
            break

    def stat(kind: str, name, tr) -> float:
        if kind == "calls":
            return tr.calls[name]
        if kind == "reuse":
            return tr.reuse(name)
        if kind == "self":
            return tr.self_time[name]
        if kind == "total":
            return tr.total[name]
        return tr.stencil_evals

    fixed = {
        "worst": max(first.ratios, default=0.0),
        "untraced": statistics.median(untraced),
        "traced": statistics.median(traced),
    }
    fixed["overhead"] = fixed["traced"] - fixed["untraced"]
    metrics = {}
    for metric, kind, name, unit in LAYER_SPEC:
        if kind in fixed:
            value = fixed[kind]
        elif kind in ("calls", "reuse", "stencil"):
            value = stat(kind, name, tracers[0])  # counts repeat exactly; take the first
        else:
            value = statistics.median(stat(kind, name, tr) for tr in tracers)
        metrics[metric] = {"value": value, "unit": unit}

    out_dir.mkdir(parents=True, exist_ok=True)
    dump = {"workload": workload.name, "seed": seed, **tracers[0].span_dump(),
            "counts": tracers[0].count_snapshot()}
    (out_dir / f"trace-{workload.name}-seed{seed}.json").write_text(json.dumps(dump))
    return {
        "metrics": metrics,
        "counts": tracers[0].count_snapshot(),
        "attempted": total.attempted,
        "failed": total.failed,
        "errors": total.errors[:20],
        # tracing must not change the program's output
        "output_stable": len(digests) == 1,
        "passes": len(traced),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one warpgeo benchmark workload")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--probe-setup", action="store_true")
    parser.add_argument("--trace-dir", default=str(BENCH.parent / ".bench_out"))
    args = parser.parse_args(argv)

    wg = load_warpgeo()
    workload = WORKLOAD_CLASSES[args.workload](wg, SAMPLES[args.workload][args.size])
    if args.probe_setup:
        workload.setup(REFERENCE_SEED)
        setup_s = time.perf_counter() - T_START
        result = {"setup_s": setup_s * KERNEL_REF_S / speed_probe(), "raw_setup_s": setup_s}
    elif args.trace:
        result = trace(workload, args.seed, args.seconds, Path(args.trace_dir))
    else:
        result = measure(workload, args.seed, args.seconds)
        result["output_stable"] = args.size == "small" or result["report_sha256"] in (
            None, SEED42_REPORT_SHA256
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
