"""Benchmark launcher for warpgeo.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each workload runs in its own fresh
process (``bench/worker.py``), one at a time, with every BLAS and OpenMP
thread pool pinned to one thread here, before numpy loads; the package
itself pins nothing. Without tracing the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics instead. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("catalog-default", "connection-central4", "dilation-survey")
SETUP_PROBES = 4  # extra fresh processes that only set up, for the setup_s median
DEADLINE_S = 175.0

PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "sample_checks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_share": "share",
    "worst_tol_ratio": "ratio",
}


class BenchError(Exception):
    pass


def run_worker(args: list, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, **PINNED_THREADS)
    env.pop("PYTHONPATH", None)  # the worker imports warpgeo from this checkout only
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, str(BENCH / "worker.py")] + args
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def end_to_end(result: dict, setup_samples: list) -> dict:
    values = {
        "wall_s": statistics.median(result["ref_walls"]),
        "sample_checks_per_s": result["rate"],
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_share": 1.0 - result["failed"] / result["attempted"],
        "worst_tol_ratio": result["worst_tol_ratio"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def evaluate(workload: str, seed: int, seconds: float, trace: int, worker_args=()):
    """Run one workload; return the result object and the lines for people."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), *worker_args]
    if trace:
        result = run_worker(common + ["--seconds", str(seconds), "--trace", "1"], deadline)
        metrics = result["metrics"]
        summary = [f"passes per side: {result['passes']}"]
    else:
        probes = [run_worker(common + ["--probe-setup"], deadline) for _ in range(SETUP_PROBES)]
        result = run_worker(common + ["--seconds", str(seconds), "--trace", "0"], deadline)
        probes.append(result)
        metrics = end_to_end(result, [p["setup_s"] for p in probes])
        summary = [
            f"wall_s passes: {len(result['walls'])}",
            f"raw wall_s (unscaled median): {statistics.median(result['walls'])!r} s",
            f"calibration kernel median: {statistics.median(result['kernels'])!r} s",
            f"raw setup_s (unscaled median): "
            f"{statistics.median(p['raw_setup_s'] for p in probes)!r} s",
            f"setup_s samples: {len(probes)}",
            f"failed_share: {result['failed'] / result['attempted']!r}",
        ]
        if result["report_sha256"]:
            summary.append(f"report_sha256 (pass 0): {result['report_sha256']}")

    lines = [f"check error: {error}" for error in result["errors"]]
    lines.append(f"workload {workload}, seed {seed}, trace {trace}")
    lines += [f"  {name} = {m['value']!r} {m['unit']}" for name, m in metrics.items()]
    lines += [f"  {line}" for line in summary]
    lines.append(f"  checks: {result['attempted']} attempted, {result['failed']} failed")
    return {
        "correct": result["failed"] == 0 and result["output_stable"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "warpgeo" / "__init__.py").is_file():
        print(f"benchmark: no warpgeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        result, lines = evaluate(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
