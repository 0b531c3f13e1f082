"""Record the benchmark baseline: two sets of ten timed runs per workload,
then one traced run per workload.

    python3 bench/baseline.py [--out bench/BASELINE.json]

Set 1 runs every workload at seeds 1-10, set 2 runs them all again at seeds
11-20, so the two sets of one workload lie about twenty minutes apart. Each
run is ``run.py`` for ``run_seconds`` of ``BENCHMARK.json``. For every
end-to-end metric the file records each set's ten values, median, quartiles
and spread (quartile distance over median), the gap between the two set
medians, and the widest of each over the workloads, from which the bounds
in ``BENCHMARK.json`` are set.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import WORKLOADS  # noqa: E402

RUNS = 10
SETS = 2


def launch(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list, float]:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1], time.monotonic() - start


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def timed_set(seeds: list, seconds: int) -> dict:
    out = {}
    for workload in WORKLOADS:
        runs, notes, durations = [], [], []
        for seed in seeds:
            result, lines, duration = launch(workload, seed, seconds, 0)
            durations.append(duration)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
            runs.append(result)
            notes.append([line.strip() for line in lines if "raw" in line or "kernel" in line])
            print(workload, seed, {k: v["value"] for k, v in result["metrics"].items()},
                  file=sys.stderr, flush=True)
        out[workload] = {
            "end_to_end": {
                name: summarize([r["metrics"][name]["value"] for r in runs])
                for name in runs[0]["metrics"]
            },
            "unscaled": notes,
            "checks_attempted": [r["attempted"] for r in runs],
            "checks_failed": [r["failed"] for r in runs],
            "run_s": durations,  # whole run.py process, set-up probes included
        }
    return out


def widest(contract: dict, sets: list) -> dict:
    """Per metric: the widest spread in any set and the widest gap between
    the two set medians of one workload, in either direction."""
    out = {}
    for metric in contract["end_to_end"]:
        name = metric["name"]
        per_workload = [[s["workloads"][w]["end_to_end"][name] for s in sets] for w in WORKLOADS]
        spread = max(m["spread"] for pair in per_workload for m in pair)
        gap = max(
            abs(b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
            for a, b in per_workload
        )
        out[name] = {"widest_spread": spread, "widest_gap": gap}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(BENCH / "BASELINE.json"))
    args = parser.parse_args()
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = contract["run_seconds"]

    sets = []
    for k in range(SETS):
        seeds = list(range(1 + k * RUNS, 1 + (k + 1) * RUNS))
        sets.append({"seeds": seeds, "workloads": timed_set(seeds, seconds)})
    traced = {}
    for workload in WORKLOADS:
        result, _, _ = launch(workload, 42, seconds, 1)
        traced[workload] = {"correct": result["correct"],
                            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    out = {
        "host": f"{platform.machine()}, {platform.python_implementation()} "
                f"{platform.python_version()}",
        "seconds": seconds,
        "sets": sets,
        "widest": widest(contract, sets),
        "traced_seed42": traced,
    }
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    for name, row in out["widest"].items():
        print(f"{name}: widest spread {row['widest_spread']:.4f}, "
              f"widest gap between sets {row['widest_gap']:.4f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
