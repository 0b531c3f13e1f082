"""Self-tests of the benchmark: tracer completeness, count determinism,
the output contract, the seed argument and the bounds.

    python3 -m pytest bench -q

Every workload runs at its small size here; the full-size figures live in
``bench/BASELINE.json``.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402

wg = worker.load_warpgeo()


def _workload(name: str):
    return worker.WORKLOAD_CLASSES[name](wg, worker.SAMPLES[name]["small"])


def _one_pass(workload, seed: int = 42):
    state = workload.setup(seed)
    return workload.run(state, workload.inputs(state, seed, 0))


@pytest.mark.parametrize("name", worker.WORKLOADS)
def test_tracer_call_counts_equal_cprofile(name):
    workload = _workload(name)
    profile = cProfile.Profile()
    profile.enable()
    _one_pass(workload)
    profile.disable()
    profiled = {key: stat[1] for key, stat in pstats.Stats(profile).stats.items()}

    tr = tracer_mod.Tracer(wg)
    with tr:
        _one_pass(workload)

    functions, methods = tracer_mod.discover(wg)
    targets = list(functions.items()) + [(func, span) for _, _, _, func, span in methods]
    assert len(targets) > 50
    for func, span in targets:
        code = func.__code__
        expected = profiled.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        if span in tracer_mod.LABELLED:
            got = sum(n for s, n in tr.calls.items() if s.startswith(span + "."))
        else:
            got = tr.calls[span]
        assert got == expected, f"{span}: tracer {got}, cProfile {expected}"


def _bindings(value):
    """Every function object reachable from one module- or class-level value."""
    if isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    if isinstance(value, types.FunctionType):
        yield value
        if hasattr(value, "__wrapped__"):
            return  # a tracer wrapper; its closure holds the original by design
        yield from value.__defaults__ or ()
        yield from (cell.cell_contents for cell in value.__closure__ or () if _filled(cell))
    elif isinstance(value, (list, tuple, set, frozenset)):
        yield from value
    elif isinstance(value, dict):
        yield from value.values()


def _filled(cell) -> bool:
    try:
        cell.cell_contents
    except ValueError:
        return False
    return True


def test_tracer_patches_every_binding():
    functions, methods = tracer_mod.discover(wg)
    originals = {id(f) for f in functions} | {id(m[3]) for m in methods}
    assert any(name == "submersion._gram_schmidt" for name in functions.values())
    tr = tracer_mod.Tracer(wg)
    with tr:
        for module in tracer_mod._package_modules(wg):
            for attr, value in vars(module).items():
                owners = [value]
                if isinstance(value, type) and value.__module__.startswith("warpgeo"):
                    owners += list(vars(value).values())
                for owner in owners:
                    for bound in _bindings(owner):
                        assert id(bound) not in originals, f"{module.__name__}.{attr} binds {bound}"
    # and everything is restored afterwards
    for func, name in functions.items():
        module = sys.modules[f"warpgeo.{name.split('.')[0]}"]
        assert getattr(module, func.__name__) is func


@pytest.mark.parametrize("name", worker.WORKLOADS)
def test_counts_repeat_between_traced_runs(name, tmp_path):
    def traced_counts():
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", "42",
             "--seconds", "0", "--trace", "1", "--size", "small", "--trace-dir", str(tmp_path)],
            stdout=subprocess.PIPE, text=True, timeout=170, check=True,
        )
        return json.loads(proc.stdout.strip().splitlines()[-1])["counts"]

    first, second = traced_counts(), traced_counts()
    assert first == second
    assert first["fd.stencil_evals"] > 0


def _contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


SMALL = ("--size", "small")


@pytest.mark.parametrize("name", worker.WORKLOADS)
@pytest.mark.parametrize("seed", [42, 7])
def test_every_workload_passes_all_checks(name, seed):
    result, _ = run.evaluate(name, seed, 0, 0, SMALL)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in _contract()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_trace_reports_every_per_layer_metric(tmp_path):
    result, _ = run.evaluate("connection-central4", 42, 0, 1,
                             SMALL + ("--trace-dir", str(tmp_path)))
    assert result["correct"]
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in _contract()["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert metrics["submersion.splitting_at.calls"]["value"] == 0
    assert metrics["fd.partial.calls"]["value"] > 0


def test_end_to_end_names_match_contract():
    assert [m["name"] for m in _contract()["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in _contract()["per_layer"]] == [s[0] for s in worker.LAYER_SPEC]


def test_bounds_cover_recorded_baseline():
    widest = json.loads((BENCH / "BASELINE.json").read_text())["widest"]
    bounds = {m["name"]: m["bound"] for m in _contract()["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for name, bound in bounds.items():
        assert bound >= widest[name]["widest_gap"], name
        if name != "setup_s":
            assert bound >= 3 * widest[name]["widest_spread"], name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "catalog-default", "--seconds", "1"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
