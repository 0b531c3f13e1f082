"""Span tracer that instruments the warpgeo package from outside.

``Tracer.install`` replaces every public function and public method of every
``warpgeo`` module with a timing wrapper, in every place the function is
bound: the defining module, each module that imported it by name
(``from .connection import christoffel``) and the package namespace.
Methods are patched on their class, which covers every instance.
``uninstall`` restores the originals. Nothing under ``src/`` is edited.

Each call opens a span (name, start, end, parent). Self time is the span's
duration minus the time its child spans cover. Spans of the coarse layers
(scenarios, suites, verifiers, O'Neill tensors) are kept individually; all
calls are also aggregated per (name, parent), which is enough for the
high-frequency leaves (``metric_at``, ``DiffEngine.partial``, ...).
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

import numpy as np

# private helpers traced anyway, because several modules import them by name
PRIVATE_TRACED = {"submersion._gram_schmidt"}

# every call of these is kept as an individual span
FULL_SPAN_MODULES = {"cli", "scenarios", "suites", "warped", "conformal_warped", "report"}
FULL_SPAN_NAMES = {"submersion.oneill_a", "submersion.oneill_t", "submersion.conformal_a_formula"}

# reuse is calls per distinct (receiver, coords) key
KEYED = {"manifold.metric_at", "submersion.splitting_at"}

# DiffEngine entry points whose function argument is evaluated on the stencil
FD_ENTRY = {"partial", "partials", "jacobian", "directional"}

# run_scenario spans carry the scenario id in their name
LABELLED = {"scenarios.run_scenario"}


class _CountedFn:
    """A function handed to the FD engine, counting its evaluations."""

    __slots__ = ("fn", "tracer")

    def __init__(self, fn, tracer):
        self.fn = fn
        self.tracer = tracer

    def __call__(self, coords):
        self.tracer.stencil_evals += 1
        return self.fn(coords)


def _package_modules(package) -> list:
    prefix = package.__name__ + "."
    names = sorted(n for n in sys.modules if n.startswith(prefix))
    return [package] + [sys.modules[n] for n in names]


def discover(package) -> tuple[dict, list]:
    """Functions and methods to wrap.

    Returns ``(functions, methods)``: ``functions`` maps each module-level
    function object to its span name, ``methods`` lists
    ``(cls, attr, raw_descriptor, function, span_name)``.
    """
    functions: dict = {}
    methods: list = []
    for module in _package_modules(package)[1:]:
        short = module.__name__.rpartition(".")[2]
        entries = []
        for attr, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                if not attr.startswith("_") or f"{short}.{attr}" in PRIVATE_TRACED:
                    entries.append((None, attr, obj, obj))
            elif isinstance(obj, type):
                for mattr, raw in vars(obj).items():
                    if mattr.startswith("_"):
                        continue
                    func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                    if isinstance(func, types.FunctionType):
                        entries.append((obj, mattr, raw, func))
        # span names are <module>.<function>, qualified by class on a clash
        seen = defaultdict(int)
        for _, attr, _, _ in entries:
            seen[attr] += 1
        for cls, attr, raw, func in entries:
            name = f"{short}.{attr}" if seen[attr] == 1 else f"{short}.{cls.__name__}.{attr}"
            if cls is None:
                functions[func] = name
            else:
                methods.append((cls, attr, raw, func, name))
    return functions, methods


class Tracer:
    """Collects spans and per-function statistics while installed."""

    def __init__(self, package):
        self.package = package
        self.stack: list = []  # open spans: [name, time covered by children]
        self.calls: dict = defaultdict(int)
        self.total: dict = defaultdict(float)  # outermost calls only
        self.self_time: dict = defaultdict(float)
        self.depth: dict = defaultdict(int)
        self.edges: dict = {}  # (name, parent) -> [calls, total, self]
        self.spans: list = []  # (name, start, end, parent) of coarse layers
        self.keys: dict = {name: set() for name in KEYED}
        self.keep_alive: dict = {}  # receivers of keyed calls, so ids stay unique
        self.stencil_evals = 0
        self._patches: list = []

    # -- statistics ---------------------------------------------------------

    def reuse(self, name: str) -> float:
        unique = len(self.keys.get(name, ()))
        return self.calls[name] / unique if unique else 0.0

    def count_snapshot(self) -> dict:
        """Every deterministic count the tracer holds."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        for name in KEYED:
            out[f"{name}.unique"] = len(self.keys[name])
        out["fd.stencil_evals"] = self.stencil_evals
        return out

    def span_dump(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "edges": [
                {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(self.edges.items(), key=lambda kv: str(kv[0]))
            ],
        }

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, func, name: str, fd_entry: bool = False):
        tracer = self
        stack = self.stack
        depth = self.depth
        perf = time.perf_counter
        keyed = name in KEYED
        labelled = name in LABELLED
        full = name in FULL_SPAN_NAMES or name.partition(".")[0] in FULL_SPAN_MODULES

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = f"{name}.{args[0] if args else kwargs['scenario_id']}" if labelled else name
            if keyed:
                receiver = args[0]
                coords = args[1] if len(args) > 1 else kwargs["coords"]
                tracer.keep_alive[id(receiver)] = receiver
                tracer.keys[name].add((id(receiver), np.asarray(coords, dtype=float).tobytes()))
            if fd_entry:
                if len(args) > 1:
                    if not isinstance(args[1], _CountedFn):
                        args = (args[0], _CountedFn(args[1], tracer)) + args[2:]
                elif not isinstance(kwargs["fn"], _CountedFn):
                    kwargs["fn"] = _CountedFn(kwargs["fn"], tracer)
            frame = [span, 0.0]
            stack.append(frame)
            depth[span] += 1
            start = perf()
            try:
                return func(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                depth[span] -= 1
                tracer._close(span, start, end, frame[1], full)

        return wrapper

    def _close(self, span: str, start: float, end: float, child: float, full: bool) -> None:
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += duration
        parent_name = parent[0] if parent is not None else None
        own = duration - child
        self.calls[span] += 1
        self.self_time[span] += own
        if self.depth[span] == 0:
            self.total[span] += duration
        edge = self.edges.get((span, parent_name))
        if edge is None:
            self.edges[(span, parent_name)] = [1, duration, own]
        else:
            edge[0] += 1
            edge[1] += duration
            edge[2] += own
        if full:
            self.spans.append((span, start, end, parent_name))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        functions, methods = discover(self.package)
        wrappers = {func: self._wrap(func, name) for func, name in functions.items()}
        for module in _package_modules(self.package):
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        for cls, attr, raw, func, name in methods:
            wrapped = self._wrap(func, name, fd_entry=cls.__name__ == "DiffEngine" and attr in FD_ENTRY)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            elif isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self.keep_alive.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
