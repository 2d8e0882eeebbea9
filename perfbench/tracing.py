"""Spans around the calls into each ``sigeq`` module, recorded from outside.

``Tracer.installed()`` wraps every public function of ``sigeq`` and its
modules, at its definition and at every module-level name that refers to it
(modules bind their imports when they load, so wrapping only the definition
would miss most calls).  It also wraps the spec constructors and the Monte
Carlo internals that split ``mc_estimate`` into drawing, inverse CDF and
compare.  Everything is restored on exit.

A span records its name, its parent on the same thread's stack and the
operation it ran under.  Counts and self times (a span's duration minus its
children's) are accumulated for every span; raw spans are kept in memory only
while ``keep_spans`` is set and are written out by ``write_spans``.
"""

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("init", "detection", "equilibrium", "team", "stackelberg", "nash",
          "vector", "avgpower", "oracle", "cli")
SPEC_TYPES = ("AgentParams", "NoiseModel", "PeakPower", "AveragePower", "GameSpec")
# private or foreign callables the oracle split needs
ORACLE_PARTS = ("ndtri", "_chunk_normals", "_count_h1_scalar", "_count_h1_vector")
COUNT_JOBS = ("oracle._count_h1_scalar", "oracle._count_h1_vector")
CLI_HEAVY = ("init.solve", "oracle.mc_estimate")


def _modules():
    return [importlib.import_module("sigeq" if layer == "init" else f"sigeq.{layer}")
            for layer in LAYERS]


def _span_name(fn) -> str:
    module = fn.__module__
    layer = "init" if module == "sigeq" else module.rpartition(".")[2]
    return f"{layer}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.samples = 0          # observations simulated by the Monte Carlo jobs
        self.cli_heavy_ns = 0     # solve and mc_estimate time inside cli.main
        self.spans = []
        self.keep_spans = True
        self.active = False
        self.op = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            frame = [name, 0, next(self._ids)]  # name, children's ns, span id
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                self._close(frame, t0, t1, stack, args)
        return traced

    def _close(self, frame, t0: int, t1: int, stack: list, args) -> None:
        name, child_ns, span_id = frame
        dur = t1 - t0
        with self._lock:
            self.calls[name] += 1
            self.total_ns[name] += dur
            self.self_ns[name] += dur - child_ns
            if stack:
                stack[-1][1] += dur
            if name in COUNT_JOBS:
                self.samples += args[3]
            if name in CLI_HEAVY and any(f[0] == "cli.main" for f in stack):
                self.cli_heavy_ns += dur
            if self.keep_spans:
                parent = stack[-1][2] if stack else None
                self.spans.append((span_id, parent, self.op, name, t0, t1))

    @contextmanager
    def installed(self):
        modules = _modules()
        wrapped = {}  # id(original) -> (original, wrapper)
        for mod in modules:
            for obj in vars(mod).values():
                if (inspect.isfunction(obj) and obj.__module__.startswith("sigeq")
                        and not obj.__name__.startswith("_")):
                    wrapped.setdefault(id(obj), (obj, self.wrap(_span_name(obj), obj)))
        oracle = modules[LAYERS.index("oracle")]
        for attr in ORACLE_PARTS:
            obj = getattr(oracle, attr)
            wrapped.setdefault(id(obj), (obj, self.wrap(f"oracle.{attr}", obj)))
        restore = []
        for mod in modules:
            namespace = vars(mod)
            for attr, obj in list(namespace.items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    restore.append((namespace, attr, obj))
                    namespace[attr] = entry[1]
                elif isinstance(obj, dict):
                    # tables of callables, such as the CLI's preset builders
                    for key, value in list(obj.items()):
                        if isinstance(value, tuple) and any(id(v) in wrapped for v in value):
                            restore.append((obj, key, value))
                            obj[key] = tuple(wrapped[id(v)][1] if id(v) in wrapped else v
                                             for v in value)
        detection = modules[LAYERS.index("detection")]
        for type_name in SPEC_TYPES:
            cls = getattr(detection, type_name)
            original = cls.__init__
            restore.append((cls, "__init__", original))
            cls.__init__ = self.wrap(f"detection.{type_name}", original)
        try:
            yield self
        finally:
            for target, key, original in reversed(restore):
                if isinstance(target, dict):
                    target[key] = original
                else:
                    setattr(target, key, original)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                     "name": name, "start_ns": t0, "end_ns": t1}))
                fh.write("\n")
