"""Call-site-aware span tracer for the floqsens modules.

Modules bind each other's functions by name (``from .linalg import
expm_hermitian``), so wrapping a function in its home module alone would
miss most calls.  ``Tracer.install`` wraps every public function and public
plain method of the layer modules, then rebinds every name in every
``floqsens`` module (and every class namespace) that still points at an
original, and checks that none is left.

Spans (name, start, end, parent) are appended to in-memory lists and only
written out by ``save``.  A span's self time is its duration minus the
durations of its direct children; the process runs one thread, so spans
nest strictly.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

import numpy as np

LAYERS = ("linalg", "engine", "pseudospin", "sensors", "clusters", "config", "scans", "cli")


def _public_callables(module):
    """(owner, attribute, qualified name, function) for the module's own public code."""
    short = module.__name__.rsplit(".", 1)[1]
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, attr, f"{short}.{attr}", obj
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for meth, fn in list(vars(obj).items()):
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield obj, meth, f"{short}.{attr}.{meth}", fn


def _tau_samples(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["tau"]))


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# Counters taken at a span's end from its arguments: name -> (counter, fn).
COUNTERS = {
    "pseudospin.coherence_analytic": ("pseudospin.tau_samples", _tau_samples),
    "pseudospin.envelope": ("pseudospin.tau_samples", _tau_samples),
    "scans.write_csv": ("scans.bytes_written", _file_bytes),
    "scans.write_pgm": ("scans.bytes_written", _file_bytes),
    "scans.write_manifest": ("scans.bytes_written", _file_bytes),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.reset()

    def reset(self):
        """Drop recorded spans and counters; the wrappers stay installed."""
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.stack: list[int] = []
        self.counters = {counter: 0 for counter, _ in COUNTERS.values()}

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counter, count = COUNTERS.get(name, (None, None))
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(self.stack[-1] if self.stack else -1)
            self.span_end.append(0.0)
            self.stack.append(idx)
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = clock()
                self.stack.pop()
            if counter is not None:
                self.counters[counter] += count(args, kwargs, result)
            return result

        return wrapper

    def install(self, package: str = "floqsens") -> None:
        """Wrap the layers' public code and rebind every reference to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        # Keyed by id of the original; each wrapper keeps its original alive,
        # so no other object can take one of these ids.
        wrappers = {}
        for layer in LAYERS:
            for owner, attr, name, fn in _public_callables(sys.modules[f"{package}.{layer}"]):
                wrappers[id(fn)] = self._wrap(name, fn)
                setattr(owner, attr, wrappers[id(fn)])
        namespaces = modules + [obj for m in modules for obj in vars(m).values()
                                if inspect.isclass(obj) and obj.__module__.startswith(package)]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    setattr(ns, attr, wrappers[id(obj)])
        left = [f"{getattr(ns, '__name__', ns)}.{attr}" for ns in namespaces
                for attr, obj in vars(ns).items() if id(obj) in wrappers]
        if left:
            raise RuntimeError(f"unwrapped originals remain: {left}")

    def spans(self) -> dict[str, np.ndarray]:
        return {"name": np.asarray(self.span_name, dtype=np.int32),
                "start": np.asarray(self.span_start),
                "end": np.asarray(self.span_end),
                "parent": np.asarray(self.span_parent, dtype=np.int64)}

    def self_times(self) -> np.ndarray:
        s = self.spans()
        dur = s["end"] - s["start"]
        child = s["parent"] >= 0
        covered = np.bincount(s["parent"][child], weights=dur[child], minlength=dur.size)
        return dur - covered

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.spans())
