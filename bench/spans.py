"""Spans around the public functions of immcda's layers, kept in memory.

The tracer wraps every public function defined in each layer module and
rebinds every name in the package that refers to it, so calls through a
module attribute (``imm.kf_update``) and through a name imported into
another module (``cli.run_monte_carlo``) are both seen. Functions are found
by inspection: one that a later change deletes is simply not wrapped, and
its metrics read as absent.

A span is the function's id, its parent span, and its start and end in
nanoseconds. Self time is a span's duration minus that of its direct
children; spans nest because everything runs on one thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("scenario", "imm", "avoidance", "dynamics", "traceio", "cli")
PACKAGE = "immcda"


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children.

    parent holds the index of each span's parent, or -1 for a root.
    """
    dur = (np.asarray(end) - np.asarray(start)).astype(np.float64)
    parent = np.asarray(parent)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered


class Tracer:
    """Records a span for every call of a wrapped layer function."""

    def __init__(self, layers: tuple[str, ...] = LAYERS):
        self.layers = layers
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._originals: list = []
        self._wrappers: list = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.fallback_flags = 0
        self._stack: list[int] = []
        for layer in layers:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    self._add(layer, name, obj)

    def _add(self, layer: str, name: str, func) -> None:
        fid = len(self.names)
        self.names.append(f"{layer}.{name}")
        self.layer_of.append(layer)
        self._originals.append(func)
        fn, parent, start, end, stack = self.fn, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns
        counts_flags = self.names[fid] == "imm.imm_step"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(fn)
            fn.append(fid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counts_flags:
                self.fallback_flags += len(getattr(result, "flags", ()))
            return result

        self._wrappers.append(wrapper)

    @contextlib.contextmanager
    def installed(self):
        """Rebinds every package name that refers to a wrapped function."""
        by_id = {id(f): w for f, w in zip(self._originals, self._wrappers)}
        patched = []
        modules = [
            m for n, m in list(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapper = by_id.get(id(obj))
                if wrapper is not None:
                    patched.append((module, name, obj))
                    setattr(module, name, wrapper)
        try:
            yield self
        finally:
            for module, name, obj in patched:
                setattr(module, name, obj)

    def mark(self) -> tuple[int, int]:
        """Span count and fallback-flag count so far."""
        return len(self.fn), self.fallback_flags

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        # copies, so the recording arrays stay free to grow
        return (
            np.frombuffer(self.fn, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.int64).copy(),
            np.frombuffer(self.end, dtype=np.int64).copy(),
        )

    def summarize(self, prefix_mark: tuple[int, int], prefix_steps: int, steps: int) -> dict:
        """Per-layer and per-function figures over everything recorded.

        Call counts and fallback flags are taken up to prefix_mark, over
        prefix_steps simulated steps, so they repeat exactly; times are
        taken over all spans and normalised by all steps simulated.
        """
        fn, parent, start, end = self.arrays()
        n = len(self.names)
        own = self_times(parent, start, end)
        self_ns = np.bincount(fn, weights=own, minlength=n)
        incl_ns = np.bincount(fn, weights=(end - start).astype(np.float64), minlength=n)
        calls = np.bincount(fn, minlength=n)
        prefix_calls = np.bincount(fn[: prefix_mark[0]], minlength=n)
        total_self = float(own.sum()) or 1.0
        layers = {}
        for layer in self.layers:
            idx = [i for i, owner in enumerate(self.layer_of) if owner == layer]
            layers[layer] = {
                "calls_per_step": float(prefix_calls[idx].sum()) / prefix_steps,
                "self_us_per_step": float(self_ns[idx].sum()) / 1e3 / steps,
                "self_share": float(self_ns[idx].sum()) / total_self,
            }
        functions = {
            name: {
                "calls": int(calls[i]),
                "us_per_call": float(incl_ns[i]) / 1e3 / calls[i] if calls[i] else 0.0,
                "self_us_per_call": float(self_ns[i]) / 1e3 / calls[i] if calls[i] else 0.0,
                "prefix_calls": int(prefix_calls[i]),
            }
            for i, name in enumerate(self.names)
        }
        return {
            "layers": layers,
            "functions": functions,
            "fallback_flags_per_step": prefix_mark[1] / prefix_steps,
        }
