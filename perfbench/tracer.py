"""Outside-in tracer for ``couplersim``.

The tracer wraps, from outside the package, every public function of each
``couplersim`` module and a few numpy/scipy kernels the package calls.  A
wrapped call records a span ``(name, start, end, parent)`` in memory; the
per-layer metrics are computed from the spans after the run.

Modules that bind a wrapped object under their own name (``protocols``
imports ``coupler_frequency``, ``cli`` imports ``floquet`` functions,
``rbsim`` imports ``scipy.linalg.expm``) are patched too, so calls through
either name are traced.  Everything is restored by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict

#: layer name -> module.  The layers are the package's modules.
MODULES = {
    "cli": "couplersim.cli",
    "protocols": "couplersim.protocols",
    "floquet": "couplersim.floquet",
    "rbsim": "couplersim.rbsim",
    "dynamics": "couplersim.dynamics",
    "circuit": "couplersim.circuit",
    "numerics": "couplersim.numerics",
    "presets": "couplersim.presets",
}

#: kernel name -> (module, attribute).
KERNELS = {
    "eigh": ("numpy.linalg", "eigh"),
    "einsum": ("numpy", "einsum"),
    "expm": ("scipy.linalg", "expm"),
    "least_squares": ("scipy.optimize", "least_squares"),
}


def _eigh_matrices(args, kwargs, result) -> dict:
    a = args[0] if args else kwargs.get("a")
    shape = getattr(a, "shape", ())
    return {"kernel.eigh.matrices": math.prod(shape[:-2]) if len(shape) > 2 else 1}


def _least_squares_nfev(args, kwargs, result) -> dict:
    return {"numerics.least_squares.nfev": int(getattr(result, "nfev", 0))}


COUNTERS = {"kernel.eigh": _eigh_matrices, "kernel.least_squares": _least_squares_nfev}


class Tracer:
    """Span store plus the patching that feeds it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # (name, start, end, parent index or -1)
        self.counters = defaultdict(float)
        self.wrapped = set()     # span names that were installed
        self._stack = []
        self._patches = []       # (namespace object, attribute, original)

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        counter = COUNTERS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counters[key] += value
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of each layer module and each kernel."""
        targets = {}   # id(original) -> (original, wrapper)
        package = []
        for layer, modname in MODULES.items():
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                continue
            package.append(mod)
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != modname):
                    continue
                name = f"{layer}.{attr}"
                targets[id(obj)] = (obj, self.wrap(name, obj))
                self.wrapped.add(name)
        for kernel, (modname, attr) in KERNELS.items():
            mod = importlib.import_module(modname)
            obj = getattr(mod, attr, None)
            if obj is None:
                continue
            name = f"kernel.{kernel}"
            targets[id(obj)] = (obj, self.wrap(name, obj))
            self.wrapped.add(name)
            self._patch(mod, attr, targets[id(obj)][1])
        package.append(importlib.import_module("couplersim"))
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def _patch(self, namespace, attr: str, value) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def aggregate(spans: list) -> dict:
    """Per span name: ``calls``, ``s`` and ``self_s``.

    ``s`` sums the spans that have no ancestor of the same name, so a
    recursive call is not counted twice.  ``self_s`` sums each span's
    duration minus the durations of its direct children.
    """
    return _rollup(spans, lambda name: name)


def layer_totals(spans: list) -> dict:
    """The same per layer, the part of a span name before the first dot."""
    return _rollup(spans, lambda name: name.split(".", 1)[0])


def _rollup(spans: list, group) -> dict:
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        key = group(name)
        row = out[key]
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        while parent >= 0 and group(spans[parent][0]) != key:
            parent = spans[parent][3]
        if parent < 0:
            row["s"] += end - start
    return dict(out)
