"""Layer tracing from outside the program.

Tracer.install() replaces each layer module's public functions with a
wrapper that records a span (name, start, end, parent, op) and, for a few
functions, work counters computed from the arguments and the result. Every
binding the program looks a function up through is replaced, not only the
defining module's: `from .model import tilt_matrix` leaves a second binding
in criteria and laplace. uninstall() puts every original back.

Spans are kept in flat in-memory arrays and written out once, at the end.
"""

from __future__ import annotations

import array
import functools
import gzip
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "infdiv"
# the layers; verify and errors do no benchmarked work
LAYERS = ("cli", "criteria", "tracesum", "matcore", "model", "sampling", "laplace")


def _dp_grid(c, a, result):
    n, deg = a["t"].dim, a["kmax"] + a["mmax"]
    c["tracesum.dp_grid.cells"] += (a["kmax"] + 1) * (a["mmax"] + 1)
    # one (deg+1, n, n) @ (n, n) product per degree step: (deg+1) * 2 n^3 flop
    c["tracesum.dp_grid.mflop_computed"] += 2 * n ** 3 * deg * (deg + 1) / 2 / 1e6


def _trace_sum_enum(c, a, result):
    c["tracesum.trace_sum_enum.terms"] += result.term_count


def _griffiths_bapat(c, a, result):
    if result.holds:
        w = np.asarray(result.witness)
        rank = sum(1 << i for i in range(w.size - 1) if w[i + 1] < 0)
        c["criteria.griffiths_bapat_check.sign_vectors"] += rank + 1
        c["criteria.griffiths_bapat_check.holds"] += 1
    else:
        sigma = a["sigma"]
        n = sigma.dim if hasattr(sigma, "dim") else np.asarray(sigma).shape[0]
        c["criteria.griffiths_bapat_check.sign_vectors"] += 2 ** (n - 1)


def _word_positivity(c, a, result):
    c["criteria.word_positivity_check.holds"] += int(result.holds)


def _find_negative_cells(c, a, result):
    c["cli.find_negative_cells.candidates"] += len(result)


def _laplace_series(c, a, result):
    c["laplace.laplace_series.terms"] += result.nmax


def _monte_carlo(c, a, result):
    c["laplace.monte_carlo.samples"] += a["samples"]


# counter hooks: (counters, bound arguments, result) -> None
HOOKS = {
    "tracesum.dp_grid": _dp_grid,
    "tracesum.trace_sum_enum": _trace_sum_enum,
    "criteria.griffiths_bapat_check": _griffiths_bapat,
    "criteria.word_positivity_check": _word_positivity,
    "cli.find_negative_cells": _find_negative_cells,
    "laplace.laplace_series": _laplace_series,
    "laplace.monte_carlo": _monte_carlo,
}


def layer_functions():
    """(span name, function) for every public, non-generator function defined
    in a layer module. Generators are left alone: their work runs in the
    caller's frame, after the call has returned."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and not inspect.isgeneratorfunction(obj)):
                out.append((f"{layer}.{name}", obj))
    return out


class Tracer:
    def __init__(self):
        self.names: list = []          # span name table
        self._name_id: dict = {}
        self.name_of = array.array("i")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters = defaultdict(float)
        self.current_op = -1
        self._stack: list = []
        self._patched: list = []       # (module, attribute, original)

    def _wrap(self, name: str, fn):
        nid = self._name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counters, bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in layer_functions()}
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def self_times(self):
        """Per span name: (calls, self seconds). A span's self time is its
        duration minus the time its children cover; children of one span run
        one after another, so that is the sum of their durations."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.name_of, dtype=np.int32)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        secs = np.bincount(names, weights=own, minlength=k)
        return {self.names[i]: (int(calls[i]), float(secs[i])) for i in range(k)}

    def write(self, path: str) -> None:
        """Gzipped TSV, one span per line, times in microseconds from the
        first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\top\tparent\tstart_us\tend_us\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name_of[i]]}\t{self.op[i]}\t"
                         f"{self.parent[i]}\t{(self.start[i] - t0) * 1e6:.1f}\t"
                         f"{(self.end[i] - t0) * 1e6:.1f}\n")
