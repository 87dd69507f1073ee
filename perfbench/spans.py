"""Per-layer tracing of cobsig from outside the package.

``Tracer.install`` wraps every public function that a layer module defines
and rebinds the wrapper in every cobsig module namespace that holds the
function, so calls across modules (``from .geodesy import distance_field``)
are caught too.  It also wraps scipy's ``dijkstra`` as bound in
``cobsig.geodesy`` and counts hits and misses of ``Signal.cached``.

A span is one wrapped call.  Spans are kept in memory and written out when
the run ends.  A function's self time is its span's duration minus the
time of the wrapped calls nested in it; a module's self time is the sum of
its functions' self times.  Dijkstra's self time is its own metric and is
not part of ``geodesy.self_s``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import weakref
from collections import defaultdict
from time import perf_counter

import numpy as np

#: The layers, in pipeline order: cobsig's modules.
LAYERS = ("cli", "fileio", "generators", "complex", "metric", "signal",
          "geodesy", "energy", "signalops", "verify")

DIJKSTRA = "geodesy.dijkstra"


class Tracer:
    def __init__(self):
        self.spans = []      # (span id, parent id, name, start, end)
        self._stack = []     # [span id, time of nested spans] per open span
        self._next_id = 0
        self.functions = []  # "module.function" names, in install order
        self.reset()

    def reset(self) -> None:
        """Start a new interval: clear the counters, keep the spans."""
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._graphs = {}

    # -- spans ----------------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            self.spans.append((span_id, parent, name, start, end))

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs)
        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "cobsig" or n.startswith("cobsig.")]
        for layer in LAYERS:
            module = importlib.import_module(f"cobsig.{layer}")
            for attr, fn in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                self.functions.append(name)
                _rebind(modules, fn, self.wrap(name, fn))

        geodesy = importlib.import_module("cobsig.geodesy")
        geodesy.dijkstra = self._wrap_dijkstra(geodesy.dijkstra)

        signal_cls = importlib.import_module("cobsig.signal").Signal
        cached = signal_cls.cached

        def counted(sig, key, compute):
            hit = key in sig._cache
            self.counts["signal.cached.hits" if hit else "signal.cached.misses"] += 1
            return cached(sig, key, compute)
        signal_cls.cached = counted

    def _wrap_dijkstra(self, dijkstra):
        def traced(csgraph, *args, **kwargs):
            if kwargs.get("min_only"):
                searches = 1
            else:
                indices = kwargs.get("indices")
                searches = (csgraph.shape[0] if indices is None
                            else int(np.size(indices)))
            self.counts[DIJKSTRA + ".searches"] += searches
            seen = self._graphs.get(id(csgraph))
            if seen is None or seen() is not csgraph:
                self._graphs[id(csgraph)] = weakref.ref(csgraph)
                self.counts[DIJKSTRA + ".graphs"] += 1
            self.counts[DIJKSTRA + ".max_nodes"] = max(
                self.counts[DIJKSTRA + ".max_nodes"], csgraph.shape[0])
            self.counts[DIJKSTRA + ".max_nnz"] = max(
                self.counts[DIJKSTRA + ".max_nnz"], csgraph.nnz)
            return self._span(DIJKSTRA, dijkstra, (csgraph,) + args, kwargs)
        return traced

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Every per-layer metric of the interval since the last reset."""
        out = {}
        module_self = dict.fromkeys(LAYERS, 0.0)
        for name in self.functions:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            module_self[name.split(".")[0]] += self.self_s[name]
        for layer, value in module_self.items():
            out[f"{layer}.self_s"] = value
        out[DIJKSTRA + ".calls"] = self.calls[DIJKSTRA]
        out[DIJKSTRA + ".self_s"] = self.self_s[DIJKSTRA]
        for key in ("searches", "graphs", "max_nodes", "max_nnz"):
            out[f"{DIJKSTRA}.{key}"] = self.counts[f"{DIJKSTRA}.{key}"]
        for key in ("hits", "misses"):
            out[f"signal.cached.{key}"] = self.counts[f"signal.cached.{key}"]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


def _rebind(modules, fn, wrapper) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)
