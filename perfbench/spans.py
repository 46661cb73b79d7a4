"""In-process tracing of the package's layers, installed from outside ``src``.

:class:`Tracer` wraps every public function defined in the layer modules and
swaps the wrapper into every ``dsppcond`` namespace that holds the original,
so calls made by the CLI, ``run_experiment`` and ``structured`` all pass
through it. Each call records a span: name, parent span, request (the
command it belongs to), start and end, self time (duration minus the direct
child spans) and its tracemalloc peak above the memory in use at entry.
Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time
import tracemalloc
from contextlib import contextmanager

LAYERS = ("cli", "dspp", "linalg", "partial_cn", "structured", "eils", "experiments")

MB = 1024.0 * 1024.0


class _Span:
    __slots__ = ("id", "parent", "request", "name", "start", "end", "child_s", "mem0", "peak")

    def __init__(self, span_id, parent, request, name, mem0):
        self.id = span_id
        self.parent = parent
        self.request = request
        self.name = name
        self.mem0 = mem0
        self.peak = mem0
        self.child_s = 0.0
        self.start = self.end = 0.0

    def record(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent.id if self.parent else None,
            "request": self.request,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "self_s": self.end - self.start - self.child_s,
            "peak_alloc_mb": (self.peak - self.mem0) / MB,
        }


class Tracer:
    """Span recorder for the ``dsppcond`` layer functions."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[_Span] = []
        self._request = None
        self._patched: list[tuple[object, str, object]] = []
        self._ids = itertools.count()

    def _enter(self, name: str) -> _Span:
        cur, peak = tracemalloc.get_traced_memory()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            # The reset below would lose the parent's peak so far.
            parent.peak = max(parent.peak, peak)
        tracemalloc.reset_peak()
        span = _Span(next(self._ids), parent, self._request, name, cur)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: _Span) -> None:
        span.end = time.perf_counter()
        span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start
            span.parent.peak = max(span.parent.peak, span.peak)
        self.spans.append(span.record())

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span)
        return traced

    def install(self) -> None:
        """Wrap the layers' public functions in every ``dsppcond`` namespace."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"dsppcond.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dsppcond" and not mod_name.startswith("dsppcond."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    @contextmanager
    def request(self, request_id):
        """Tag the spans of one command with a shared request identifier."""
        self._request = request_id
        try:
            yield
        finally:
            self._request = None

    def totals(self) -> dict:
        """Per function: calls, summed self and total time, the largest peak.

        Total time sums whole spans; no layer function calls itself.
        """
        out: dict[str, dict] = {}
        for span in self.spans:
            agg = out.setdefault(span["name"], {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                                "peak_alloc_mb": 0.0})
            agg["calls"] += 1
            agg["self_s"] += span["self_s"]
            agg["total_s"] += span["end"] - span["start"]
            agg["peak_alloc_mb"] = max(agg["peak_alloc_mb"], span["peak_alloc_mb"])
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
