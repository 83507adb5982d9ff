"""Span recorder that wraps the library's public functions from outside.

Installing a Tracer replaces every public function of the seven library
modules, every public method of their classes, and every name those functions
are re-bound to in sibling modules (``modal.generalized_eig``,
``rom.interpolate_columns``, ...) with a wrapper that records one span per
call.  Systems returned by a generator get their ``operator_at`` and
``source_at`` closures wrapped too.  No library file changes; ``uninstall``
puts every original back.

A span is ``(name, start_ns, end_ns, parent, scope, self_ns)``.  ``scope``
is the index of the benchmark pass or query that caused it, so spans of one
query share it.  ``self_ns`` is the span's duration minus the time covered
by calls into *other* layers beneath it: a call from ``edm.interpolate_mode``
into ``edm.interpolate_columns`` is still edm's own work, a call into
``numerics.truncated_svd`` is not.  Spans stay in memory until ``write``.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("systems", "numerics", "modal", "edm", "rom", "io", "cli")


class Tracer:
    def __init__(self):
        self.records: list = []
        self.scope_kinds: list[str] = []
        self.scope = -1
        self.active = False
        self._system_type = None
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def begin(self, kind: str) -> None:
        """Open a new scope (a benchmark pass or one query) of the given kind."""
        self.scope_kinds.append(kind)
        self.scope = len(self.scope_kinds) - 1

    def end(self) -> None:
        self.scope = -1

    def _wrap(self, fn, name: str):
        layer = name.split(".", 1)[0]
        records = self.records
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:  # a wrapped system closure can outlive install()
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            # frame: record index, layer, time covered by other layers below
            frame = [len(records), layer, 0]
            records.append(None)
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration if parent[1] != layer else frame[2]
                records[frame[0]] = (
                    name, start, end, -1 if parent is None else parent[0],
                    tracer.scope, duration - frame[2],
                )
            return tracer._trace_system(result)

        traced.__traced__ = True
        return traced

    def _trace_system(self, result):
        if type(result) is self._system_type and not getattr(
            result.operator_at, "__traced__", False
        ):
            return dataclasses.replace(
                result,
                operator_at=self._wrap(result.operator_at, "systems.operator_at"),
                source_at=self._wrap(result.source_at, "systems.source_at"),
            )
        return result

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        self.active = True
        modules = {layer: importlib.import_module(f"eigendeform.{layer}") for layer in LAYERS}
        self._system_type = modules["systems"].FullOrderSystem
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth_name, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and not meth_name.startswith("_"):
                            self._replace(obj, meth_name, self._wrap(meth, f"{layer}.{meth_name}"))
        for mod in [*modules.values(), importlib.import_module("eigendeform")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._replace(mod, attr, wrappers[obj])

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        self.active = False
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Write a header line, then every span as one JSON array per line.

        ``parent`` is the line index (0-based, after the header) of the
        calling span or -1; ``query`` indexes the header's ``kinds``.
        """
        with open(path, "w") as fh:
            fh.write(json.dumps({
                "fields": ["name", "start_ns", "end_ns", "parent", "query", "self_ns"],
                "kinds": self.scope_kinds,
            }) + "\n")
            for record in self.records:
                fh.write(json.dumps(record) + "\n")

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.records, self.scope_kinds)


class SpanSummary:
    """Per-scope aggregates of recorded spans, keyed by scope kind and span name."""

    def __init__(self, records, scope_kinds):
        self.scope_kinds = scope_kinds
        # (kind, name) -> {scope: [calls, duration_ns, self_ns]}
        self._per_scope: dict = defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
        # (kind, name) -> per-call durations in ns
        self._durations: dict = defaultdict(list)
        for name, start, end, _parent, scope, self_ns in records:
            kind = scope_kinds[scope] if scope >= 0 else "none"
            acc = self._per_scope[kind, name][scope]
            acc[0] += 1
            acc[1] += end - start
            acc[2] += self_ns
            self._durations[kind, name].append(end - start)
        self.spans = len(records)

    def spans_per_scope(self, kind: str) -> np.ndarray:
        """Total spans recorded in each scope of ``kind``."""
        totals = defaultdict(int)
        for (k, _name), acc in self._per_scope.items():
            if k == kind:
                for scope, (calls, _, _) in acc.items():
                    totals[scope] += calls
        return np.array([totals[s] for s in self.scopes(kind)], dtype=float)

    def scopes(self, kind: str) -> list[int]:
        return [s for s, k in enumerate(self.scope_kinds) if k == kind]

    def per_scope(self, kind: str, name: str, field: str) -> np.ndarray:
        """One value per scope of ``kind``: calls, duration or self time (s) of ``name``."""
        index = {"calls": 0, "duration": 1, "self": 2}[field]
        acc = self._per_scope.get((kind, name), {})
        values = np.array([acc.get(s, (0, 0, 0))[index] for s in self.scopes(kind)], dtype=float)
        return values if field == "calls" else values * 1e-9

    def call_durations(self, kind: str, name: str) -> np.ndarray:
        """Duration in seconds of every call of ``name`` in scopes of ``kind``."""
        return np.array(self._durations.get((kind, name), []), dtype=float) * 1e-9
