"""Per-layer spans recorded from outside the library.

A Tracer replaces public functions and methods of eaqmds with wrappers that
time each call, and puts the originals back when it exits.  Module-level
functions are imported by name into other modules (verify, catalog and eaq
each bind build_code), so a function's wrapper is installed at every binding
site in the loaded eaqmds modules; a call through a second name would
otherwise go unrecorded.

Spans are folded as they close instead of being kept one by one, because a
bch workload makes hundreds of thousands of coset() calls.  Each layer keeps
its call count, its total and self time (self time is the span's duration
minus the time its child spans cover) and the counters taken from its
arguments.  Each (parent layer, layer) pair keeps a call count and a total
time: the span tree folded by name.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# Field orders above this ran on digit-by-digit arithmetic, without lookup
# tables, at the commit that defined the benchmark.  Fixed here so that the
# counter keeps its meaning when the library's own cap moves.
LARGE_FIELD_ORDER = 1024


def _rref_counts(counters: dict, args: tuple) -> None:
    m = args[0]
    cells = m.rows * m.cols
    counters["cells"] += cells
    if m.field.order > LARGE_FIELD_ORDER:
        counters["cells_large_field"] += cells


def _matmul_counts(counters: dict, args: tuple) -> None:
    a, b = args[0], args[1]
    counters["mults"] += a.rows * a.cols * b.cols


def _build_code_counts(counters: dict, args: tuple) -> None:
    counters["n_sum"] += args[0].n


# layer name -> (module, attribute or Class.attribute, counter function)
LAYERS: dict[str, tuple[str, str, object]] = {
    "fields.rref": ("eaqmds.fields", "Matrix.rref", _rref_counts),
    "fields.nullspace": ("eaqmds.fields", "Matrix.right_nullspace", None),
    "fields.matmul": ("eaqmds.fields", "Matrix.__matmul__", _matmul_counts),
    "fields.conj_transpose": ("eaqmds.fields", "Matrix.conj_transpose", None),
    "fields.poly_mul": ("eaqmds.fields", "Poly.__mul__", None),
    "fields.poly_divmod": ("eaqmds.fields", "Poly.__divmod__", None),
    "fields.descend": ("eaqmds.fields", "Embedding.descend", None),
    "codes.build_tower": ("eaqmds.codes", "build_tower", None),
    "codes.build_code": ("eaqmds.codes", "build_code", _build_code_counts),
    "codes.exact_distance": ("eaqmds.codes", "exact_distance_small", None),
    "codes.bch_delta": ("eaqmds.codes", "bch_delta", None),
    "eaq.rank_oracle": ("eaqmds.eaq", "ebits_rank_oracle", None),
    "cosets.coset": ("eaqmds.cosets", "coset", None),
    "cosets.from_leaders": ("eaqmds.cosets", "DefiningSet.from_leaders", None),
    "families.instance_params": ("eaqmds.families", "instance_params", None),
    "catalog.rows_for_combo": ("eaqmds.catalog", "rows_for_combo", None),
    "catalog.serialize": ("eaqmds.catalog", "serialize_csv", None),
    "verify.run": ("eaqmds.verify", "run_verification", None),
}

COUNTER_NAMES: dict[str, tuple[str, ...]] = {
    "fields.rref": ("cells", "cells_large_field"),
    "fields.matmul": ("mults",),
    "codes.build_code": ("n_sum",),
}


class _Layer:
    __slots__ = ("calls", "total_s", "self_s", "counters")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counters: dict[str, int] = defaultdict(int)


class Tracer:
    """Context manager that records spans for every layer in LAYERS."""

    def __init__(self) -> None:
        self.layers = {name: _Layer() for name in LAYERS}
        self.edges: dict[tuple[str, str], list] = {}
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for name, (module_name, target, count) in LAYERS.items():
            module = importlib.import_module(module_name)
            if "." in target:
                self._wrap_method(name, getattr(module, target.split(".")[0]),
                                  target.split(".")[1], count)
            else:
                self._wrap_function(name, getattr(module, target), count)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap_method(self, name: str, cls: type, attr: str, count) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(name, raw.__func__, count))
        else:
            wrapped = self._wrap(name, raw, count)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _wrap_function(self, name: str, fn, count) -> None:
        wrapped = self._wrap(name, fn, count)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "eaqmds" and not mod_name.startswith("eaqmds."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def _wrap(self, name: str, fn, count):
        layer = self.layers[name]
        stack, edges = self._stack, self.edges
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if count is not None:
                count(layer.counters, args)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                layer.calls += 1
                layer.total_s += dt
                layer.self_s += dt - frame[1]
                parent = stack[-1][0] if stack else ""
                if stack:
                    stack[-1][1] += dt
                edge = edges.get((parent, name))
                if edge is None:
                    edges[(parent, name)] = [1, dt]
                else:
                    edge[0] += 1
                    edge[1] += dt

        return functools.wraps(fn)(wrapper)

    def report(self) -> dict:
        """Layers and folded span edges as plain JSON-ready data."""
        layers = {}
        for name, layer in self.layers.items():
            entry = {"calls": layer.calls, "self_s": layer.self_s,
                     "total_s": layer.total_s}
            for counter in COUNTER_NAMES.get(name, ()):
                entry[counter] = layer.counters[counter]
            layers[name] = entry
        edges = [{"parent": parent or None, "layer": name, "calls": calls,
                  "total_s": total}
                 for (parent, name), (calls, total) in sorted(self.edges.items())]
        return {"layers": layers, "edges": edges}
