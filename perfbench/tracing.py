"""Span and call-count tracing of revclone, installed from outside.

``Tracer("spans")`` wraps every public function of the measured modules,
and the public methods of their classes, at every binding: the defining
module, each ``from .x import y`` alias in another revclone module, and
the package re-exports.  Each call records a span (name, start, end,
parent, request) in compact arrays kept in memory; ``write`` saves them.

The hottest value-type methods (``TuplePerm.__mul__``, ``Map.__hash__``,
``Map.__eq__``, ``Map.__init__``, ``core.encode``) would dominate any span
they were given, so they are only counted, by ``Tracer("counts")`` in a
separate pass over the same requests.  ``uninstall`` restores every
binding.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

LAYERS = ("core", "ops", "gates", "group", "closure", "circuit", "synth")

# Value types whose methods run inside the layers' inner loops; their cost
# belongs to the caller's self time.
VALUE_TYPES = {("core", "Alphabet"), ("core", "Perm"), ("core", "Map"),
               ("group", "TuplePerm"), ("closure", "SearchCaps")}
# Per-element helpers called from inner loops; also left to the caller.
INNER_HELPERS = {("core", "encode"), ("core", "decode"), ("core", "evaluate")}
# Operations that only delegate to other operations; their tables are
# counted where they are built.
DELEGATING_OPS = {"ops.bullet", "ops.reduct"}

COUNTED = [("core", "Map", "__init__", "core.map_new"),
           ("core", "Map", "__hash__", "core.map_hash_eq"),
           ("core", "Map", "__eq__", "core.map_hash_eq"),
           ("group", "TuplePerm", "__mul__", "group.tupleperm_mul"),
           ("core", None, "encode", "core.encode")]


def _degree_bucket(degree: int) -> str:
    if degree <= 16:
        return "d8-16"
    if degree <= 27:
        return "d17-27"
    return "d28-36"


def _rows(args, result) -> int:
    """Rows of a freshly built result table; 0 when an operation returns
    its operand unchanged."""
    if any(result is a for a in args):
        return 0
    return len(result.table)


def _build_degree(args, kwargs) -> int:
    degree = kwargs.get("degree")
    if degree is None:
        first = next(iter(args[1]))
        degree = (first[1] if isinstance(first, tuple) else first).degree
    return degree


class Tracer:
    def __init__(self, mode: str):
        if mode not in ("spans", "counts"):
            raise ValueError(mode)
        self.mode = mode
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.request = -1
        self._stack: list[list] = []   # [span index, child time]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.rows: dict[str, int] = {}   # rows materialised, per name
        self.row_sizes: dict[int, int] = {}   # ops result rows -> calls
        self.build_self: dict[str, float] = {}
        self.tuple_stages = 0
        self.saturate_kept = 0
        self.saturate_ops = 0
        self._saturate_depth = 0
        self.top_level_s = 0.0
        self.scale = 1.0   # reference speed over measured speed
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self, package) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package.__name__
                   or name.startswith(package.__name__ + ".")]
        layer_modules = {layer: sys.modules[f"{package.__name__}.{layer}"]
                         for layer in LAYERS}
        if self.mode == "counts":
            for layer, cls_name, attr, metric in COUNTED:
                owner = layer_modules[layer]
                if cls_name is None:
                    self._rebind(modules, getattr(owner, attr),
                                 self._counter(getattr(owner, attr), metric))
                else:
                    cls = getattr(owner, cls_name)
                    self._set(cls, attr,
                              self._counter(vars(cls)[attr], metric))
            return
        for layer, module in layer_modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or (layer, attr) in INNER_HELPERS:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    self._rebind(modules, obj,
                                 self._span(obj, f"{layer}.{attr}"))
                elif (inspect.isclass(obj) and obj.__module__ == module.__name__
                      and (layer, attr) not in VALUE_TYPES):
                    self._wrap_methods(obj, f"{layer}.{attr}")

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._span(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._span(raw, name))

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- wrappers -------------------------------------------------------

    def _id(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def _counter(self, fn, metric: str):
        calls = self.calls
        calls.setdefault(metric, 0)

        def counted(*args, **kwargs):
            calls[metric] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, fn, name: str):
        name_id = self._id(name)
        layer = name.split(".", 1)[0]
        is_ops = layer == "ops" and name not in DELEGATING_OPS
        is_saturate = name == "closure.saturate"
        is_build = name == "group.TupleGroup.build"
        is_simulate = name == "circuit.simulate"
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        def spanned(*args, **kwargs):
            index = len(tracer.span_start)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(parent)
            tracer.span_request.append(tracer.request)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            if is_saturate:
                tracer._saturate_depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if is_saturate:
                    tracer._saturate_depth -= 1
                tracer.span_start[index] = start
                tracer.span_end[index] = end
                duration = end - start
                own = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.top_level_s += duration
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + own
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
            if is_ops:
                rows = _rows(args, result)
                tracer.rows[name] = tracer.rows.get(name, 0) + rows
                tracer.row_sizes[rows] = tracer.row_sizes.get(rows, 0) + 1
                if tracer._saturate_depth:
                    tracer.saturate_ops += 1
            elif is_saturate:
                tracer.saturate_kept += len(result.maps)
            elif is_build:
                bucket = _degree_bucket(_build_degree(args, kwargs))
                tracer.build_self[bucket] = (tracer.build_self.get(bucket, 0.0)
                                             + own)
            elif is_simulate:
                netlist, alphabet = args[0], args[1]
                tracer.tuple_stages += (alphabet.size ** netlist.wires
                                        * len(netlist.stages))
            return result

        spanned.__wrapped__ = fn
        return spanned

    # -- output ---------------------------------------------------------

    def write(self, path) -> None:
        """Save the spans: one record per call, in call order."""
        import numpy as np
        np.savez(path,
                 names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 request=np.frombuffer(self.span_request, dtype=np.int32))
