"""Span tracer that wraps the package's public functions from outside.

Every public function of a layer module is wrapped at every place it is
bound: its defining module, the package namespace and each module that did
``from .x import y``.  Constructors of the validated value types are
wrapped too.  Private helpers are left alone, so a layer's self time
includes them.  Spans (name, start, end, parent, work) stay in memory until
``aggregate`` folds them into per-name totals.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "ttcstress"
LAYERS = ("cli", "io_formats", "charts", "macro", "normal", "transition",
          "propagation", "ttc", "diagnostics")
CLASSES = (("transition", "TransitionMatrix"), ("propagation", "Portfolio"),
           ("propagation", "OriginationVector"))


def _size(result) -> int:
    return int(getattr(result, "size", 1))  # a scalar result counts as one


def _byte_length(text: str) -> int:
    return len(text.encode("utf-8"))


# work counted per span, read from the return value
WORK = {
    "normal.std_normal_cdf": ("elements", _size),
    "normal.std_normal_inv_cdf": ("elements", _size),
    "ttc.solve_ttc_iterative": ("iterations", lambda r: r.iterations),
    "propagation.project_path": ("periods", lambda r: r.periods),
    "io_formats.emit_path_csv": ("bytes", _byte_length),
    "charts.emit_svg_chart": ("bytes", _byte_length),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        work = WORK.get(name, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if work is not None:
                span[4] = work(result)
            return result
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        for layer, name in CLASSES:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], name)
            self._set(cls, "__init__",
                      self._wrap(f"{layer}.{name}.init", cls.__init__))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def aggregate(self) -> dict:
        """{span name: {"calls", "self_ms", work name: total}}.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, so the children never overlap.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = {}
        for (name, start, end, _, work), child in zip(self.spans, child_ns):
            row = out.setdefault(name, {"calls": 0, "self_ms": 0.0})
            row["calls"] += 1
            row["self_ms"] += (end - start - child) / 1e6
            if name in WORK:
                key = WORK[name][0]
                row[key] = row.get(key, 0) + work
        return out
