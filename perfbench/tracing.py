"""Per-layer tracing from outside the program.

The tracer wraps every public function of each wirecut module, under every
name the package binds it to (its home module, the package namespace and
each module that imports it), so calls between modules are seen too.

Each call feeds per-layer accumulators: calls, self time (duration minus
the time spent in traced calls beneath it) and exceptions that leave the
layer. A call that enters a layer from outside it opens a span, kept in
memory as (operation id, span id, parent span id, function id, start ns,
end ns, self ns, area calls beneath). Calls within the same layer fold into
the enclosing span, and `geometry` is aggregated only: its kernel runs
once per composition or lattice sample, and a span per call would swamp
memory.
"""

import inspect
import sys
import time
from array import array

LAYERS = ("geometry", "extrema", "bounds", "allocation", "oracle", "cli")
GEOMETRY = LAYERS.index("geometry")
SPAN_FIELDS = 8


def public_functions(layer: str):
    """Functions a layer module exports: its ``__all__``, or every public
    name defined in it."""
    module = sys.modules[f"wirecut.{layer}"]
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        value = getattr(module, name)
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            yield name, value


class Tracer:
    def __init__(self):
        size = len(LAYERS)
        self.calls = [0] * size
        self.self_ns = [0] * size
        self.raised = [0] * size
        self.functions = []  # "layer.name" per function id
        self.function_calls = []
        self.function_ns = []  # inclusive time
        self.spans = array("q")
        self.op = 0
        self._stack = []
        self._next_span = 0
        self._undo = []

    def install(self):
        """Replace every binding of every public function with a wrapper."""
        wrappers = {}
        for layer_index, layer in enumerate(LAYERS):
            for name, fn in public_functions(layer):
                wrappers[id(fn)] = self._wrap(fn, layer_index, f"{layer}.{name}")
        for module_name, module in list(sys.modules.items()):
            if module_name != "wirecut" and not module_name.startswith("wirecut."):
                continue
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._undo.append((module, name, value))
                    setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, value in reversed(self._undo):
            setattr(module, name, value)
        self._undo.clear()

    def _wrap(self, fn, layer, label):
        function_id = len(self.functions)
        self.functions.append(label)
        self.function_calls.append(0)
        self.function_ns.append(0)
        is_area = label == "geometry.area"
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            boundary = parent is None or parent[0] != layer
            if boundary and layer != GEOMETRY:
                span = self._next_span
                self._next_span += 1
            else:
                span = parent[3] if parent is not None else -1
            frame = [layer, 0, 0, span]
            stack.append(frame)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                self._exit(frame, parent, boundary, function_id, is_area, start, end, failed)

        traced.__wrapped__ = fn
        return traced

    def _exit(self, frame, parent, boundary, function_id, is_area, start, end, failed):
        layer, child_ns, areas, span = frame
        duration = end - start
        own = duration - child_ns
        areas += is_area
        self.calls[layer] += 1
        self.self_ns[layer] += own
        self.function_calls[function_id] += 1
        self.function_ns[function_id] += duration
        if parent is not None:
            parent[1] += duration
            parent[2] += areas
        if boundary:
            self.raised[layer] += failed
            if layer != GEOMETRY:
                parent_span = parent[3] if parent is not None else -1
                self.spans.extend((self.op, span, parent_span, function_id, start, end, own, areas))

    def span_totals(self, prefix: str):
        """(spans, area calls beneath them) over the spans of the functions
        whose label starts with prefix, e.g. "oracle." or a full label."""
        wanted = {i for i, label in enumerate(self.functions) if label.startswith(prefix)}
        count = areas = 0
        spans = self.spans
        for base in range(0, len(spans), SPAN_FIELDS):
            if spans[base + 3] in wanted:
                count += 1
                areas += spans[base + 7]
        return count, areas

    def function_totals(self, label: str):
        """(calls, inclusive ns) of one function."""
        function_id = self.functions.index(label)
        return self.function_calls[function_id], self.function_ns[function_id]
