"""Spans around every public function of the ``slowlight`` package.

``Tracer.install`` replaces each public function at every module binding that
refers to it (``slowlight.trap_gas.polylog``, ``slowlight.cli.chi_box_exact``,
``slowlight.box_gas.box_thermo``, ...) with a wrapper that records one span
per call: name, start, end, parent span and invocation id.  Spans stay in
memory, in typed arrays, and ``write`` saves them when the run ends.  Counts,
inclusive time and self time (duration minus the time child spans cover) are
aggregated as the spans close.

Span names are ``<module>.<function>``; a module's name alone aggregates all
of its functions (the layer).  Inclusive time counts only the outermost span
of a name, so a function nested in itself is not counted twice.
"""

import functools
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# functions whose first argument is an array: count its points, not calls
_POINT_COUNTED = {"specfun.faddeeva_w", "specfun.faddeeva_w_prime"}
# functions whose distinct inputs over calls measure repeated work
_DISTINCT_INPUTS = {"specfun.fugacity_from_temperature", "box_gas.thermal_response_series"}


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_invocation = array("q")
        self.invocation = -1
        self.calls = Counter()
        self.points = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.inputs = defaultdict(set)
        self._depth = Counter()
        self._stack = []  # [span id, time covered by children]
        self._undo = []
        self.t0 = perf_counter()

    def install(self):
        wrappers = {}
        for module_name, module in list(sys.modules.items()):
            if module_name != "slowlight" and not module_name.startswith("slowlight."):
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("slowlight"):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value)
                setattr(module, attr, wrappers[value])
                self._undo.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo = []

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = "%s.%s" % (layer, fn.__qualname__)
        name_id = len(self.names)
        self.names.append(name)
        count_points = name in _POINT_COUNTED
        keep_inputs = name in _DISTINCT_INPUTS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_invocation.append(tracer.invocation)
            tracer.span_end.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            depth = tracer._depth
            depth[name] += 1
            depth[layer] += 1
            start = perf_counter()
            tracer.span_start.append(start - tracer.t0)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.span_end[span] = end - tracer.t0
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                exclusive = duration - frame[1]
                tracer.calls[name] += 1
                tracer.self_time[name] += exclusive
                tracer.self_time[layer] += exclusive
                for key in (name, layer):
                    if depth[key] == 1:
                        tracer.inclusive[key] += duration
                    depth[key] -= 1
                if count_points:
                    tracer.points[name] += int(np.size(args[0]))
                if keep_inputs:
                    tracer.inputs[name].add(args)

        return traced

    def distinct_ratio(self, name):
        calls = self.calls[name]
        return len(self.inputs[name]) / calls if calls else 0.0

    def write(self, path):
        """Save the spans as tab-separated text, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tinvocation\n")
            names = self.names
            for span, (name_id, start, end, parent, invocation) in enumerate(zip(
                self.span_name, self.span_start, self.span_end, self.span_parent, self.span_invocation
            )):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % (span, names[name_id], start, end, parent, invocation))
