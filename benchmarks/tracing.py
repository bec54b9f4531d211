"""Span tracing around the public functions of each qspf layer.

The wrappers are installed from outside the package. Every attribute of
every loaded qspf module that is one of the traced functions is replaced,
so a call is seen whichever binding it goes through
(``qspf.multishell.forward_sht`` as well as ``qspf.angular.forward_sht``).
``numpy.linalg.cond`` and ``numpy.linalg.solve`` are wrapped to count
calls, attributed to the layer of the innermost open span.

Spans of one operation are kept in memory with their parent; when the
operation ends, each span's self time (its duration minus the time its
children cover) is added to per-function totals and the spans are dropped.
"""

from __future__ import annotations

import contextlib
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# layer (the qspf module it lives in) -> traced public functions
TRACED = {
    "specfun": ("normalized_legendre", "laguerre_eval", "laguerre_roots"),
    "radial": (
        "make_radial_scheme",
        "radial_basis_eval",
        "radial_project",
        "radial_collocation_solve",
    ),
    "angular": ("make_angular_scheme", "forward_sht", "inverse_sht"),
    "multishell": ("build_grid", "forward_spf", "inverse_spf", "synthesize_on_grid"),
    "validate": ("run_validation",),
}
COUNTED = ("cond", "solve")
COUNT_LAYERS = ("radial", "angular")

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)
COUNT_NAMES = tuple(f"{layer}.{what}_calls" for layer in COUNT_LAYERS for what in COUNTED)


class Tracer:
    """Collects spans per operation and folds them into per-function totals."""

    def __init__(self):
        self.spans = []  # [name, parent index or None, start, end] of the current operation
        self.stack = []  # indices of open spans
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.ops = 0

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else None, perf_counter(), 0.0])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][3] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, what, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            if stack:
                layer = spans[stack[-1]][0].partition(".")[0]
                counts[f"{layer}.{what}_calls"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def end_op(self) -> None:
        """Close the current operation: fold its spans into the totals."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        for (name, _, start, end), child in zip(self.spans, covered):
            self.calls[name] += 1
            self.self_s[name] += end - start - child
        self.spans.clear()
        self.ops += 1

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced functions in every loaded qspf module, then restore them."""
        targets = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"qspf.{layer}"]
            for fn_name in names:
                original = getattr(module, fn_name)
                targets[original] = self._span(f"{layer}.{fn_name}", original)
        patches = []
        modules = [m for key, m in sys.modules.items() if key == "qspf" or key.startswith("qspf.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in targets:
                    patches.append((module, attr, value))
                    setattr(module, attr, targets[value])
        for what in COUNTED:
            original = getattr(np.linalg, what)
            patches.append((np.linalg, what, original))
            setattr(np.linalg, what, self._counter(what, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    def per_op(self, busy_s: float) -> dict:
        """Per-layer metrics of the traced operations.

        Calls are per operation. Self time is a share of the operations'
        total time, so that it does not move with the host's speed.
        """
        ops = max(self.ops, 1)
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name] / ops, "count")
            out[f"{name}.self_share"] = (self.self_s[name] / busy_s, "ratio")
        for name in COUNT_NAMES:
            out[name] = (self.counts[name] / ops, "count")
        return out

    def self_ms_per_op(self) -> dict:
        ops = max(self.ops, 1)
        return {name: 1e3 * self.self_s[name] / ops for name in SPAN_NAMES}
