"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: every public function of each
layer module is replaced, under every module attribute that refers to it,
by a wrapper that records a span around the call.  Spans stay in memory as
(name, start, end, parent) plus a tracemalloc peak and are written out when
the benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from dataclasses import dataclass

PACKAGE = "rfcancel"
LAYERS = ("cli", "config", "runner", "sigsynth", "channel", "canceller",
          "metrics", "demod", "waveform")

# the one writer every artifact goes through; wrapped as well so that the
# bytes written per op can be counted
WRITER = ("waveform", "_atomic_write")


@dataclass
class Span:
    name: str
    start: int          # perf_counter_ns
    end: int = 0
    parent: int = -1    # index into Tracer.spans, -1 for a root span
    base: int = 0       # traced bytes at entry
    peak: int = 0       # highest traced bytes seen while open

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def peak_alloc(self) -> int:
        """tracemalloc peak above the traced bytes at span entry."""
        return self.peak - self.base


class Tracer:
    """Collects spans while ``active``; wrappers pass straight through
    otherwise, so checks and warm-up ops leave no spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.active = False
        self.memory = False     # tracemalloc is running: record peaks
        self.bytes_written = 0

    def _fold_peak(self) -> int:
        # tracemalloc keeps a single peak; fold it into every open span and
        # restart it, so each span sees the peak over exactly its interval
        if not self.memory:
            return 0
        current, peak = tracemalloc.get_traced_memory()
        for i in self.stack:
            span = self.spans[i]
            span.peak = max(span.peak, peak)
        tracemalloc.reset_peak()
        return current

    def enter(self, name: str) -> int:
        current = self._fold_peak()
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), parent=parent,
                               base=current, peak=current))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def exit(self, index: int) -> None:
        end = time.perf_counter_ns()
        self._fold_peak()
        self.spans[index].end = end
        self.stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(index)
        return traced


def layer_functions(module) -> list[str]:
    """Public functions defined in ``module`` (its ``__all__`` if it has one)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [n for n in names
            if inspect.isfunction(getattr(module, n, None))
            and getattr(module, n).__module__ == module.__name__]


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions in ``tracer`` spans.

    Callers bind functions both through the module (``met.welch_psd``) and
    by name (``runner`` imports ``apply_path``), so each original is
    replaced under every attribute of every package module that holds it.
    """
    import importlib

    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
               for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for name in layer_functions(module):
            fn = getattr(module, name)
            wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))

    layer, name = WRITER
    write = getattr(modules[layer], name)

    def counting_write(path, payload):
        if tracer.active:
            tracer.bytes_written += len(payload)
        return write(path, payload)

    wrappers[id(write)] = (write, tracer.wrap(f"{layer}.{name}",
                                              counting_write))

    for mod_name, module in list(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def self_times(spans: list[Span]) -> list[int]:
    """Self time of each span in ns: its duration minus the part of its
    interval that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0
        cursor = span.start
        for start, end in sorted(children.get(i, [])):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.end - span.start - covered)
    return out
