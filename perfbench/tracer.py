"""Per-layer host-time attribution for the benchmark's traced run.

The traced run wraps the public entry points of every layer package
(``repro.<layer>``) from the outside: each call becomes a span, and a
layer's *self time* is its spans' duration minus the time their child
spans cover.  Discrete-event processes are generators that the kernel
resumes many times, so a generator is timed per resumption, not at
creation: :class:`TimedGenerator` proxies ``send``/``throw``/``close``
and opens one span around each.  Time that no span covers is reported
as ``unattributed``.

Nothing here changes what the program computes: wrappers only read the
clock and call through, and :meth:`Instrumentation.uninstall` puts
every patched attribute back.  Spans are kept in memory (up to
:data:`MAX_SPANS`) and written once, as Chrome trace-event JSON, by
:meth:`Tracer.write_chrome_trace`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import types
from collections import Counter
from enum import Enum
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable

#: The layer that owns time no wrapper covers.
UNATTRIBUTED = "unattributed"

#: Packages of ``repro`` whose public functions and methods are wrapped.
#: Top-level modules (``repro.units``, ``repro.errors``) are helpers of
#: every layer and are left alone.
LAYERS = ("sim", "cluster", "core", "orchestration", "software", "memory",
          "federation", "faults", "maintenance", "topology", "datamover",
          "fabric", "network", "hardware")

#: Closed spans kept for the Chrome trace file; later ones are counted.
MAX_SPANS = 100_000

#: Properties wrapped in addition to plain methods: the hot property
#: reads the issue tracks as counts (``software.vms_reads``).
COUNTED_PROPERTIES = (("repro.software.hypervisor", "Hypervisor", "vms"),)


def layer_of_module(module_name: str) -> str:
    """``repro.<layer>[.x]`` -> ``<layer>``; anything else is
    unattributed."""
    parts = module_name.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return UNATTRIBUTED


def layer_of_file(filename: str) -> str:
    """The layer owning the code in *filename* (``.../repro/<layer>/``)."""
    parts = Path(filename).parts
    for index in range(len(parts) - 2):
        if parts[index] == "repro" and parts[index + 1] in LAYERS:
            return parts[index + 1]
    return UNATTRIBUTED


class Tracer:
    """A span stack with per-layer self time and per-name counts."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        #: Open spans: ``[layer, name, start, child_time]``.
        self._stack: list[list] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        #: Per qualified name: calls and inclusive time.
        self.name_calls: Counter = Counter()
        self.name_s: Counter = Counter()
        #: Closed spans kept for the trace file:
        #: ``(name, layer, start, duration, depth)``.
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self._origin = 0.0

    # -- span arithmetic ----------------------------------------------------

    def enter(self, layer: str, name: str) -> None:
        self._stack.append([layer, name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        layer, name, start, child = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        self.calls[layer] += 1
        self.name_calls[name] += 1
        self.name_s[name] += duration
        if self._stack:
            self._stack[-1][3] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((name, layer, start, duration,
                               len(self._stack)))
        else:
            self.dropped_spans += 1

    def run(self, fn: Callable[[], Any]) -> Any:
        """Call *fn* inside a root :data:`UNATTRIBUTED` span, so time no
        wrapper covers is accounted rather than lost."""
        self._origin = self.clock()
        self.enter(UNATTRIBUTED, "traced-run")
        try:
            return fn()
        finally:
            # A span left open by an exception unwinding through a
            # proxied generator cannot happen (each resumption closes
            # its own span), but a guard keeps the root accounting
            # right regardless.
            while len(self._stack) > 1:
                self.exit()
            self.exit()
            self.calls[UNATTRIBUTED] -= 1  # the root is not a call

    # -- output -------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """Closed spans as Chrome trace-event JSON (viewable in Perfetto
        or ``chrome://tracing``); times in microseconds."""
        events = [{"name": name, "cat": layer, "ph": "X", "pid": 1,
                   "tid": 1, "ts": (start - self._origin) * 1e6,
                   "dur": duration * 1e6, "args": {"depth": depth}}
                  for name, layer, start, duration, depth in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"dropped_spans": self.dropped_spans}}

    def write_chrome_trace(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)
        return path


class TimedGenerator:
    """A generator proxy that times each resumption as one span.

    It keeps the generator protocol the kernel and ``yield from`` rely
    on: values, ``StopIteration`` return values and exceptions pass
    through unchanged, and ``throw``/``close`` reach the wrapped
    generator.
    """

    __slots__ = ("_gen", "_tracer", "_layer", "_name")

    def __init__(self, gen, tracer: Tracer, layer: str, name: str) -> None:
        self._gen = gen
        self._tracer = tracer
        self._layer = layer
        self._name = name

    def __iter__(self) -> "TimedGenerator":
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tracer = self._tracer
        tracer.enter(self._layer, self._name)
        try:
            return self._gen.send(value)
        finally:
            tracer.exit()

    def throw(self, *args):
        tracer = self._tracer
        tracer.enter(self._layer, self._name)
        try:
            return self._gen.throw(*args)
        finally:
            tracer.exit()

    def close(self) -> None:
        tracer = self._tracer
        tracer.enter(self._layer, self._name)
        try:
            self._gen.close()
        finally:
            tracer.exit()


def timed_generator(gen, tracer: Tracer) -> TimedGenerator:
    """Proxy *gen*, attributed to the layer that owns its code."""
    if isinstance(gen, TimedGenerator):
        return gen
    code = getattr(gen, "gi_code", None)
    if code is None:
        return TimedGenerator(gen, tracer, UNATTRIBUTED,
                              type(gen).__name__)
    return TimedGenerator(gen, tracer, layer_of_file(code.co_filename),
                          code.co_qualname)


def _timed_function(fn: Callable, tracer: Tracer, layer: str,
                    name: str) -> Callable:
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def start_generator(*args, **kwargs):
            return TimedGenerator(fn(*args, **kwargs), tracer, layer, name)
        return start_generator

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        tracer.enter(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return timed


def _timed_process(original: Callable, tracer: Tracer) -> Callable:
    """``Simulator.process`` that proxies the generator it is given."""
    @functools.wraps(original)
    def process(self, generator):
        tracer.enter("sim", "Simulator.process")
        try:
            return original(self, timed_generator(generator, tracer))
        finally:
            tracer.exit()
    return process


def _wrappable_classes(module: types.ModuleType) -> Iterable[type]:
    for value in list(vars(module).values()):
        if (isinstance(value, type) and value.__module__ == module.__name__
                and not issubclass(value, (BaseException, Enum))
                and not getattr(value, "_is_protocol", False)):
            yield value


class Instrumentation:
    """Installs timing wrappers on every layer and removes them again.

    Use as a context manager; every patched attribute is recorded with
    its original value and restored on exit, in reverse order.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._patches: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Instrumentation":
        try:
            self.install()
        except BaseException:
            self.uninstall()  # never leave a partial install behind
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("instrumentation is already installed")
        modules = dict(sys.modules)
        layer_modules = {name: module for name, module in modules.items()
                         if module is not None
                         and layer_of_module(name) != UNATTRIBUTED}
        replaced: dict[int, Callable] = {}
        for module_name, module in sorted(layer_modules.items()):
            layer = layer_of_module(module_name)
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_")
                        or not isinstance(value, types.FunctionType)
                        or value.__module__ != module_name):
                    continue
                wrapped = _timed_function(value, self.tracer, layer,
                                          value.__qualname__)
                replaced[id(value)] = wrapped
                self._patch(module, attr, wrapped)
            for cls in _wrappable_classes(module):
                self._wrap_class(cls, layer)
        # Rebind names other modules imported with ``from x import f``
        # (the benchmark's own modules included).
        for module_name, module in sorted(modules.items()):
            if module is None:
                continue
            if not (module_name.startswith("repro")
                    or module_name.startswith("perfbench")):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = replaced.get(id(value))
                if wrapped is not None and not attr.startswith("__"):
                    self._patch(module, attr, wrapped)
        for module_name, class_name, prop in COUNTED_PROPERTIES:
            module = layer_modules.get(module_name)
            if module is not None:
                self._wrap_property(getattr(module, class_name), prop,
                                    layer_of_module(module_name))

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{cls.__qualname__}.{attr}"
            if name == "Simulator.process" and layer == "sim":
                self._patch(cls, attr, _timed_process(value, self.tracer))
            elif isinstance(value, types.FunctionType):
                self._patch(cls, attr, _timed_function(
                    value, self.tracer, layer, name))
            elif isinstance(value, (staticmethod, classmethod)):
                self._patch(cls, attr, type(value)(_timed_function(
                    value.__func__, self.tracer, layer, name)))

    def _wrap_property(self, cls: type, attr: str, layer: str) -> None:
        prop = vars(cls)[attr]
        getter = _timed_function(prop.fget, self.tracer, layer,
                                 f"{cls.__qualname__}.{attr}")
        self._patch(cls, attr, property(getter, prop.fset, prop.fdel,
                                        prop.__doc__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patch_count(self) -> int:
        return len(self._patches)
