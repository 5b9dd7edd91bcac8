"""Spans around the public functions and methods of tlanet's modules.

``Tracer.install`` replaces every public module-level function and every
public method of the classes each module defines with a wrapper that
records one span per call: its name (``module.function`` or
``module.Class.method``), start, end, parent span and trace id. Spans of
one train step (``models.train_step``) or of one benchmark operation share
a trace id. Spans live in flat arrays while the run lasts and are written
to one ``.npz`` file when it ends. ``uninstall`` puts the originals back,
so traced and untraced rounds can alternate in one process.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
from array import array

import numpy as np

# Spans whose calls start a new trace id: one train step.
TRACE_ROOTS = ("models.train_step",)

# Called by every tensor op to find the active tape: a span on it would
# double the tensor layer's spans and time nothing a caller asks for.
SKIP = {"tensor.active_tape"}

# A per-call size read from the arguments: tape records for a backward
# pass, examples for a batched prediction.
_SIZES = {
    "tensor.Tape.backward": lambda args, kwargs: len(args[0]),
    "models._SequenceModel.predict_batch": lambda args, kwargs: len(args[1]),
}


def _public_members(module):
    """(owner, attribute, function, span name) for every public callable defined in ``module``."""
    mod_name = module.__name__
    short = mod_name.rsplit(".", 1)[-1]
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") and not inspect.isclass(obj):
            continue
        if inspect.isfunction(obj) and obj.__module__ == mod_name:
            if not inspect.isgeneratorfunction(obj) and f"{short}.{attr}" not in SKIP:
                yield module, attr, obj, f"{short}.{attr}"
        elif inspect.isclass(obj) and obj.__module__ == mod_name:
            for meth, fn in sorted(vars(obj).items()):
                if meth.startswith("_") or not inspect.isfunction(fn):
                    continue
                if inspect.isgeneratorfunction(fn):
                    continue
                yield obj, meth, fn, f"{short}.{attr}.{meth}"


class Tracer:
    """Records spans while installed; analysis reads the flat arrays afterwards."""

    def __init__(self, modules):
        self.modules = list(modules)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trace = array("i")
        self.trace_root: dict[int, str] = {0: ""}
        self.span_size: dict[int, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str, new_trace: bool = False) -> int:
        stack = self._stack()
        with self._lock:
            idx = len(self.start)
            parent = stack[-1] if stack else -1
            if new_trace:
                trace = len(self.trace_root)
                self.trace_root[trace] = name
            else:
                trace = self.trace[parent] if parent >= 0 else 0
            self.name_id.append(self._name(name))
            self.parent.append(parent)
            self.trace.append(trace)
            self.end.append(float("nan"))
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, new_trace: bool = False):
        """A span opened by the benchmark itself around a block."""
        idx = self.open(name, new_trace)
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, fn, name: str):
        tracer = self
        new_trace = name in TRACE_ROOTS
        size = _SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name, new_trace)
            try:
                if size is not None:
                    tracer.span_size[idx] = size(args, kwargs)
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        originals: dict[int, object] = {}
        for module in self.modules:
            for owner, attr, fn, name in _public_members(module):
                wrapper = self._wrappers.get(id(fn))
                if wrapper is None:
                    wrapper = self._wrappers[id(fn)] = self._wrap(fn, name)
                originals[id(fn)] = wrapper
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        # names imported into other modules (``from .tensor import x``) point at the same objects
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and getattr(module, attr) is not wrapper:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "trace": np.frombuffer(self.trace, dtype=np.int32).copy(),
        }

    def save(self, path: str) -> None:
        roots = [self.trace_root[i] for i in range(len(self.trace_root))]
        np.savez(path, names=np.array(self.names), trace_roots=np.array(roots), **self.arrays())


class SpanTable:
    """Durations, self times and grouping of a tracer's spans, as numpy arrays."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(tracer.names)
        self.name_id = a["name_id"]
        self.parent = a["parent"]
        self.trace = a["trace"]
        self.duration = a["end"] - a["start"]
        child = np.zeros(self.duration.size)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.duration[has_parent])
        # children run inside their parent on the same thread, so they cover
        # disjoint parts of its interval and their durations add up
        self.self_time = self.duration - child
        self.size = np.full(self.duration.size, np.nan)
        for idx, value in tracer.span_size.items():
            self.size[idx] = value
        roots = tracer.trace_root
        self.trace_kind = np.array([roots[i] for i in range(len(roots))], dtype=object)
        self.module = np.array([n.split(".", 1)[0] for n in self.names], dtype=object)
        span_module = self.module[self.name_id]
        parent_module = np.where(has_parent, span_module[np.maximum(self.parent, 0)], "")
        # a call into a layer from outside it, as opposed to the layer calling itself
        self.entry = span_module != parent_module

    def mask(self, *, names=None, prefix=None, suffix=None, module=None,
             kind=None) -> np.ndarray:
        """Boolean mask of spans matching every given condition.

        ``kind`` keeps spans whose trace was started by a span of that name.
        """
        ok = np.ones(self.name_id.size, dtype=bool)
        if names is not None or prefix is not None or suffix is not None:
            wanted = [i for i, n in enumerate(self.names)
                      if (names is None or n in names)
                      and (prefix is None or n.startswith(prefix))
                      and (suffix is None or n.endswith(suffix))]
            ok &= np.isin(self.name_id, wanted)
        if module is not None:
            ok &= self.module[self.name_id] == module
        if kind is not None:
            ok &= self.trace_kind[self.trace] == kind
        return ok
