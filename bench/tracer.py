"""In-memory span tracer that times calls into ``fneq`` from outside.

Tracing rebinds public names: every loaded ``fneq`` module whose
namespace binds a traced function gets a wrapper in its place, so calls
between modules (``neq`` calling ``clustering.kmeans``, ``cli`` calling
``io.load_matrix``) are timed without touching the package's source.
Dataclass constructors are traced through their ``__post_init__``.

A span is ``(id, name, start, end, parent)``. The parent is the
innermost open span of the calling thread; a worker thread with no open
span inherits the main thread's innermost span, which is the call that
is waiting on the pool. Spans and counts stay in memory until
``write``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent, counts]
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_ident = threading.get_ident()
        self._lock = threading.Lock()
        self._restore: list[tuple] = []
        self.active = False

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        with self._lock:
            span = [len(self.spans), name, time.perf_counter(), None, parent, None]
            self.spans.append(span)
        stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack().pop()

    def count(self, span: list, **counts) -> None:
        """Attach a closed span's counts."""
        span[5] = counts

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # -- installing wrappers ---------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def trace_function(self, module, attr: str, name: str, on_result=None) -> None:
        """Rebind ``module.attr`` wherever an ``fneq`` module binds it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fneq" or mod_name.startswith("fneq.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))

    def trace_init(self, cls, name: str) -> None:
        """Time a dataclass constructor through its ``__post_init__``."""
        original = cls.__dict__["__post_init__"]
        setattr(cls, "__post_init__", self.wrap(name, original))
        self._restore.append((cls, "__post_init__", original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        self.active = False

    # -- analysis --------------------------------------------------------

    def children(self) -> dict[int, list[list]]:
        kids = defaultdict(list)
        for span in self.spans:
            if span[4] is not None:
                kids[span[4]].append(span)
        return kids

    @staticmethod
    def covered(spans: list[list]) -> float:
        """Length of the union of the spans' intervals."""
        total, reach = 0.0, None
        for start, end in sorted((s[2], s[3]) for s in spans):
            if reach is None or start > reach:
                total += end - start
                reach = end
            elif end > reach:
                total += end - reach
                reach = end
        return total

    def root_of(self, span: list) -> list:
        while span[4] is not None:
            span = self.spans[span[4]]
        return span

    def layer_totals(self, roots: set[str]) -> dict[str, dict[str, dict[str, float]]]:
        """Per root name, then per span name: ``calls``, ``self_s`` and
        summed counts of the spans under roots with those names."""
        kids = self.children()
        totals: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        for span in self.spans:
            root = self.root_of(span)[1]
            if span[3] is None or root not in roots:
                continue
            entry = totals[root][span[1]]
            entry["calls"] += 1
            entry["self_s"] += span[3] - span[2] - self.covered(kids.get(span[0], []))
            for key, value in (span[5] or {}).items():
                entry[key] += value
        return totals

    def write(self, path) -> None:
        rows = [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4], "counts": s[5]}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)

