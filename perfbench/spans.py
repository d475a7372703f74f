"""In-memory span recorder used by the traced run.

A span is (name, start, end, parent): the parent is the index of the span
that was open when this one started, or -1. Spans are kept in a list and only
written out when the run ends. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Untraced:
    """Stand-in with the Tracer call interface that records nothing."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def wrap(self, name, fn):
        return fn


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self._open = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        try:
            yield idx
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, package: str, targets: dict):
        """Wrap functions the program calls internally.

        `targets` maps a span name to a function object; every attribute of a
        loaded `package` module bound to that object is replaced by a traced
        wrapper for the duration of the block, so calls resolve to the wrapper
        whichever module they are looked up in.
        """
        saved = []
        wrappers = {id(fn): self.wrap(name, fn) for name, fn in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, value in saved:
                setattr(mod, attr, value)

    def summary(self, root: int) -> dict:
        """Per-name totals over the descendants of span `root` (inclusive):
        {name: {"total": s, "self": s, "calls": n}}."""
        child_time = defaultdict(float)
        inside = {root}
        out = defaultdict(lambda: {"total": 0.0, "self": 0.0, "calls": 0})
        # spans are appended in start order, so a parent precedes its children
        for idx in range(root, len(self.spans)):
            name, start, end, parent = self.spans[idx]
            if idx != root and parent not in inside:
                continue
            inside.add(idx)
            if idx != root:
                child_time[parent] += end - start
        for idx in inside:
            name, start, end, _ = self.spans[idx]
            entry = out[name]
            entry["total"] += end - start
            entry["self"] += end - start - child_time[idx]
            entry["calls"] += 1
        return dict(out)

    def dump(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]
