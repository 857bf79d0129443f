"""In-memory spans around aspkit's public functions, installed from the
benchmark's side; the program itself is not edited.

``Tracer.install`` replaces each traced function with a wrapper in every
``aspkit`` module that binds it (so ``from .x import f`` call sites are
covered too) and each traced method on its class.  A wrapper records a
span (name, start, end, parent) and may bump counters from the call's
arguments and result.  ``Tracer.take`` turns the spans of one pass into
per-name totals and self times (a span minus its direct children) and
clears them, so memory stays bounded by one pass.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

_now = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        #: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: wrappers pass calls straight through while False
        self.enabled = True

    @contextlib.contextmanager
    def span(self, name: str):
        """A span not tied to a wrapped function."""
        index = self.enter(name)
        try:
            yield
        finally:
            self.leave(index)

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, _now(), 0.0, parent])
        self._open.append(index)
        return index

    def leave(self, index: int) -> None:
        self.spans[index][2] = _now()
        self._open.pop()

    def wrap(self, name: str, func, count=None):
        """``func`` recording span ``name``; ``count(counts, args,
        result)`` runs after the span closes."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            index = self.enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.leave(index)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def counter(self, key: str, func):
        """``func`` adding one to count ``key`` per call, without a span."""

        @functools.wraps(func)
        def counted(*args, **kwargs):
            if self.enabled:
                self.counts[key] += 1
            return func(*args, **kwargs)

        return counted

    def install(self, module_name: str, attr: str, name: str,
                count=None) -> None:
        """Trace ``module_name.attr`` (``attr`` may be ``Class.method``)."""
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, self.wrap(name, getattr(cls, method), count))
            return
        self.replace(getattr(owner, attr), self.wrap(name, getattr(owner, attr),
                                                     count))

    @staticmethod
    def replace(original, traced) -> None:
        """Rebind ``original`` to ``traced`` in every aspkit module."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "aspkit" or mod_name.startswith("aspkit."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def take(self) -> tuple[dict, dict, dict, dict]:
        """Per-name total seconds, self seconds, seconds by (parent name,
        child name), and counts, since the last call; all spans must
        be closed."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        nested: dict[tuple[str, str], float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            own[name] += end - start
            if parent >= 0:
                parent_name = self.spans[parent][0]
                own[parent_name] -= end - start
                nested[parent_name, name] += end - start
        counts = dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return dict(total), dict(own), dict(nested), counts

