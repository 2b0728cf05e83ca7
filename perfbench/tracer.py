"""In-memory span tracer that wraps module attributes from the outside.

The benchmark replaces the module-level names a layer calls through (for
example ``sturm_liouville.eigh_tridiagonal``) by wrappers that record a span,
and puts the originals back afterwards.  No file of the package changes.  A
span is (name, start, end, parent, trace id, size, error); one trace id
covers one entry-point call.  Spans stay in memory until the run writes them
out.  A wrap point that no longer exists is listed in ``missing`` rather than
raising, so a refactor that renames a path turns its metrics into "missing".
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "trace", "size", "error")

    def __init__(self, name, start, parent, trace, size):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.trace = trace
        self.size = size
        self.error = None


class Tracer:
    """Records nested spans of wrapped callables; one thread, one stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._trace = 0
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def installed(self, points):
        """Wrap every ``(module, attr, span_name, size_of_args)`` point while open.

        ``size_of_args`` maps the positional arguments to a work size (points
        or rows), or is None.  Points whose attribute is absent are recorded
        in ``missing`` once and skipped.
        """
        for module, attr, name, size in points:
            fn = getattr(module, attr, None)
            if fn is None:
                if name not in self.missing:
                    self.missing.append(name)
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, size))
        try:
            yield self
        finally:
            for module, attr, fn in reversed(self._restore):
                setattr(module, attr, fn)
            self._restore.clear()

    @contextmanager
    def root(self, name):
        """Span of one entry-point call, under a fresh trace id."""
        self._trace += 1
        span = self._open(name, 0)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self._close(span)

    def _open(self, name, size) -> Span:
        span = Span(name, self.clock(), self._stack[-1] if self._stack else -1,
                    self._trace, size)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span):
        self._stack.pop()
        span.end = self.clock()

    def _wrap(self, name, fn, size):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, size(args) if size is not None else 0)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
        return wrapper

    def write(self, path):
        """Write the spans as JSON lines, with their self times."""
        with open(path, "w") as out:
            for i, (s, own) in enumerate(zip(self.spans, self_times(self.spans))):
                out.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "trace": s.trace, "size": s.size,
                    "error": s.error, "self": own,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for a, b in sorted((spans[k].start, spans[k].end) for k in kids):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out
