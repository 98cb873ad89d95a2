"""Span recording for the traced benchmark run.

The tracer wraps public ``hte`` functions at the module attribute their
callers look them up through (for example ``hte.ensemble.build_grid``), so
the library itself is not edited.  Each call becomes one span (name, start,
end, parent span, optional counts) kept in memory; ``write`` dumps them as
JSON when the run ends.  A layer's self time is its span's duration minus
the durations of its direct children: children run nested on the same
thread, so they never overlap each other.

A name that is missing at its wrap site (the library renamed or removed it)
is recorded in ``absent`` instead of raising, so the layer can be reported
as absent.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        span = Span(name, perf_counter(), float("nan"), stack[-1] if stack else None)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = perf_counter()
        self._stack().pop()
        return span

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, owner, attr: str, name: str, count=None) -> bool:
        """Replace ``owner.attr`` by a recording wrapper; False if it is absent.

        ``owner`` is a module or a class.  ``count(args, kwargs, result)``
        may return a dict of counts stored on the span.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                span = self._close(index)
            if count is not None:
                span.counts.update(count(args, kwargs, result))
            return result

        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, wrapper)
        return True

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def self_seconds(self, first: int = 0, last: int | None = None) -> list[float]:
        """Self time of each span in ``spans[first:last]``."""
        last = len(self.spans) if last is None else last
        child = defaultdict(float)
        for span in self.spans[first:last]:
            if span.parent is not None:
                child[span.parent] += span.seconds
        return [self.spans[i].seconds - child[i] for i in range(first, last)]

    def root_name(self, index: int) -> str:
        """Name of the outermost span enclosing ``spans[index]``."""
        span = self.spans[index]
        while span.parent is not None:
            span = self.spans[span.parent]
        return span.name

    def write(self, path) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, **s.counts}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "absent": self.absent}, fh)
