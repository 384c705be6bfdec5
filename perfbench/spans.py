"""In-memory spans recorded around calls into the program's layers.

The benchmark does not edit the program to trace it: :class:`Tracer`
wraps public functions and methods from the outside (``wrap``), keeps
every span in memory, and writes them out once, when the run ends
(``dump``). A span is ``(id, parent, name, start, end, thread)``; the
parent is the innermost span open on the same thread when it began.

Self time — a span's duration minus the part of it that its children
cover — is what the per-layer figures are built from, so layers nested
inside each other are never counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

_MISSING = object()


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    thread: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> Dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "thread": self.thread}


class Tracer:
    """Collects spans; ``wrap`` installs timing around existing callables."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            id=next(self._ids),
            parent=stack[-1].id if stack else None,
            name=name,
            start=perf_counter(),
            thread=threading.get_ident(),
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def record(self, name: str, start: float, end: float) -> Span:
        """A finished span with no parent (an interval seen from outside)."""
        span = Span(id=next(self._ids), parent=None, name=name, start=start,
                    end=end, thread=threading.get_ident())
        with self._lock:
            self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    # -- wrapping ------------------------------------------------------------

    def replace(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def wrap(self, owner: object, attr: str, name: str,
             when: Optional[Callable[..., bool]] = None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``when(*args)`` limits the span to calls it accepts (the others
        run untimed through the same wrapper).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return original(*args, **kwargs)
            span = tracer.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(span)

        self.replace(owner, attr, timed)

    def wrap_context(self, owner: object, attr: str, name: str) -> None:
        """Time the body of a context manager returned by ``owner.attr``."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        @contextlib.contextmanager
        def timed(*args, **kwargs):
            span = tracer.begin(name)
            try:
                with original(*args, **kwargs) as value:
                    yield value
            finally:
                tracer.end(span)

        self.replace(owner, attr, timed)

    def restore(self) -> None:
        """Undo every ``wrap`` (latest first)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (ids, parents, times, thread)."""
        pid = os.getpid()
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                record = span.to_json()
                record["pid"] = pid
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def load(path: str) -> List[Span]:
    """Read spans written by :meth:`Tracer.dump`."""
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            spans.append(Span(id=record["id"], parent=record["parent"],
                              name=record["name"], start=record["start"],
                              end=record["end"], thread=record["thread"]))
    return spans


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans: Iterable[Span]) -> Dict[Optional[int], List[Span]]:
    index: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        index.setdefault(span.parent, []).append(span)
    return index


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    kids = children_of(spans)
    return {
        span.id: span.duration - covered(
            (max(c.start, span.start), min(c.end, span.end))
            for c in kids.get(span.id, ())
            if c.end > span.start and c.start < span.end
        )
        for span in spans
    }


def totals_under(spans: List[Span], root: Span) -> Dict[str, float]:
    """Summed duration per span name over every descendant of ``root``."""
    kids = children_of(spans)
    totals: Dict[str, float] = {}
    frontier = [root.id]
    while frontier:
        for child in kids.get(frontier.pop(), ()):
            totals[child.name] = totals.get(child.name, 0.0) + child.duration
            frontier.append(child.id)
    return totals


def coverage(root: Span, spans: List[Span]) -> float:
    """Share of ``root``'s duration covered by its direct children."""
    if root.duration <= 0:
        return 0.0
    kids = [s for s in spans if s.parent == root.id]
    return covered((s.start, s.end) for s in kids) / root.duration
