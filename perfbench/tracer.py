"""In-memory span tracer that times calls into a program from outside it.

The tracer replaces module attributes with timing wrappers and puts the
originals back on exit.  Each call becomes a :class:`Span` with a name, the
layer it belongs to, start and end times, its parent span and free-form
attributes.  Spans stay in memory; the arithmetic at the bottom of this
module turns them into busy and self times.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and owns the attribute patches that produce them.

    Use as a context manager: leaving the ``with`` block restores every
    patched attribute, also when the traced code raised.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, fn, name: str, layer: str, args=(), kwargs=None,
              attrs: dict | None = None, parent: int | None = None, prepare=None,
              summarize=None):
        """Call ``fn`` inside a new span and return its result.

        The parent defaults to the innermost open span of the calling
        thread; pass ``parent`` for work handed to another thread.
        ``prepare(span)`` may return new ``(args, kwargs)`` once the span
        exists, and ``summarize(result)`` returns attributes to record.
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(next(self._ids), parent, name, layer, time.perf_counter(), attrs=attrs or {})
        kwargs = kwargs or {}
        if prepare is not None:
            args, kwargs = prepare(span)
        stack.append(span.id)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            stack.pop()
            span.end = time.perf_counter()
            self.spans.append(span)
        if summarize is not None:
            span.attrs.update(summarize(result))
        return result

    def wrap(self, fn, name: str, layer: str, describe=None, adapt=None, summarize=None):
        """A stand-in for ``fn`` that records one span per call.

        ``describe(arguments)`` receives the bound arguments by parameter
        name, defaults applied, and returns the span's attributes;
        ``adapt(span, arguments)`` may replace arguments in place once the
        span exists.
        """
        signature = inspect.signature(fn) if describe or adapt else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = prepare = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if describe is not None:
                    attrs = describe(bound.arguments)
                if adapt is not None:
                    def prepare(span):
                        adapt(span, bound.arguments)
                        return bound.args, bound.kwargs
            return self.timed(fn, name, layer, args, kwargs, attrs=attrs,
                              prepare=prepare, summarize=summarize)

        return traced


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    lo = hi = None
    for start, end in sorted(intervals):
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if hi is not None:
        total += hi - lo
    return total


def busy(spans) -> float:
    """Wall time during which at least one of ``spans`` was open."""
    return covered((s.start, s.end) for s in spans)


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children running concurrently in several threads are counted once
    where they overlap.
    """
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None:
            children[parent.id].append((max(s.start, parent.start), min(s.end, parent.end)))
    return {s.id: s.duration - covered(children[s.id]) for s in spans}


def ancestors(span: Span, by_id: dict[int, Span]):
    """The spans enclosing ``span``, innermost first."""
    parent = by_id.get(span.parent)
    while parent is not None:
        yield parent
        parent = by_id.get(parent.parent)
