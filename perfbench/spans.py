"""In-memory span recorder for the layer trace.

Spans are opened by wrappers that the benchmark installs around calls into
the program (module attributes are swapped for the duration of a traced run
and restored afterwards); the program's own source is never modified.

A span carries a name, start, end, thread and parent. The parent is the
innermost span open on the same thread; a span opened on a thread with no
open span (a worker of a thread pool) takes as parent the innermost span
open on the thread that created the tracer, which is the span that handed
out the work.

Very hot boundaries (coefficient callables, called once per Euler step) are
recorded as leaves: their time, call count and element count are added to
the enclosing span instead of creating a span per call.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("name", "sid", "parent", "thread", "size", "start", "end", "leaves")

    def __init__(self, name, sid, parent, thread, size):
        self.name = name
        self.sid = sid
        self.parent = parent
        self.thread = thread
        self.size = size
        self.start = self.end = 0.0
        self.leaves = {}  # leaf name -> [seconds, calls, elements]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def leaf_seconds(self) -> float:
        return sum(v[0] for v in self.leaves.values())


class BoundaryMissing(RuntimeError):
    """A function the trace expects to wrap does not exist in the program."""


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.orphan_leaves: dict = {}  # leaf calls made on a thread with no open span
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack = self._stack()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enclosing(self, stack: list) -> Span | None:
        if stack:
            return stack[-1]
        try:
            return self._root_stack[-1]
        except IndexError:
            return None

    def open(self, name: str, size: int = 0) -> Span:
        stack = self._stack()
        parent = self._enclosing(stack)
        span = Span(name, next(self._ids), parent.sid if parent else None, threading.get_ident(), size)
        stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, size: int = 0):
        s = self.open(name, size)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, fn, name: str, size=None):
        """fn wrapped in a span; size(*args) gives the span's size."""

        def traced(*args, **kwargs):
            s = self.open(name, size(*args, **kwargs) if size else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(s)

        traced.__wrapped__ = fn
        return traced

    def leaf(self, fn, name: str, elems):
        """fn timed as a leaf of the innermost span open on the calling thread."""

        def timed(*args):
            t0 = perf_counter()
            out = fn(*args)
            dt = perf_counter() - t0
            stack = self._stack()
            if stack:
                acc = stack[-1].leaves.setdefault(name, [0.0, 0, 0])
            else:
                with self._lock:
                    acc = self.orphan_leaves.setdefault(name, [0.0, 0, 0])
            acc[0] += dt
            acc[1] += 1
            acc[2] += elems(*args)
            return out

        timed.__wrapped__ = fn
        return timed


@contextmanager
def patched(replacements):
    """Set module attributes for the duration of the block, then restore.

    replacements: iterable of (module, attribute, make) where make(original)
    returns the replacement. A missing attribute raises BoundaryMissing
    naming it, so a renamed or removed boundary never silently drops a layer.
    """
    saved = []
    try:
        for module, attr, make in replacements:
            if not hasattr(module, attr):
                raise BoundaryMissing(
                    f"trace boundary {module.__name__}.{attr} not found in the program"
                )
            original = getattr(module, attr)
            setattr(module, attr, make(original))
            saved.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# analysis


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """sid -> span duration minus the part covered by its children (on any
    thread; overlapping children count once) minus its leaf time."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [
            (max(lo, s.start), min(hi, s.end)) for lo, hi in children.get(s.sid, ()) if hi > s.start and lo < s.end
        ]
        out[s.sid] = s.duration - union_length(clipped) - s.leaf_seconds
    return out

