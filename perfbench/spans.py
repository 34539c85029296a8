"""In-memory span tracing and attribute patching for the traced benchmark run.

A span is ``[name, start, end, parent, meta]``: ``parent`` is the index of
the enclosing span in the same list (-1 for a root) and ``meta`` is whatever
the wrapper's ``meta`` callback extracted from the call's arguments (for
example a run's horizon T). Spans stay in memory until the run ends.

Nothing under ``src/`` is edited: :class:`Patches` swaps library attributes
for tracing wrappers and puts every original back on exit.
"""

from __future__ import annotations

import functools
import time

NAME, START, END, PARENT, META = range(5)


class Tracer:
    """Collects nested spans from wrapped callables (single-threaded)."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self._stack = []
        self._clock = clock

    def wrap(self, name, fn, meta=None):
        """Return ``fn`` wrapped so that each call records one span."""
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    meta(args, kwargs) if meta is not None else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced


def durations(spans):
    return [s[END] - s[START] for s in spans]


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    Children of one parent never overlap (calls are nested on one thread),
    so the covered part is the sum of the children's durations.
    """
    out = durations(spans)
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


class Patches:
    """Context manager that sets attributes and restores the originals on exit.

    ``owner`` is a module or a class. Entries are restored in reverse order,
    also when the body raises.
    """

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False
