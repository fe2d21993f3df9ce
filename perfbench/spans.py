"""In-memory spans and the hooks that record them.

A span is one timed call at a layer boundary: its name, start and end on
the ``perf_counter`` clock, the span that was open when it began, and a few
attributes (a metapath name, a tape-record count). Spans stay in memory and
are summarised when the round ends.

Hooks rebind a library name (a module function or a class method) to a
wrapper that opens a span around the original call. They are installed from
the benchmark's own files, so the library itself carries no tracing code,
and last as long as the round's process. A
name that is missing raises ``HookError``: a renamed function must break the
traced run, not read as zero time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class HookError(RuntimeError):
    """A name the benchmark hooks no longer exists in the library."""


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: int | None, attrs: dict):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        record = Span(name, 0.0, self._open[-1] if self._open else None, attrs)
        self.spans.append(record)
        self._open.append(sid)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def hook(self, owner, attr: str, name, before=None, after=None) -> None:
        """Wrap ``owner.attr`` in a span.

        ``name`` is a span name or a function of the call arguments giving
        one. ``before(args)`` returns span attributes and runs before the
        clock starts; ``after(span, args)`` runs after it stops.
        """
        original = getattr(owner, attr, None)
        if not callable(original):
            owner_name = getattr(owner, "__name__", repr(owner))
            raise HookError(f"cannot trace {owner_name}.{attr}: the library has no such callable")
        tracer = self

        def traced(*args, **kwargs):
            attrs = before(args) if before else {}
            label = name(args) if callable(name) else name
            with tracer.span(label, **attrs) as record:
                result = original(*args, **kwargs)
            if after:
                after(record, args)
            return result

        setattr(owner, attr, traced)

    def named(self, name: str, parent: Span | None = None) -> list[Span]:
        """Spans called ``name``, optionally only the direct children of ``parent``."""
        if parent is None:
            return [s for s in self.spans if s.name == name]
        pid = self.spans.index(parent)
        return [s for s in self.spans if s.name == name and s.parent == pid]
