"""Span-based tracing with context propagation.

A :class:`Span` measures one operation (wall-clock) and knows its parent,
so nested instrumentation (``submit`` -> ``plugin_chain`` -> ``eco.predict``)
produces a tree.  The current span propagates through a ``contextvars``
context variable, which follows threads spawned via ``contextvars.copy_context``
and asyncio tasks for free.

Finished spans land in a bounded ring buffer on the tracer (for inspection
and the ``chronus metrics`` summary) and, when a registry is attached, each
span's duration is observed into a ``span_seconds`` histogram labelled by
span name — so tracing and metrics stay consistent without double
instrumentation.
"""

from __future__ import annotations

import contextvars
import itertools
import time
from collections import deque
from typing import Any, Optional

__all__ = ["Span", "Tracer", "current_span"]

#: bounded finished-span history per tracer
SPAN_HISTORY = 2048

_current_span: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_telemetry_current_span", default=None
)


def current_span() -> "Optional[Span]":
    """The innermost active span in this context, or None."""
    return _current_span.get()


class Span:
    """One traced operation; use as a context manager."""

    __slots__ = ("tracer", "name", "span_id", "parent_id", "parent_name",
                 "attributes", "start_s", "end_s", "_token")

    def __init__(self, tracer: "Tracer", name: str, parent: "Optional[Span]",
                 attributes: "dict[str, Any]") -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = tracer._next_id()
        self.parent_id = parent.span_id if parent is not None else None
        self.parent_name = parent.name if parent is not None else None
        self.attributes = attributes
        self.start_s = 0.0
        self.end_s = 0.0
        self._token: Optional[contextvars.Token] = None

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        self._token = _current_span.set(self)
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end_s = time.perf_counter()
        if self._token is not None:
            _current_span.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        self.tracer._finish(self)

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "parent_name": self.parent_name,
            "duration_s": self.duration_s,
            "attributes": dict(self.attributes),
        }


class Tracer:
    """Creates spans and keeps a bounded history of finished ones."""

    def __init__(self, registry=None, *, history: int = SPAN_HISTORY) -> None:
        self.registry = registry
        self.finished: deque = deque(maxlen=history)
        self._ids = itertools.count(1)

    def _next_id(self) -> int:
        return next(self._ids)

    def span(self, name: str, **attributes: Any) -> Span:
        """Open a span; the parent is whatever span is active in context."""
        return Span(self, name, _current_span.get(), attributes)

    def _finish(self, span: Span) -> None:
        self.finished.append(span)
        if self.registry is not None:
            self.registry.histogram(
                "span_seconds", {"span": span.name}
            ).observe(span.duration_s)

    def spans_named(self, name: str) -> "list[Span]":
        return [s for s in self.finished if s.name == name]

    def reset(self) -> None:
        self.finished.clear()
