"""Structured (JSON-lines) logging.

One event per line, machine-parseable, with a stable field order:
``ts`` (wall clock, injectable for tests), ``level``, ``event``, then any
caller-supplied fields.  The logger can tee to an in-memory buffer, an open
stream, and/or a file path; failures to write never propagate — telemetry
must not take the cluster down, same policy as the eco plugin itself.
"""

from __future__ import annotations

import io
import json
import threading
import time
from typing import Any, Callable, Optional, TextIO

__all__ = ["JsonLinesLogger", "LEVELS"]

LEVELS = ("debug", "info", "warning", "error")


class JsonLinesLogger:
    """Thread-safe JSON-lines event logger."""

    def __init__(
        self,
        *,
        stream: Optional[TextIO] = None,
        path: Optional[str] = None,
        clock: Optional[Callable[[], float]] = None,
        buffer_size: int = 4096,
    ) -> None:
        self._stream = stream
        self._path = path
        self._clock = clock or time.time
        self._lock = threading.Lock()
        self._buffer: list[dict] = []
        self._buffer_size = buffer_size

    def log(self, event: str, *, level: str = "info", **fields: Any) -> dict:
        if level not in LEVELS:
            raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
        record = {"ts": self._clock(), "level": level, "event": event}
        record.update(fields)
        line = json.dumps(record, default=str)
        with self._lock:
            self._buffer.append(record)
            if len(self._buffer) > self._buffer_size:
                del self._buffer[: len(self._buffer) - self._buffer_size]
            if self._stream is not None:
                try:
                    self._stream.write(line + "\n")
                except (OSError, io.UnsupportedOperation):
                    pass
            if self._path is not None:
                try:
                    with open(self._path, "a") as fh:
                        fh.write(line + "\n")
                except OSError:
                    pass
        return record

    def debug(self, event: str, **fields: Any) -> dict:
        return self.log(event, level="debug", **fields)

    def info(self, event: str, **fields: Any) -> dict:
        return self.log(event, level="info", **fields)

    def warning(self, event: str, **fields: Any) -> dict:
        return self.log(event, level="warning", **fields)

    def error(self, event: str, **fields: Any) -> dict:
        return self.log(event, level="error", **fields)

    def records(self, event: Optional[str] = None) -> "list[dict]":
        with self._lock:
            if event is None:
                return list(self._buffer)
            return [r for r in self._buffer if r["event"] == event]

    def reset(self) -> None:
        with self._lock:
            self._buffer.clear()
