"""``repro.telemetry`` — metrics, tracing and structured logs for the repro.

The process holds one *active* registry/tracer/logger triple, built at
import; instrumented modules call the module-level helpers
(:func:`counter`, :func:`histogram`, :func:`span`, ...) which dispatch
through it.  There is one implementation of each primitive and no switch
that turns it off.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.telemetry.export import (
    find_metric,
    snapshot_from_json,
    snapshot_to_json,
    snapshot_to_prometheus,
)
from repro.telemetry.logs import JsonLinesLogger
from repro.telemetry.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.tracing import Span, Tracer, current_span

__all__ = [
    # primitives
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "Span", "Tracer", "current_span",
    "JsonLinesLogger",
    # export helpers
    "snapshot_to_json", "snapshot_from_json", "snapshot_to_prometheus",
    "find_metric",
    # global state
    "get_registry", "get_tracer", "set_registry",
    "counter", "gauge", "histogram", "span", "log_event",
    "snapshot", "reset",
]

_registry = MetricsRegistry()
_tracer = Tracer(_registry)
_logger = JsonLinesLogger()


def get_registry() -> MetricsRegistry:
    return _registry


def set_registry(registry: MetricsRegistry) -> None:
    """Swap the active registry (tests); the tracer follows it."""
    global _registry, _tracer
    _registry = registry
    _tracer = Tracer(registry)


def get_tracer() -> Tracer:
    return _tracer


# ---------------------------------------------------------------------------
# hot-path helpers: one indirection over the active implementations
# ---------------------------------------------------------------------------
def counter(name: str, labels: Optional[dict] = None):
    return _registry.counter(name, labels)


def gauge(name: str, labels: Optional[dict] = None):
    return _registry.gauge(name, labels)


def histogram(name: str, labels: Optional[dict] = None):
    return _registry.histogram(name, labels)


def span(name: str, **attributes: Any):
    return _tracer.span(name, **attributes)


def log_event(event: str, *, level: str = "info", **fields: Any) -> dict:
    return _logger.log(event, level=level, **fields)


def snapshot() -> dict:
    return _registry.snapshot()


def reset() -> None:
    """Clear metrics, span history and buffered log records."""
    _registry.reset()
    _tracer.reset()
    _logger.reset()
