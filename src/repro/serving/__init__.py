"""``repro.serving`` — the Chronus prediction server.

The paper's "pre-load model" step exists because Slurm gives a job-submit
plugin almost no time; this package turns that observation into a real
serving layer: a versioned wire protocol (:mod:`repro.serving.protocol`),
an LRU model cache with pinning (:mod:`repro.serving.cache`), a
micro-batching queue with admission control
(:mod:`repro.serving.batching`), the :class:`ChronusServer` daemon tying
them together (:mod:`repro.serving.server`), and two transports — an
in-process provider and ``chronus/2`` JSON lines over a Unix socket —
(:mod:`repro.serving.transport`).

Import note: the protocol/cache/batching primitives import nothing from
:mod:`repro.core` beyond its domain errors and are imported eagerly; the
server and transports (which build on the application services) are
exported lazily so ``repro.core`` modules can import the primitives
without a cycle.
"""

from __future__ import annotations

from repro.serving.batching import MicroBatcher
from repro.serving.cache import ModelCache
from repro.serving.protocol import (
    PROTO_V2,
    SHED,
    ErrorResponse,
    PredictRequest,
    PredictResponse,
    decode_response,
    parse_config_fields,
)

__all__ = [
    "PROTO_V2",
    "SHED",
    "PredictRequest",
    "PredictResponse",
    "ErrorResponse",
    "decode_response",
    "parse_config_fields",
    "ModelCache",
    "MicroBatcher",
    "ChronusServer",
    "LocalTransport",
    "UnixSocketServer",
    "UnixSocketTransport",
]

_LAZY = {
    "ChronusServer": ("repro.serving.server", "ChronusServer"),
    "LocalTransport": ("repro.serving.transport", "LocalTransport"),
    "UnixSocketServer": ("repro.serving.transport", "UnixSocketServer"),
    "UnixSocketTransport": ("repro.serving.transport", "UnixSocketTransport"),
}


def __getattr__(name: str):
    # PEP 562 lazy exports: repro.core.application imports the primitives
    # above, and the server imports repro.core.application back — eager
    # re-export here would close that loop during interpreter start
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
