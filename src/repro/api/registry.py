"""``OpRegistry`` — one dispatch table for ``{"op": ...}`` control messages.

The prediction server's control ops live here instead of in an inline
if/else chain: handlers register per op name, dispatch wraps their dict
result in the standard ``{"proto": "chronus/2", "ok": true, "op": ...}``
envelope, and every
failure — unknown op, a :class:`ChronusError`, an unexpected exception —
resolves through :func:`repro.api.errors.envelope_for` into the one
:class:`~repro.serving.protocol.ErrorResponse` error shape.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Mapping

from repro.api.errors import envelope_for
from repro.core.domain.errors import ChronusError

__all__ = ["OpRegistry"]

#: a handler takes (target, probe) and answers a payload dict
OpHandler = Callable[[Any, Mapping[str, Any]], dict]

PROTO_V2 = "chronus/2"


class OpRegistry:
    """Named-op dispatch for a socket daemon's control messages."""

    def __init__(self, role: str) -> None:
        self.role = role
        self._ops: dict[str, OpHandler] = {}

    def register(self, name: str) -> Callable[[OpHandler], OpHandler]:
        """Decorator: ``@OPS.register("ping")``."""

        def _decorate(handler: OpHandler) -> OpHandler:
            if name in self._ops:
                raise ValueError(f"op {name!r} already registered on {self.role!r}")
            self._ops[name] = handler
            return handler

        return _decorate

    def ops(self) -> list[str]:
        return sorted(self._ops)

    # ------------------------------------------------------------------
    def dispatch(self, target: Any, probe: Mapping[str, Any]) -> str:
        """Answer one ``{"op": ...}`` message; always returns a JSON line."""
        from repro.serving.protocol import ErrorResponse

        op = probe.get("op")
        handler = self._ops.get(op)
        if handler is None:
            return ErrorResponse(
                code="INVALID",
                message=f"unknown op {op!r}; this {self.role} serves {self.ops()}",
            ).to_json()
        try:
            result = handler(target, probe)
        except ChronusError as exc:
            envelope = envelope_for(exc)
            return ErrorResponse(
                code=envelope.code,
                message=envelope.message,
                retryable=envelope.retryable,
            ).to_json()
        except Exception as exc:  # a handler bug must still answer the wire
            return ErrorResponse(
                code="INTERNAL", message=f"{type(exc).__name__}: {exc}"
            ).to_json()
        return json.dumps({"proto": PROTO_V2, "ok": True, "op": op, **result})
