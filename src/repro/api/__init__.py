"""``repro.api`` — the one public contract every surface speaks.

Before this package the project had three divergent client surfaces: the
chronus/2 Unix-socket wire protocol, direct ``Slurmctld`` method calls,
and the ``chronus`` CLI — each with its own request shapes and its own
idea of what an error looks like.  ``repro.api`` is the single layer the
REST gateway (:mod:`repro.restd`), the socket daemon and the CLI all
resolve through:

* :mod:`repro.api.errors` — every :mod:`repro.core.domain.errors` class
  mapped to a stable machine-readable code, an HTTP status and a
  user/internal/transient classification, rendered as one
  :class:`~repro.api.errors.ErrorEnvelope` shape everywhere;
* :mod:`repro.api.types` — typed request/response dataclasses with
  strict ``from_dict`` validation (a garbage field fails at the edge,
  not deep inside the controller);
* :mod:`repro.api.registry` — the op-dispatch registry behind the
  socket daemon's ``{"op": ...}`` control messages;
* :mod:`repro.api.auth` — HMAC-signed bearer tokens (slurmrestd's
  auth/jwt analogue) with ordered read < submit < admin scopes;
* :mod:`repro.api.openapi` — the machine-readable spec generated from
  the dataclasses above (checked in as ``docs/openapi.json``).
"""

from __future__ import annotations

from repro.api.auth import Token, TokenAuthority
from repro.api.errors import (
    ERROR_TABLE,
    ErrorEnvelope,
    envelope_for,
    exit_code_for,
    http_status_for,
)
from repro.api.registry import OpRegistry

__all__ = [
    "ERROR_TABLE",
    "ErrorEnvelope",
    "envelope_for",
    "exit_code_for",
    "http_status_for",
    "OpRegistry",
    "Token",
    "TokenAuthority",
]
