"""The Chronus prediction wire protocol, version ``chronus/2``.

The plugin deadline is the whole reason a wire format exists: slurmctld
holds locks while ``job_submit_eco`` waits for an answer, so every byte
the plugin and the prediction server exchange must parse in one pass with
no negotiation round-trips.  Version 2 makes the contract explicit —
every message is a JSON object carrying a ``proto`` field, requests and
responses are frozen dataclasses, and an error is always an explicit
:class:`ErrorResponse` (a shed request is a ``SHED`` answer, never a
silently dropped connection).

One generation only: a request must name ``chronus/2`` in its ``proto``
field.  A request without one, or naming another generation, is refused
with an explicit ``INVALID`` answer — failing loudly beats guessing what
the client meant.  :func:`handle_wire` is the one place a wire line
becomes a :class:`PredictRequest`; the prediction server answers
through it, with its control ops in an
:class:`~repro.api.registry.OpRegistry`.

Forward compatibility: ``from_dict`` tolerates unknown fields (a newer
client may send more than we know about) but is strict about the types of
the fields it does understand — a garbage value must fail here, not
deep inside an optimizer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro import telemetry
from repro.core.domain.errors import (
    ChronusError,
    ConfigValidationError,
    ModelNotFoundError,
    ProtocolError,
    ServeShedError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.registry import OpRegistry

__all__ = [
    "PROTO_V2",
    "SHED",
    "ERROR_CODES",
    "PredictRequest",
    "PredictResponse",
    "ErrorResponse",
    "parse_config_fields",
    "decode_request_dict",
    "decode_response",
    "handle_wire",
]

#: the protocol generation every message carries in its ``proto`` field
PROTO_V2 = "chronus/2"

#: admission control rejected the request (queue full / shed fault);
#: retryable by contract — the plugin's breaker/fallback handles it
SHED = "SHED"

#: every error code a server may answer with
ERROR_CODES = (
    SHED,
    "INVALID",  # request failed protocol validation
    "MODEL_NOT_FOUND",  # no pre-loaded model answers this (system, binary)
    "INTERNAL",  # handler raised something unexpected
)


def _require_str(data: Mapping[str, Any], key: str, default: str = "") -> str:
    value = data.get(key, default)
    if not isinstance(value, str):
        raise ProtocolError(f"field {key!r} must be a string, got {value!r}")
    return value


def _require_id(data: Mapping[str, Any], key: str, *, required: bool) -> "int | str":
    if key not in data:
        if required:
            raise ProtocolError(f"request is missing required field {key!r}")
        return ""
    value = data[key]
    # bool is an int subclass; "system_id": true must not pass as 1
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ProtocolError(
            f"field {key!r} must be an integer or string, got {value!r}"
        )
    return value


def parse_config_fields(data: Mapping[str, Any]) -> "tuple[int, int, int]":
    """Validate the ``(cores, threads_per_core, frequency)`` triple.

    This is the single schema check for the configuration payload: every
    answer decode (:meth:`PredictResponse.from_dict`, and through it
    :func:`decode_response`) points here instead of keeping its own copy.
    Raises :class:`ConfigValidationError` naming exactly what is wrong.
    """
    if not isinstance(data, Mapping):
        raise ConfigValidationError(
            f"config must be a JSON object, got {type(data).__name__}"
        )
    values = {}
    for key in ("cores", "threads_per_core", "frequency"):
        if key not in data:
            raise ConfigValidationError(f"config is missing required key {key!r}")
        value = data[key]
        # bool is an int subclass; "cores": true must not pass as 1
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigValidationError(
                f"config key {key!r} must be a number, got {value!r}"
            )
        if isinstance(value, float) and not value.is_integer():
            raise ConfigValidationError(
                f"config key {key!r} must be an integer, got {value!r}"
            )
        values[key] = int(value)
    return values["cores"], values["threads_per_core"], values["frequency"]


@dataclass(frozen=True)
class PredictRequest:
    """One prediction query: which configuration should this job run at?

    ``system_id`` / ``binary_hash`` keep whatever integer-or-string shape
    the caller produced (the plugin sends ``simple_hash`` integers, the
    CLI sends strings); the coalescing :meth:`key` normalises them.
    """

    system_id: "int | str"
    binary_hash: "int | str" = ""
    min_perf: Optional[float] = None
    job_name: str = ""
    proto: str = PROTO_V2

    def __post_init__(self) -> None:
        if self.min_perf is not None and not 0.0 < self.min_perf <= 1.0:
            raise ProtocolError(
                f"min_perf must be in (0, 1], got {self.min_perf!r}"
            )

    def key(self) -> "tuple[str, str, float | None]":
        """Identical-answer equivalence class (micro-batch coalescing)."""
        return (str(self.system_id), str(self.binary_hash), self.min_perf)

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "proto": self.proto,
            "system_id": self.system_id,
            "binary_hash": self.binary_hash,
        }
        if self.min_perf is not None:
            data["min_perf"] = self.min_perf
        if self.job_name:
            data["job_name"] = self.job_name
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PredictRequest":
        if not isinstance(data, Mapping):
            raise ProtocolError(
                f"request must be a JSON object, got {type(data).__name__}"
            )
        min_perf = data.get("min_perf")
        if min_perf is not None:
            if isinstance(min_perf, bool) or not isinstance(min_perf, (int, float)):
                raise ProtocolError(
                    f"field 'min_perf' must be a number, got {min_perf!r}"
                )
            min_perf = float(min_perf)
        return cls(
            system_id=_require_id(data, "system_id", required=True),
            binary_hash=_require_id(data, "binary_hash", required=False),
            min_perf=min_perf,
            job_name=_require_str(data, "job_name"),
            proto=_require_str(data, "proto", PROTO_V2),
        )

    @classmethod
    def from_json(cls, text: "str | bytes") -> "PredictRequest":
        return cls.from_dict(_loads_object(text, "request"))


@dataclass(frozen=True)
class PredictResponse:
    """A successful prediction: the configuration the job should run at."""

    cores: int
    threads_per_core: int
    frequency: int
    model_type: str = ""
    batch_size: int = 1
    #: registry identity of the model that answered (0 = pre-registry
    #: entry); lets the plugin and its telemetry attribute every decision
    model_id: int = 0
    model_version: int = 0
    proto: str = PROTO_V2

    def to_dict(self) -> dict[str, Any]:
        return {
            "proto": self.proto,
            "cores": self.cores,
            "threads_per_core": self.threads_per_core,
            "frequency": self.frequency,
            "model_type": self.model_type,
            "batch_size": self.batch_size,
            "model_id": self.model_id,
            "model_version": self.model_version,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PredictResponse":
        cores, tpc, freq = parse_config_fields(data)
        ints = {}
        for key, default in (
            ("batch_size", 1), ("model_id", 0), ("model_version", 0),
        ):
            value = data.get(key, default)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ProtocolError(
                    f"field {key!r} must be an integer, got {value!r}"
                )
            ints[key] = value
        return cls(
            cores=cores,
            threads_per_core=tpc,
            frequency=freq,
            model_type=_require_str(data, "model_type"),
            batch_size=ints["batch_size"],
            model_id=ints["model_id"],
            model_version=ints["model_version"],
            proto=_require_str(data, "proto", PROTO_V2),
        )

    @classmethod
    def from_json(cls, text: "str | bytes") -> "PredictResponse":
        return cls.from_dict(_loads_object(text, "response"))


@dataclass(frozen=True)
class ErrorResponse:
    """An explicit failure answer — the protocol has no silent drops."""

    code: str
    message: str = ""
    retryable: bool = False
    proto: str = PROTO_V2

    def to_dict(self) -> dict[str, Any]:
        return {
            "proto": self.proto,
            "error": self.code,
            "message": self.message,
            "retryable": self.retryable,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_error(self) -> Exception:
        """The exception a caller should raise on this answer."""
        detail = f"{self.code}: {self.message or 'prediction server error'}"
        if self.code == SHED:
            return ServeShedError(detail)
        if self.code == "MODEL_NOT_FOUND":
            return ModelNotFoundError(detail)
        return ChronusError(detail)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ErrorResponse":
        code = _require_str(data, "error")
        if not code:
            raise ProtocolError("error response is missing its 'error' code")
        retryable = data.get("retryable", False)
        if not isinstance(retryable, bool):
            raise ProtocolError(
                f"field 'retryable' must be a boolean, got {retryable!r}"
            )
        return cls(
            code=code,
            message=_require_str(data, "message"),
            retryable=retryable,
            proto=_require_str(data, "proto", PROTO_V2),
        )

    @classmethod
    def from_json(cls, text: "str | bytes") -> "ErrorResponse":
        return cls.from_dict(_loads_object(text, "response"))


# ---------------------------------------------------------------------------
# the wire: one JSON object per message
# ---------------------------------------------------------------------------
def _loads_object(text: "str | bytes", what: str) -> dict:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, TypeError) as exc:
        raise ProtocolError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ProtocolError(
            f"{what} must be a JSON object, got {type(data).__name__}"
        )
    return data


def decode_request_dict(data: Any) -> PredictRequest:
    """Decode one already-parsed wire request.

    Raises :class:`ProtocolError` unless ``data`` is a JSON object whose
    ``proto`` is ``chronus/2`` — a request without the field is refused
    like any other generation.  Taking the parsed payload keeps the
    socket path a single parse: the control-op probe in
    :func:`handle_wire` and the request decode share it.
    """
    if not isinstance(data, Mapping):
        raise ProtocolError(
            f"request must be a JSON object, got {type(data).__name__}"
        )
    proto = data.get("proto")
    if proto != PROTO_V2:
        raise ProtocolError(
            f"unsupported protocol {proto!r}; this server speaks only "
            f"{PROTO_V2!r}"
        )
    return PredictRequest.from_dict(data)


def decode_response(text: "str | bytes") -> "PredictResponse | ErrorResponse":
    """Decode a wire answer into its typed form."""
    data = _loads_object(text, "response")
    if "error" in data:
        return ErrorResponse.from_dict(data)
    return PredictResponse.from_dict(data)


def handle_wire(target: Any, ops: "OpRegistry", line: "str | bytes") -> str:
    """Answer one wire message for ``target``; always returns a JSON line.

    ``target`` is anything with a ``predict(PredictRequest)`` method,
    usually the prediction server.  Control operations
    (``{"op": ...}``) dispatch through ``ops``; everything else is
    decoded as a ``chronus/2`` request and answered by ``target``.  A
    message that does not decode gets an explicit ``INVALID``
    :class:`ErrorResponse`, never a dropped connection.
    """
    try:
        data = json.loads(line)
    except (ValueError, TypeError) as exc:  # bad JSON or bad UTF-8
        telemetry.counter("serve_protocol_errors_total").inc()
        return ErrorResponse(
            code="INVALID", message=f"request is not valid JSON: {exc}"
        ).to_json()
    if isinstance(data, dict) and "op" in data:
        return ops.dispatch(target, data)
    try:
        request = decode_request_dict(data)
    except ProtocolError as exc:
        telemetry.counter("serve_protocol_errors_total").inc()
        return ErrorResponse(code="INVALID", message=str(exc)).to_json()
    return target.predict(request).to_json()
