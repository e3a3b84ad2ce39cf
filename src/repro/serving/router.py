"""``ShardRouter`` — consistent-hash front for a fleet of prediction workers.

PR 6 made one ``ChronusServer`` fast; a head node at fleet scale runs N of
them and needs every submit-storm request to land on a worker that already
holds the right model hot.  The router owns that placement:

* **Rendezvous (highest-random-weight) hashing** on the request's
  ``(system, binary)`` pair: every shard is scored with the paper's own
  ``simple_hash`` (Listing 3) over ``"system|binary@shard"`` and the
  highest-scoring *healthy* shard wins.  The shard key is the model-cache
  key — all requests for one ``(system, binary)`` hit the same worker, so
  each worker's bounded :class:`~repro.serving.cache.ModelCache` only ever
  holds its own partition of the model set.  Rendezvous (vs. a ring of
  virtual nodes) means a worker joining or leaving remaps only the keys it
  wins or held — ``~K/N`` of the keyspace — with zero ring state.
* **Health probes + failover**: a transport error fails the request over
  to the next-ranked shard (same deterministic order every caller
  computes) and counts against the shard; ``probe_failures`` consecutive
  errors mark it dead until a probe or a successful request revives it.
  Dead shards keep their scores — rendezvous re-routes their keys to the
  runner-up and moves them *back* on recovery.
* **Fleet-wide aggregation**: :meth:`fleet_stats` merges per-shard
  counters (and each worker's ``ping`` answer when the transport supports
  it) into one view; ``{"op": "fleet"}`` serves it over the wire.

The router speaks the same duck-typed contract ``UnixSocketServer``
expects of a ``ChronusServer`` (``handle_wire`` + ``shutdown_requested``),
so a fleet front is just ``UnixSocketServer(ShardRouter(...), path)`` —
the transport and the wire decode
(:func:`repro.serving.protocol.handle_wire`) are reused unchanged.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Union

from repro import telemetry
from repro.api.registry import OpRegistry
from repro.core.domain.errors import ProtocolError
from repro.serving import protocol
from repro.serving.protocol import (
    ErrorResponse,
    PredictRequest,
    PredictResponse,
)
from repro.core.domain.chash import simple_hash

__all__ = ["ShardRouter", "ROUTER_OPS", "shard_score"]

Answer = Union[PredictResponse, ErrorResponse]

#: consecutive transport failures before a shard is marked dead
DEFAULT_PROBE_FAILURES = 3

_MASK64 = (1 << 64) - 1


def _fmix64(h: int) -> int:
    """64-bit avalanche finalizer (MurmurHash3's fmix64).

    ``simple_hash`` alone is too weak for rendezvous scoring: djb2 is
    ``hash*33 + c`` per byte, so with the shard name as the suffix the
    final characters dominate the comparison and one shard wins the whole
    keyspace.  The finalizer spreads every input bit across the word,
    after which max-score selection is uniform.
    """
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK64
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _MASK64
    h ^= h >> 33
    return h


def shard_score(system_id: "int | str", binary_hash: "int | str", shard: str) -> int:
    """Rendezvous weight of ``shard`` for one ``(system, binary)`` key.

    Pure and deterministic — clients, tests and the router itself all
    rank shards identically, which is what makes failover order and
    join/leave key movement predictable.  Built on the paper's own
    ``simple_hash`` (Listing 3) with an avalanche finalizer on top.
    """
    return _fmix64(simple_hash(f"{system_id}|{binary_hash}@{shard}"))


class _Shard:
    __slots__ = (
        "name", "transport", "healthy", "consecutive_failures",
        "requests", "failures", "epoch",
    )

    def __init__(self, name: str, transport, epoch: int = 0) -> None:
        self.name = name
        self.transport = transport  # anything with .predict(PredictRequest)
        self.healthy = True
        self.consecutive_failures = 0
        self.requests = 0
        self.failures = 0
        #: control-plane epoch this shard was registered under (HA fencing)
        self.epoch = epoch


class ShardRouter:
    """Routes predict traffic across N ``ChronusServer`` workers."""

    def __init__(
        self,
        *,
        probe_failures: int = DEFAULT_PROBE_FAILURES,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        if probe_failures < 1:
            raise ValueError("probe_failures must be >= 1")
        self.probe_failures = probe_failures
        self._log = log or (lambda msg: None)
        self._shards: dict[str, _Shard] = {}
        self._lock = threading.Lock()
        #: control-plane epoch; shards registered under an older epoch are
        #: fenced (never routed to, never revived) after a failover
        self._fleet_epoch = 0
        #: UnixSocketServer duck-type contract (same as ChronusServer)
        self.shutdown_requested = threading.Event()

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_shard(self, name: str, transport, *, epoch: int = 0) -> None:
        """Join a worker; ~1/N of the keyspace immediately routes to it.

        ``epoch`` is the control-plane epoch registering the worker.  A
        name already held by an *older* epoch is replaced (the new leader
        re-registering the fleet after takeover); re-registering at the
        same epoch is an error, and a stale epoch is rejected outright.
        """
        with self._lock:
            if epoch < self._fleet_epoch:
                telemetry.counter("router_stale_epoch_rejected_total").inc()
                raise ValueError(
                    f"shard {name!r} registration at epoch {epoch} rejected: "
                    f"fleet epoch is {self._fleet_epoch}"
                )
            existing = self._shards.get(name)
            if existing is not None and existing.epoch >= epoch:
                raise ValueError(f"shard {name!r} already registered")
            self._shards[name] = _Shard(name, transport, epoch=epoch)
        self._log(f"router: shard {name} joined (epoch {epoch})")
        self._update_health_gauge()

    def set_fleet_epoch(self, epoch: int) -> int:
        """Advance the fleet epoch (called by a taking-over leader).

        Every shard registered under an older epoch is immediately marked
        unhealthy and stays fenced: live traffic and probes will not
        revive it until it re-registers at the current epoch.  Lowering
        the epoch is an error.  Returns the number of shards fenced.
        """
        fenced = 0
        with self._lock:
            if epoch < self._fleet_epoch:
                raise ValueError(
                    f"fleet epoch cannot move backwards "
                    f"({self._fleet_epoch} -> {epoch})"
                )
            self._fleet_epoch = epoch
            for shard in self._shards.values():
                if shard.epoch < epoch and shard.healthy:
                    shard.healthy = False
                    fenced += 1
        if fenced:
            self._log(
                f"router: epoch {epoch} fenced {fenced} stale shard(s)"
            )
        self._update_health_gauge()
        return fenced

    @property
    def fleet_epoch(self) -> int:
        with self._lock:
            return self._fleet_epoch

    def _stale(self, shard: _Shard) -> bool:
        with self._lock:
            return shard.epoch < self._fleet_epoch

    def remove_shard(self, name: str) -> None:
        """Leave a worker; only its keys remap (to their runner-up shard)."""
        with self._lock:
            if name not in self._shards:
                raise KeyError(f"unknown shard {name!r}")
            del self._shards[name]
        self._log(f"router: shard {name} left")
        self._update_health_gauge()

    def healthy_shards(self) -> list[str]:
        with self._lock:
            return sorted(s.name for s in self._shards.values() if s.healthy)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _ranked(
        self, system_id: "int | str", binary_hash: "int | str"
    ) -> list[_Shard]:
        """All shards, best rendezvous score first (ties broken by name)."""
        with self._lock:
            shards = list(self._shards.values())
        return sorted(
            shards,
            key=lambda s: (shard_score(system_id, binary_hash, s.name), s.name),
            reverse=True,
        )

    def route(self, system_id: "int | str", binary_hash: "int | str") -> str:
        """Name of the healthy shard that owns this key (for tests/ops)."""
        for shard in self._ranked(system_id, binary_hash):
            if shard.healthy:
                return shard.name
        raise LookupError("no healthy shard")

    def predict(self, request: PredictRequest) -> Answer:
        """Route one prediction, failing over down the rendezvous ranking."""
        telemetry.counter("router_requests_total").inc()
        ranked = self._ranked(request.system_id, request.binary_hash)
        attempted_dead = False
        for shard in ranked:
            if not shard.healthy:
                attempted_dead = True
                continue
            try:
                answer = shard.transport.predict(request)
            except (OSError, ProtocolError) as exc:
                self._note_failure(shard, exc)
                telemetry.counter("router_failover_total").inc()
                continue
            self._note_success(shard)
            return answer
        # last resort: a "dead" shard may have recovered since its probe —
        # but never a fenced one: a stale-epoch worker answering again is
        # the zombie side of a leader failover, not a recovery
        if attempted_dead:
            for shard in ranked:
                if shard.healthy:
                    continue
                if self._stale(shard):
                    telemetry.counter("router_stale_epoch_rejected_total").inc()
                    continue
                try:
                    answer = shard.transport.predict(request)
                except (OSError, ProtocolError):
                    continue
                self._note_success(shard)
                self._log(f"router: shard {shard.name} revived by live traffic")
                return answer
        telemetry.counter("router_no_shard_total").inc()
        return ErrorResponse(
            code="INTERNAL",
            message="no healthy shard for this key",
            retryable=True,
        )

    def _note_success(self, shard: _Shard) -> None:
        with self._lock:
            shard.requests += 1
            shard.consecutive_failures = 0
            # a fenced shard stays dead no matter what it answers
            if not shard.healthy and shard.epoch >= self._fleet_epoch:
                shard.healthy = True
        self._update_health_gauge()

    def _note_failure(self, shard: _Shard, exc: Exception) -> None:
        died = False
        with self._lock:
            shard.failures += 1
            shard.consecutive_failures += 1
            if shard.healthy and shard.consecutive_failures >= self.probe_failures:
                shard.healthy = False
                died = True
        if died:
            self._log(
                f"router: shard {shard.name} marked dead "
                f"({shard.consecutive_failures} consecutive failures: {exc})"
            )
        self._update_health_gauge()

    def _update_health_gauge(self) -> None:
        with self._lock:
            healthy = sum(1 for s in self._shards.values() if s.healthy)
        telemetry.gauge("router_healthy_shards").set(healthy)

    # ------------------------------------------------------------------
    # health probes
    # ------------------------------------------------------------------
    def probe_once(self) -> dict[str, bool]:
        """Probe every shard once; returns ``{name: healthy}`` after.

        A transport with a ``ping`` method (the socket client) is pinged
        over the wire; an in-process transport is probed through its
        server's ``running`` flag when it has one, else assumed up.  A
        probe success revives a dead shard immediately.
        """
        with self._lock:
            shards = list(self._shards.values())
        result: dict[str, bool] = {}
        for shard in shards:
            try:
                ping = getattr(shard.transport, "ping", None)
                if callable(ping):
                    answer = ping()
                    ok = bool(answer.get("ok"))
                else:
                    server = getattr(shard.transport, "server", None)
                    ok = server is None or bool(getattr(server, "running", True))
            except (OSError, ProtocolError, ValueError):
                ok = False
            if ok and self._stale(shard):
                # the worker answers, but it belongs to a fenced leader
                telemetry.counter("router_stale_epoch_rejected_total").inc()
                ok = False
            if ok:
                with self._lock:
                    shard.consecutive_failures = 0
                    shard.healthy = True
            else:
                self._note_failure(shard, ProtocolError("probe failed"))
            result[shard.name] = shard.healthy
        self._update_health_gauge()
        return result

    # ------------------------------------------------------------------
    # fleet aggregation
    # ------------------------------------------------------------------
    def fleet_stats(self) -> dict:
        """One merged view of the fleet: router counters + worker pings."""
        with self._lock:
            shards = list(self._shards.values())
        per_shard = {}
        models_cached = 0
        for shard in shards:
            info: dict = {
                "healthy": shard.healthy,
                "requests": shard.requests,
                "failures": shard.failures,
                "epoch": shard.epoch,
            }
            ping = getattr(shard.transport, "ping", None)
            server = getattr(shard.transport, "server", None)
            try:
                if callable(ping):
                    answer = ping()
                    info["models_cached"] = int(answer.get("models_cached", 0))
                elif server is not None:
                    info["models_cached"] = len(server.model_cache)
            except (OSError, ProtocolError, ValueError):
                info["ping_error"] = True
            models_cached += info.get("models_cached", 0)
            per_shard[shard.name] = info
        return {
            "shards": per_shard,
            "fleet_epoch": self.fleet_epoch,
            "shard_count": len(shards),
            "healthy_count": sum(1 for s in shards if s.healthy),
            "requests_total": sum(s.requests for s in shards),
            "failures_total": sum(s.failures for s in shards),
            "models_cached_total": models_cached,
        }

    # ------------------------------------------------------------------
    # wire entry point (UnixSocketServer-compatible)
    # ------------------------------------------------------------------
    def handle_wire(self, line: "str | bytes") -> str:
        """Answer one wire message; the fleet front's ``handle_wire``.

        Predict requests route to a shard; ``{"op": "fleet"}`` answers
        the aggregated stats; ``ping``/``shutdown`` are handled at the
        router (a fleet ping must not depend on any one worker).
        """
        return protocol.handle_wire(self, ROUTER_OPS, line)


# ----------------------------------------------------------------------
# control ops — the same OpRegistry machinery as the prediction server
# and the REST gateway; a fleet ping must not depend on any one worker
# ----------------------------------------------------------------------
ROUTER_OPS = OpRegistry("shard router")


@ROUTER_OPS.register("fleet")
def _op_fleet(router: "ShardRouter", probe: dict) -> dict:
    return dict(router.fleet_stats())


@ROUTER_OPS.register("ping")
def _op_ping(router: "ShardRouter", probe: dict) -> dict:
    with router._lock:
        shard_count = len(router._shards)
        healthy = sum(1 for s in router._shards.values() if s.healthy)
    return {"role": "router", "shards": shard_count, "healthy": healthy}


@ROUTER_OPS.register("shutdown")
def _op_shutdown(router: "ShardRouter", probe: dict) -> dict:
    router.shutdown_requested.set()
    router._log("router: shutdown requested over the wire")
    return {}
