"""``ChronusServer`` — the prediction daemon behind ``job_submit_eco``.

The paper pre-loads models "to speed up the prediction process, as Slurm
has a very short time to make a decision when a job is submitted".  This
module is the serving layer that promise scales through:

* a bounded :class:`~repro.serving.cache.ModelCache` keyed by
  ``(system_id, application)`` holds fitted optimizers in memory, with
  ``chronus serve --preload`` pinning the ones that must always answer
  inside the plugin window;
* a :class:`~repro.serving.batching.MicroBatcher` coalesces a submit
  storm's concurrent predict calls into vectorized batch evaluations —
  duplicates in a batch cost one optimizer call total.  It is
  work-conserving: a batch is whatever queued up while the previous one
  ran, so a request that arrives alone is answered without delay;
* admission control answers overload with an explicit ``SHED``
  :class:`~repro.serving.protocol.ErrorResponse`, engaging the plugin's
  breaker + no-op fallback instead of stalling slurmctld;
* one :meth:`handle_wire` entry point answers ``chronus/2`` wire lines
  through :func:`repro.serving.protocol.handle_wire`, so the transports —
  in-process :class:`~repro.serving.transport.LocalTransport` and the
  Unix-socket daemon — share every code path above.

Fault sites: ``serve.shed`` forces admission control to reject a request
(drilling the plugin's fallback), ``serve.slow`` stalls one batch
(drilling the plugin's deadline).
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, List, Optional, Sequence, Union

from repro import faults, telemetry
from repro.api.registry import OpRegistry
from repro.core.application.load_model_service import LoadModelService
from repro.core.application.slurm_config_service import SlurmConfigService
from repro.core.domain.errors import ProtocolError
from repro.serving import protocol
from repro.serving.batching import MicroBatcher
from repro.serving.cache import ModelCache
from repro.serving.protocol import (
    SHED,
    ErrorResponse,
    PredictRequest,
    PredictResponse,
)

__all__ = ["ChronusServer", "SERVER_OPS"]

Answer = Union[PredictResponse, ErrorResponse]

#: how long one injected ``serve.slow`` stall lasts (seconds); long enough
#: to blow the plugin's 100 ms budget, short enough for fast chaos drills
SLOW_FAULT_STALL_S = 0.15


class ChronusServer:
    """Serves predictions from pre-loaded models at submit-storm rates."""

    def __init__(
        self,
        config_service: SlurmConfigService,
        *,
        load_model_service: Optional[LoadModelService] = None,
        cache_capacity: Optional[int] = 8,
        max_batch: int = 16,
        queue_limit: int = 128,
        shadow_sample_rate: Optional[float] = None,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.config_service = config_service
        self.load_model_service = load_model_service
        self._log = log or (lambda msg: None)
        #: the serving cache replaces the service's unbounded default so
        #: cache pressure (and pinning) is observable and bounded
        self.model_cache = ModelCache(cache_capacity, metric_prefix="model_cache")
        config_service.cache = self.model_cache
        if shadow_sample_rate is not None:
            config_service.shadow_sample_rate = shadow_sample_rate
        self.batcher = MicroBatcher(
            # bound to the service, not to this server: no server <-> batcher cycle
            functools.partial(_handle_batch, config_service),
            max_batch=max_batch,
            queue_limit=queue_limit,
        )
        #: set when a wire client asked the daemon to exit
        self.shutdown_requested = threading.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self.batcher.running

    def start(self) -> "ChronusServer":
        """Start the batching thread (without it, predicts run inline)."""
        self.batcher.start()
        return self

    def stop(self) -> None:
        self.batcher.stop()

    def __enter__(self) -> "ChronusServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # model management
    # ------------------------------------------------------------------
    def preload(self, model_id: int) -> tuple[str, str]:
        """Pre-load model ``model_id`` and pin it in the serving cache.

        Wraps :class:`LoadModelService` (artifact to local disk + settings
        entry), then :meth:`SlurmConfigService.warm` loads the optimizer
        and scores its candidate grid, so the *first* request after
        startup is already a cache hit and an index lookup; the pin keeps
        capacity pressure from evicting it.  Returns the cache key.
        """
        if self.load_model_service is None:
            raise ProtocolError("this server was built without a LoadModelService")
        metadata, _ = self.load_model_service.run(model_id)
        # pin before the load: when every other entry is pinned, a full
        # cache drops the unpinned newcomer it was just given
        key = self.config_service.model_key(metadata.system_id)
        self.model_cache.pin(key)
        self.config_service.warm(metadata.system_id)
        self._log(
            f"serve: model {model_id} pinned as {key} "
            f"({metadata.model_type}, warmed)"
        )
        return key

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def predict(self, request: PredictRequest) -> Answer:
        """One prediction through admission control + the batch queue."""
        if faults.fire("serve.shed"):
            telemetry.counter("serve_shed_total").inc()
            return ErrorResponse(
                code=SHED, message="admission control shed (injected fault)",
                retryable=True,
            )
        return self.batcher.submit(request)

    # ------------------------------------------------------------------
    # wire entry point (chronus/2 requests + control ops)
    # ------------------------------------------------------------------
    def handle_wire(self, line: "str | bytes") -> str:
        """Answer one wire message; always returns a JSON line.

        Control operations (``{"op": "ping"}``, ``{"op": "shutdown"}``)
        are answered inline from :data:`SERVER_OPS`; everything else is
        decoded as a ``chronus/2`` request and served.
        """
        return protocol.handle_wire(self, SERVER_OPS, line)


def _handle_batch(
    config_service: SlurmConfigService, requests: Sequence[PredictRequest]
) -> List[Answer]:
    """One vectorized evaluation for a coalesced micro-batch."""
    if faults.fire("serve.slow"):
        time.sleep(SLOW_FAULT_STALL_S)
    with telemetry.span("serve.batch", size=len(requests)):
        return config_service.predict_batch(requests)


# ----------------------------------------------------------------------
# control ops — one registry, its dispatch and error envelope from
# repro.api.registry
# ----------------------------------------------------------------------
SERVER_OPS = OpRegistry("prediction server")


@SERVER_OPS.register("shutdown")
def _op_shutdown(server: "ChronusServer", probe: dict) -> dict:
    server.shutdown_requested.set()
    server._log("serve: shutdown requested over the wire")
    return {}


@SERVER_OPS.register("ping")
def _op_ping(server: "ChronusServer", probe: dict) -> dict:
    return {
        "models_cached": len(server.model_cache),
        "batching": server.running,
    }


@SERVER_OPS.register("reload")
def _op_reload(server: "ChronusServer", probe: dict) -> dict:
    # promotion already takes effect lazily through identity-tag
    # invalidation; reload is the operator's big hammer — drop every
    # cached optimizer (pins survive and re-attach on the next request)
    # so the registry state is re-read immediately
    dropped = len(server.model_cache)
    server.model_cache.clear()
    server._log(f"serve: reload requested; dropped {dropped} cached models")
    return {"dropped": dropped}
