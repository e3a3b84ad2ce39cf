"""``job_submit_eco`` — the paper's C plugin, translated.

Responsibilities (paper sections 3.1.1, 4.2):

1. Decide whether the plugin applies: a *plugin state* managed through
   ``chronus set state`` chooses between ``deactivated`` (never), ``user``
   (only jobs submitted with ``--comment "chronus"``, the default) and
   ``activated`` (every job).
2. Identify the system: read ``/proc/cpuinfo`` and ``/proc/meminfo`` (with
   error handling), concatenate, and ``simple_hash`` the result.
3. Identify the application: hash the executable.  The paper's
   implementation hard-codes the binary path (limitation 6.1.2); we hash
   the descriptor's binary string, preserving the same contract.
4. Ask Chronus for the energy-efficient configuration through the typed
   prediction port, the only way in: the ``PredictionProvider`` protocol,
   a frozen ``PredictRequest`` in, a ``PredictResponse`` or explicit
   ``ErrorResponse`` out.
5. Rewrite the job descriptor: ``num_tasks``, ``threads_per_core`` and the
   ``--cpu-freq`` window.

Failure policy matches production common sense (and the plugin's default
no-op behaviour): if Chronus is unreachable, too slow, or returns garbage,
the job is submitted *unchanged* — an energy optimizer must never take the
cluster down.  Two resilience layers enforce that at scale:

* a :class:`~repro.resilience.Deadline` caps every prediction call —
  slurmctld's submit path cannot afford an unbounded RPC, and a result
  that arrives after the budget is discarded (slurmctld has moved on);
* a :class:`~repro.resilience.CircuitBreaker` opens after consecutive
  failures so a down Chronus costs one cheap state check per submission
  instead of a full timeout each — a submit storm during an outage stays
  fast.  Half-open probing re-admits Chronus once it recovers.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.application.interfaces import PredictionProvider

from repro import faults, telemetry
from repro.core.domain.errors import ConfigValidationError, PredictTimeoutError
from repro.hardware.node import SimulatedNode
from repro.resilience import CircuitBreaker, CircuitOpenError, Deadline
from repro.serving.protocol import (
    ErrorResponse,
    PredictRequest,
    PredictResponse,
    decode_response,
)
from repro.slurm.job import JobDescriptor
from repro.slurm.plugins.base import SLURM_SUCCESS, JobSubmitPlugin
from repro.core.domain.chash import simple_hash

__all__ = [
    "PluginState",
    "JobSubmitEco",
    "system_hash_from_node",
    "parse_chronus_comment",
    "validate_chronus_config",
]

#: default wall-clock budget for one prediction call (seconds).  slurmctld
#: holds locks during job_submit; the real plugin must answer in far less
#: than a scheduling cycle.
DEFAULT_PREDICT_BUDGET_S = 0.1


def parse_chronus_comment(comment: str) -> "tuple[bool, float | None]":
    """Parse the job-comment opt-in syntax.

    ``"chronus"`` opts in; ``"chronus perf=0.95"`` additionally sets a
    performance floor (run at least this fraction of the fastest measured
    configuration — the practical slice of the paper's 6.2.1 deadline
    idea).  Returns (opted_in, min_perf).  Malformed perf values opt the
    job in without a floor (never block a submission over a typo).
    """
    tokens = comment.strip().lower().split()
    if not tokens or tokens[0] != "chronus":
        return False, None
    min_perf = None
    for token in tokens[1:]:
        if token.startswith("perf="):
            try:
                value = float(token.split("=", 1)[1])
            except ValueError:
                continue
            if 0.0 < value <= 1.0:
                min_perf = value
    return True, min_perf


def validate_chronus_config(
    response: PredictResponse, node: SimulatedNode
) -> "tuple[int, int, int]":
    """Validate a prediction answer against this node's hardware.

    Returns ``(cores, threads_per_core, frequency)`` or raises
    :class:`ConfigValidationError` describing exactly what is wrong — a
    garbage answer must never reach the job descriptor.  The *schema*
    half (keys present, numbers integral) already ran when the answer
    was decoded (:func:`repro.serving.protocol.parse_config_fields`);
    this function adds the half only the plugin can check — bounds come
    from the node itself: requested cores cannot exceed the node's, SMT
    depth cannot exceed the CPU's, and the frequency must sit inside the
    cpufreq window the hardware advertises.
    """
    cores, tpc, freq = response.cores, response.threads_per_core, response.frequency
    if not 1 <= cores <= node.total_cores:
        raise ConfigValidationError(
            f"cores={cores} outside this node's range [1, {node.total_cores}]"
        )
    if tpc < 1 or tpc > node.spec.threads_per_core:
        raise ConfigValidationError(
            f"threads_per_core={tpc} outside this CPU's range "
            f"[1, {node.spec.threads_per_core}]"
        )
    freqs = node.spec.frequencies_khz
    if not freqs[0] <= freq <= freqs[-1]:
        raise ConfigValidationError(
            f"frequency={freq} outside the cpufreq window "
            f"[{freqs[0]}, {freqs[-1]}] kHz"
        )
    return cores, tpc, freq


#: valid plugin states (``chronus set state <..>``)
PLUGIN_STATES = ("deactivated", "user", "activated")


class PluginState:
    """Shared mutable plugin state (admin-controlled via the Chronus CLI).

    ``set`` is guarded by a lock: slurmctld's submit threads read the
    state concurrently with ``chronus set state``, and a reader must see
    either the old or the new valid value — never an intermediate.
    """

    def __init__(self, state: str = "user") -> None:
        self._lock = threading.Lock()
        self.set(state)

    def set(self, state: str) -> None:
        if state not in PLUGIN_STATES:
            raise ValueError(f"unknown plugin state {state!r}; valid: {PLUGIN_STATES}")
        with self._lock:
            self.state = state


def system_hash_from_node(node: SimulatedNode) -> int:
    """The C plugin's system identifier: hash(cpuinfo + meminfo).

    Mirrors the error handling of the original: an unreadable file
    contributes an empty string rather than failing the submission.
    """
    parts = []
    for path in ("/proc/cpuinfo", "/proc/meminfo"):
        try:
            parts.append(node.read_file(path))
        except OSError:
            parts.append("")
    return simple_hash("".join(parts))


class JobSubmitEco(JobSubmitPlugin):
    """The eco job-submit plugin."""

    name = "eco"

    def __init__(
        self,
        node: SimulatedNode,
        provider: "PredictionProvider",
        state: Optional[PluginState] = None,
        *,
        log: Optional[Callable[[str], None]] = None,
        predict_budget_s: float = DEFAULT_PREDICT_BUDGET_S,
        breaker: Optional[CircuitBreaker] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.node = node
        self.provider = provider
        self.state = state or PluginState()
        self._log = log or (lambda msg: None)
        self.predict_budget_s = predict_budget_s
        self.breaker = breaker or CircuitBreaker(
            "eco_predict", failure_threshold=3, recovery_timeout_s=30.0
        )
        self._clock = clock
        #: cached system hash — /proc contents are stable for a node's
        #: lifetime, and slurmctld cannot afford re-reading them per job
        self._system_hash: Optional[int] = None
        #: the typed response behind the *most recent* job_submit (None
        #: when the plugin skipped or fell back); the controller reads
        #: this to stamp attempt provenance
        self.last_served: Optional[PredictResponse] = None

    # ------------------------------------------------------------------
    def system_hash(self) -> int:
        if self._system_hash is None:
            telemetry.counter("eco_cache_misses_total").inc()
            self._system_hash = system_hash_from_node(self.node)
        else:
            telemetry.counter("eco_cache_hits_total").inc()
        return self._system_hash

    @staticmethod
    def binary_hash(binary: str) -> int:
        return simple_hash(binary)

    def _applies(self, job_desc: JobDescriptor) -> "tuple[bool, float | None]":
        opted_in, min_perf = parse_chronus_comment(job_desc.comment)
        if self.state.state == "deactivated":
            return False, None
        if self.state.state == "activated":
            return True, min_perf
        # user mode: opt-in through the job comment
        return opted_in, min_perf

    def _call_provider(self, request: PredictRequest) -> PredictResponse:
        """One prediction RPC, with the chaos hooks for a sick Chronus."""
        if faults.fire("predict.timeout"):
            raise PredictTimeoutError(
                f"chronus predict timed out after {self.predict_budget_s}s "
                "(injected fault)"
            )
        response = self.provider.predict(request)
        if faults.fire("predict.garbage"):
            # a truncated answer line, through the socket client's decoder
            response = decode_response('{"cores": "all of them"')
        if isinstance(response, ErrorResponse):
            # SHED and friends: an explicit refusal, never a silent drop —
            # raise so the breaker counts it and the no-op fallback runs
            raise response.to_error()
        return response

    def _predict(
        self, job_desc: JobDescriptor, min_perf: "float | None"
    ) -> "tuple[tuple[int, int, int], PredictResponse]":
        """Breaker-guarded, deadline-bounded prediction + validation.

        Returns the validated configuration plus the typed response that
        carried it, so callers can attribute the decision to the serving
        model's registry identity.
        """
        if not self.breaker.allow():
            raise CircuitOpenError(
                f"eco_predict breaker open; submitting {job_desc.name!r} unmodified"
            )
        deadline_kwargs = {"clock": self._clock} if self._clock else {}
        deadline = Deadline(self.predict_budget_s, **deadline_kwargs)
        try:
            with telemetry.span("eco.predict", job=job_desc.name) as sp:
                request = PredictRequest(
                    system_id=self.system_hash(),
                    binary_hash=self.binary_hash(job_desc.binary),
                    min_perf=min_perf,
                    job_name=job_desc.name,
                )
                served = deadline.run(
                    lambda: self._call_provider(request),
                    op="eco.predict",
                )
                config = validate_chronus_config(served, self.node)
            telemetry.histogram("eco_predict_seconds").observe(sp.duration_s)
        except Exception:
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        return config, served

    # ------------------------------------------------------------------
    def job_submit(self, job_desc: JobDescriptor, submit_uid: int) -> int:
        self.last_served = None
        applies, min_perf = self._applies(job_desc)
        if not applies:
            telemetry.counter("eco_skipped_total").inc()
            return SLURM_SUCCESS
        try:
            (cores, tpc, freq), served = self._predict(job_desc, min_perf)
        except CircuitOpenError as exc:
            telemetry.counter("eco_short_circuits_total").inc()
            telemetry.counter("eco_fallback_total").inc()
            self._log(f"job_submit/eco: {exc}")
            return SLURM_SUCCESS
        except Exception as exc:
            telemetry.counter("eco_fallback_total").inc()
            telemetry.log_event(
                "eco.fallback", level="warning",
                job=job_desc.name, error=type(exc).__name__,
            )
            self._log(
                f"job_submit/eco: could not obtain configuration "
                f"({type(exc).__name__}: {exc}); submitting job unmodified"
            )
            return SLURM_SUCCESS
        telemetry.counter("eco_applied_total").inc()
        self.last_served = served
        # attribute the decision to the registry identity that served it
        # (0:v0 = pre-registry model); the labeled counter lets an
        # operator split applied decisions per model across a promotion
        model_label = f"{served.model_id}:v{served.model_version}"
        telemetry.log_event(
            "eco.applied",
            job=job_desc.name,
            model_id=served.model_id,
            model_version=served.model_version,
            model_type=served.model_type,
        )
        telemetry.counter("eco_model_served_total", {"model": model_label}).inc()
        job_desc.num_tasks = cores
        job_desc.threads_per_core = tpc
        job_desc.cpu_freq_min = freq
        job_desc.cpu_freq_max = freq
        self._log(
            f"job_submit/eco: set job {job_desc.name!r} to cores={cores} "
            f"threads_per_core={tpc} frequency={freq} (model {model_label})"
        )
        return SLURM_SUCCESS
