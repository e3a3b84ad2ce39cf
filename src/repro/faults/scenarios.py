"""Canned chaos scenarios — reproducible failure drills for the repro.

Two drills exercise the two halves of the paper's pipeline under an
active fault profile:

* :func:`run_sweep_scenario` — a mini benchmark sweep (the measurement
  side).  The invariant under any profile: **every point is measured or
  explicitly quarantined**, never silently dropped, and the process
  never sees an unhandled exception.
* :func:`run_storm_scenario` — a burst of job submissions through the
  eco plugin (the scheduling side).  The invariant: **every job is
  submitted** (modified when Chronus answers, unchanged when it cannot),
  and once the circuit breaker opens a sick Chronus costs a cheap state
  check per job instead of a full timeout.

Both are pure in-process simulations driven by the seeded
:mod:`repro.faults` injector, so a scenario is exactly reproducible from
``(profile, seed)`` — that is what lets CI gate on their outcome (the
``chaos`` gate of ``scripts/gate.py``) and what ``chronus faults run``
executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import faults, telemetry

__all__ = [
    "ScenarioResult",
    "metric_total",
    "run_sweep_scenario",
    "run_storm_scenario",
    "run_failover_scenario",
    "run_restd_scenario",
]


def metric_total(snapshot: dict, name: str) -> float:
    """Sum a counter/gauge across all label sets in a telemetry snapshot."""
    total = 0.0
    for kind in ("counters", "gauges"):
        for entry in snapshot.get(kind, []):
            if entry.get("name") == name:
                total += entry.get("value", 0.0)
    return total


@dataclass
class ScenarioResult:
    """Outcome of one chaos drill, ready for gating and rendering."""

    scenario: str
    profile: str
    total: int  # points in the sweep / jobs in the storm
    completed: int  # measured points / submitted jobs
    quarantined: int = 0
    skipped: int = 0
    modified_jobs: int = 0
    unhandled_error: Optional[str] = None
    faults_fired: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    @property
    def accounted(self) -> bool:
        """No point/job vanished: everything completed or was set aside."""
        return self.completed + self.quarantined + self.skipped == self.total

    @property
    def ok(self) -> bool:
        return self.unhandled_error is None and self.accounted

    def render(self) -> str:
        verdict = "OK" if self.ok else "FAILED"
        lines = [
            f"chaos {self.scenario} [{self.profile}]: {verdict} — "
            f"{self.completed}/{self.total} completed, "
            f"{self.quarantined} quarantined, {self.skipped} skipped"
        ]
        if self.scenario == "storm":
            lines[0] += f", {self.modified_jobs} modified"
        if self.unhandled_error:
            lines.append(f"  unhandled: {self.unhandled_error}")
        if self.faults_fired:
            fired = ", ".join(f"{k}×{v}" for k, v in sorted(self.faults_fired.items()))
            lines.append(f"  faults fired: {fired}")
        if self.metrics:
            shown = ", ".join(f"{k}={v:g}" for k, v in sorted(self.metrics.items()))
            lines.append(f"  metrics: {shown}")
        return "\n".join(lines)


_SWEEP_METRICS = (
    "ipmi_retries_total",
    "ipmi_degraded_samples_total",
    "bench_samples_missed_total",
    "sweep_point_retries_total",
    "sweep_points_quarantined_total",
    "sqlite_write_retries_total",
    "retry_attempts_total",
    "faults_injected_total",
)

_FAILOVER_METRICS = (
    "journal_appends_total",
    "journal_replayed_records_total",
    "journal_torn_tail_total",
    "ha_takeovers_total",
    "ha_fenced_writes_total",
    "ha_heartbeats_missed_total",
    "dbd_duplicates_dropped_total",
    "faults_injected_total",
)

_STORM_METRICS = (
    "eco_applied_total",
    "eco_fallback_total",
    "eco_short_circuits_total",
    "breaker_short_circuits_total",
    "deadline_exceeded_total",
    "retry_attempts_total",
    "faults_injected_total",
)


def _collect(names: tuple, baseline: Optional[dict] = None) -> dict:
    """Current metric totals, minus ``baseline`` when given.

    Scenarios report the *delta* their run produced so back-to-back drills
    in one process (the ``chaos`` gate) do not bleed into each other.
    """
    snap = telemetry.snapshot()
    values = {name: metric_total(snap, name) for name in names}
    if baseline:
        values = {name: values[name] - baseline.get(name, 0.0) for name in values}
    return values


def run_sweep_scenario(
    profile: str, *, points: int = 8, seed: int = 0, duration_s: float = 60.0
) -> ScenarioResult:
    """Mini benchmark sweep under a fault profile.

    Runs ``points`` configurations serially through a
    :class:`~repro.core.application.sweep_executor.SweepExecutor` (serial
    keeps the injector's seeded draws in one process, making the drill
    exactly reproducible) against an in-memory repository.
    """
    from repro.core.application.sweep_executor import SweepExecutor
    from repro.core.domain.configuration import Configuration
    from repro.core.repositories.memory_repository import MemoryRepository
    from repro.core.runners.sweep_worker import build_sweep_points, run_sweep_point
    from repro.core.services.lscpu_info import LscpuSystemInfo
    from repro.slurm.cluster import SimCluster

    cluster = SimCluster(seed=seed)
    spec = cluster.node.spec
    step = max(1, spec.total_cores // max(1, points))
    configs = [
        Configuration(cores, 1, spec.frequencies_khz[-1])
        for cores in range(step, spec.total_cores + 1, step)
    ][:points]
    faults.configure(profile, seed=seed)
    baseline = _collect(_SWEEP_METRICS)
    result = ScenarioResult(
        scenario="sweep", profile=profile, total=len(configs), completed=0
    )
    try:
        executor = SweepExecutor(
            MemoryRepository(),
            LscpuSystemInfo(cluster.node),
            run_sweep_point,
            workers=1,
            sleep=lambda s: None,  # chaos drills must not wall-sleep
        )
        sweep_points = build_sweep_points(
            configs, base_seed=seed, duration_s=duration_s
        )
        rows = executor.run_sweep(sweep_points)
        report = executor.last_report
        result.completed = len(rows)
        result.quarantined = len(report.quarantined) if report else 0
        result.skipped = report.skipped if report else 0
    except Exception as exc:  # the gate: nothing may escape the executor
        result.unhandled_error = f"{type(exc).__name__}: {exc}"
    finally:
        result.faults_fired = faults.active().fired_counts()
        result.metrics = _collect(_SWEEP_METRICS, baseline)
        faults.reset()
    return result


def run_failover_scenario(
    profile: str,
    *,
    jobs: int = 60,
    seed: int = 0,
    kill: bool = True,
) -> ScenarioResult:
    """SIGKILL-the-leader drill under a fault profile (the HA side).

    Runs :func:`repro.slurm.ha.run_failover_drill`: a two-peer slurmctld
    control plane serving a submit storm, the leader killed mid-storm
    (and crash/torn-write faults from *profile* firing at journal
    appends).  Gates: every submission lands, **zero jobs lost, zero
    duplicated**, and the journal-fed accounting daemon ends bit-consistent
    with the controller's accounting.
    """
    import tempfile

    from repro.slurm.ha import run_failover_drill

    baseline = _collect(_FAILOVER_METRICS)
    result = ScenarioResult(
        scenario="failover", profile=profile, total=jobs, completed=0
    )
    with tempfile.TemporaryDirectory(prefix="chronus-statesave-") as path:
        try:
            report = run_failover_drill(
                jobs=jobs,
                statesave_path=path,
                seed=seed,
                kill_at_fraction=0.5 if kill else None,
                fault_profile=profile or None,
                snapshot_interval=max(10, jobs // 3),
            )
            result.completed = report.completed
            if report.failures:
                result.unhandled_error = "; ".join(report.failures)
            result.metrics["takeovers"] = float(report.takeovers)
            result.metrics["retries"] = float(report.retries)
            result.metrics["replayed_records"] = float(report.replayed_records)
            result.metrics["recovery_ms"] = report.recovery_wall_s * 1e3
            result.metrics["outage_sim_s"] = report.outage_sim_s
        except Exception as exc:  # the gate: the drill must never raise
            result.unhandled_error = f"{type(exc).__name__}: {exc}"
        finally:
            result.metrics.update(_collect(_FAILOVER_METRICS, baseline))
            faults.reset()
    return result


_RESTD_METRICS = (
    "restd_requests_total",
    "restd_connections_total",
    "restd_slowloris_total",
    "restd_bad_auth_total",
    "restd_unauthorized_total",
    "restd_dedup_hits_total",
    "faults_injected_total",
)


def run_restd_scenario(
    profile: str, *, requests: int = 40, seed: int = 0
) -> ScenarioResult:
    """REST gateway under hostile clients (the ``restd-pressure`` drills).

    Drives ``requests`` real HTTP calls — job submits, diag reads,
    paginated lists — against a live :class:`~repro.restd.server.RestdServer`
    backed by an HA drill control plane, with the *profile*'s
    ``restd.slowloris`` / ``restd.bad_auth`` faults firing in the daemon.
    Gates: **every request receives a well-formed answer** — success
    completed, an injected stall/auth outage answered with the standard
    error envelope (408 / 401, quarantined here), nothing left hanging
    and no unhandled exception in the daemon or the drill.
    """
    import http.client
    import json
    import tempfile

    from repro.api.auth import TokenAuthority
    from repro.restd.gateway import RestGateway
    from repro.restd.server import RestdServer
    from repro.slurm.ha import DRILL_BINARY, build_drill_plane

    result = ScenarioResult(
        scenario="restd", profile=profile, total=requests, completed=0
    )
    baseline = _collect(_RESTD_METRICS)
    with tempfile.TemporaryDirectory(prefix="chronus-restd-chaos-") as path:
        drill = build_drill_plane(path)
        authority = TokenAuthority("chaos-drill-secret")
        token = authority.issue("chaos", "admin")
        gateway = RestGateway(
            authority=authority, leader=drill.plane.leader, dbd=drill.dbd
        )
        server = RestdServer(gateway).start()
        faults.configure(profile, seed=seed)
        try:
            for i in range(requests):
                if i % 3 == 0:
                    method, target, body = (
                        "POST",
                        "/slurm/v1/jobs",
                        json.dumps(
                            {
                                "name": f"restd-chaos-{i:04d}",
                                "binary": DRILL_BINARY,
                                "time_limit_s": 120,
                            }
                        ),
                    )
                elif i % 3 == 1:
                    method, target, body = "GET", "/slurm/v1/diag", None
                else:
                    method, target, body = "GET", "/slurm/v1/jobs?limit=5", None
                conn = http.client.HTTPConnection(*server.address, timeout=10.0)
                try:
                    conn.request(
                        method,
                        target,
                        body=body,
                        headers={"Authorization": f"Bearer {token}"},
                    )
                    answer = conn.getresponse()
                    payload = json.loads(answer.read())
                except (OSError, http.client.HTTPException):
                    # the injected stall made the daemon answer 408 and
                    # hang up while we were still writing the request —
                    # the abort races our send, exactly like a real
                    # mid-upload timeout
                    result.quarantined += 1
                    continue
                finally:
                    conn.close()
                if 200 <= answer.status < 300:
                    result.completed += 1
                elif answer.status in (401, 408) and "error" in payload:
                    # an injected fault, answered with the envelope
                    result.quarantined += 1
                else:
                    result.unhandled_error = (
                        f"request {i} ({method} {target}) answered "
                        f"{answer.status}: {payload}"
                    )
                    break
                with gateway.lock:
                    drill.sim.run(until=drill.sim.now + 0.5)
        except Exception as exc:  # the gate: the drill must never raise
            result.unhandled_error = f"{type(exc).__name__}: {exc}"
        finally:
            result.faults_fired = faults.active().fired_counts()
            faults.reset()
            server.stop()
            drill.close()
            result.metrics = _collect(_RESTD_METRICS, baseline)
    return result


def run_storm_scenario(
    profile: str,
    *,
    jobs: int = 50,
    seed: int = 0,
    failure_threshold: int = 3,
) -> ScenarioResult:
    """Submit storm through the eco plugin under a fault profile.

    ``jobs`` opted-in submissions hit a plugin whose Chronus provider is
    healthy — the *profile* decides whether predictions time out or come
    back as garbage.  Gates: every job submits successfully, jobs the
    plugin cannot optimize go through *unchanged*, and under a dead
    Chronus the breaker limits provider calls to roughly the failure
    threshold (plus half-open probes) instead of one timeout per job.
    """
    from repro.resilience import CircuitBreaker
    from repro.serving.protocol import PredictResponse
    from repro.slurm.cluster import SimCluster
    from repro.slurm.job import JobDescriptor
    from repro.slurm.plugins.base import SLURM_SUCCESS
    from repro.slurm.plugins.eco import JobSubmitEco, PluginState

    cluster = SimCluster(seed=seed)
    spec = cluster.node.spec

    class _Provider:
        calls = 0

        def predict(self, request):
            _Provider.calls += 1
            return PredictResponse(
                cores=spec.total_cores,
                threads_per_core=1,
                frequency=spec.frequencies_khz[1],
            )

    faults.configure(profile, seed=seed)
    baseline = _collect(_STORM_METRICS)
    breaker = CircuitBreaker(
        "eco_predict",
        failure_threshold=failure_threshold,
        recovery_timeout_s=3600.0,  # no recovery inside the storm
    )
    plugin = JobSubmitEco(
        cluster.node, _Provider(), PluginState("user"), breaker=breaker
    )
    result = ScenarioResult(scenario="storm", profile=profile, total=jobs, completed=0)
    try:
        for i in range(jobs):
            desc = JobDescriptor(
                name=f"storm-{i}", comment="chronus", binary="/opt/hpcg/xhpcg",
                num_tasks=4,
            )
            rc = plugin.job_submit(desc, submit_uid=1000 + i)
            if rc != SLURM_SUCCESS:
                result.unhandled_error = f"job {i} rejected with rc={rc}"
                break
            result.completed += 1
            if desc.num_tasks != 4:
                result.modified_jobs += 1
    except Exception as exc:  # the gate: the plugin must never raise
        result.unhandled_error = f"{type(exc).__name__}: {exc}"
    finally:
        result.faults_fired = faults.active().fired_counts()
        result.metrics = _collect(_STORM_METRICS, baseline)
        result.metrics["provider_calls"] = float(_Provider.calls)
        faults.reset()
    return result
