#!/usr/bin/env python
"""Run the repository's gates: drills of the real code paths, each held to
the invariants the paper's claims rest on.

Usage::

    python scripts/gate.py                # every gate, one child interpreter each
    python scripts/gate.py ha workflow    # the named gates, one child each
    python scripts/gate.py kernels        # one gate, in this interpreter

A gate is a drill that runs part of the system and returns a record, plus
a pure function ``failures(record) -> list[str]`` that names every broken
condition; an empty list passes.  Each gate prints one summary line, then
its failures.  The exit status is 0 when every gate passed, 1 when any
failed and 2 for an unknown gate name.

Each gate runs in an interpreter of its own: the telemetry counters, the
fault injector and the forked sweep pool are per process, and no gate may
see another's traffic or threads.

* ``telemetry``: the Figure 1 and plugin-latency benchmarks leave every
  paper-critical metric behind, and the eco predict p95 stays inside
  Slurm's 100 ms job_submit plugin window.
* ``chaos``: a flaky-IPMI sweep accounts for every point; a dead Chronus
  leaves every job unchanged at a bounded number of prediction attempts.
* ``serving``: 200- and 1,000-job predict storms answer exactly like
  serial prediction inside the plugin window, and batched dispatch beats
  scalar predicts measured in the same run.
* ``registry``: a model promoted and rolled back during a submit storm
  reaches a live daemon with no error, no shed and no restart.
* ``storm``: a submit storm through ``Slurmctld`` at 1,000 nodes places
  jobs like ``SchedulerParameters=reference``, in faster passes; every
  job ends, and jobs/s holds at 4x the jobs.
* ``ha``: a leader SIGKILL'd mid-storm loses and duplicates no job, and
  slurmdbd bills what the controller does.
* ``workflow``: DAG storms across a leader kill leave no job stuck,
  re-predict every reschedule and bill equal joules per workflow.
* ``restd``: the same kill over HTTP: no job lost or duplicated, every 503
  carries Retry-After, p95 within budget.
* ``kernels``: the HPCG kernel speedups hold against ``BENCH_PR2.json``,
  and the pool sweep equals the serial one and ranks like the paper.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Slurm's job_submit plugin window, the paper's budget for one prediction
PREDICT_P95_BUDGET_S = 0.1


def _per_variant(drill, prefix: str, variants: dict) -> dict:
    """Run ``drill`` once per variant, each on a fresh state-save directory."""
    record = {}
    for variant, kwargs in variants.items():
        with tempfile.TemporaryDirectory(prefix=prefix) as path:
            record[variant] = drill(statesave_path=path, **kwargs)
    return record


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
TELEMETRY_BENCHMARKS = (
    "benchmarks/bench_fig1_quickrun.py",
    "benchmarks/bench_ablation_plugin_latency.py",
)
TELEMETRY_PYTEST_OPTIONS = (
    "--benchmark-min-rounds=2",
    "--benchmark-max-time=0.25",
    "--benchmark-warmup=off",
)
#: (kind, name) pairs the snapshot must hold; counters must have moved
TELEMETRY_REQUIRED = (
    ("histograms", "eco_predict_seconds"),
    ("histograms", "sched_cycle_seconds"),
    ("counters", "power_samples_total"),
    ("counters", "eco_cache_hits_total"),
    ("counters", "eco_cache_misses_total"),
    ("counters", "eco_applied_total"),
    ("counters", "sched_jobs_started_total"),
    ("counters", "sim_events_total"),
)


def telemetry_drill() -> dict:
    import pytest

    from repro import telemetry

    files = [str(REPO_ROOT / name) for name in TELEMETRY_BENCHMARKS]
    exit_code = pytest.main([*files, "-q", *TELEMETRY_PYTEST_OPTIONS])
    return {"pytest_exit": int(exit_code), "snapshot": telemetry.snapshot()}


def telemetry_failures(record: dict) -> list[str]:
    from repro.telemetry import find_metric

    out = []
    if record["pytest_exit"]:
        out.append(f"the benchmark run exited {record['pytest_exit']}")
    snapshot = record["snapshot"]
    for kind, name in TELEMETRY_REQUIRED:
        entry = find_metric(snapshot, kind, name)
        if entry is None:
            out.append(f"missing {kind[:-1]} {name!r}")
        elif kind == "counters" and entry["value"] <= 0:
            out.append(f"counter {name!r} never incremented")
        elif kind == "histograms" and entry["count"] <= 0:
            out.append(f"histogram {name!r} has no observations")
    predict = find_metric(snapshot, "histograms", "eco_predict_seconds")
    if predict is not None and predict["count"] > 0 and predict["p95"] > PREDICT_P95_BUDGET_S:
        out.append(f"eco predict p95 {predict['p95'] * 1e3:.3f} ms is over the {PREDICT_P95_BUDGET_S * 1e3:.0f} ms window")
    return out


def telemetry_summary(record: dict) -> str:
    from repro.telemetry import find_metric

    snapshot = record["snapshot"]
    metrics = sum(len(snapshot.get(kind, [])) for kind in ("counters", "gauges", "histograms"))
    predict = find_metric(snapshot, "histograms", "eco_predict_seconds") or {"p95": 0.0}
    return f"{metrics} metrics in the snapshot, eco predict p95 {predict['p95'] * 1e3:.3f} ms"


# ----------------------------------------------------------------------
# chaos
# ----------------------------------------------------------------------
#: prediction attempts a 50-job storm against a dead Chronus may make:
#: the breaker's failure threshold plus probe headroom
CHAOS_MAX_PREDICT_ATTEMPTS = 6


def chaos_drill() -> dict:
    from repro.faults.scenarios import run_storm_scenario, run_sweep_scenario

    return {
        "sweep": run_sweep_scenario("flaky-ipmi", points=8),
        "storm": run_storm_scenario("chronus-timeout", jobs=50),
    }


def _predict_attempts(storm) -> float:
    return storm.metrics.get("provider_calls", 0) + storm.faults_fired.get("predict.timeout", 0)


def chaos_failures(record: dict) -> list[str]:
    sweep, storm = record["sweep"], record["storm"]
    out = []
    for result in (sweep, storm):
        label = f"{result.scenario}[{result.profile}]"
        if result.unhandled_error:
            out.append(f"{label}: unhandled exception: {result.unhandled_error}")
        if not result.accounted:
            done = f"{result.completed} + {result.quarantined} + {result.skipped}"
            out.append(f"{label}: {done} of {result.total} points accounted for (silent drop)")
    if not sweep.faults_fired.get("ipmi.read"):
        out.append("flaky-ipmi injected no ipmi.read fault: the drill is vacuous")
    if sweep.metrics.get("ipmi_retries_total", 0) <= 0:
        out.append("flaky-ipmi never exercised the IPMI retry path")
    jobs = storm.total
    if storm.completed != jobs:
        out.append(f"the storm submitted {storm.completed}/{jobs} jobs")
    if storm.modified_jobs:
        out.append(f"the storm modified {storm.modified_jobs} jobs with Chronus dead; fallback leaves jobs untouched")
    if storm.metrics.get("eco_fallback_total", 0) != jobs:
        out.append(f"eco_fallback_total is {storm.metrics.get('eco_fallback_total', 0):g}, not {jobs}")
    if storm.metrics.get("eco_short_circuits_total", 0) <= 0:
        out.append("the breaker never opened: a dead Chronus must short-circuit")
    attempts = _predict_attempts(storm)
    if attempts > CHAOS_MAX_PREDICT_ATTEMPTS:
        out.append(f"{attempts:g} prediction attempts for {jobs} jobs (at most {CHAOS_MAX_PREDICT_ATTEMPTS})")
    return out


def chaos_summary(record: dict) -> str:
    sweep, storm = record["sweep"], record["storm"]
    return (
        f"sweep {sweep.completed} measured / {sweep.quarantined} quarantined "
        f"({sweep.metrics.get('ipmi_retries_total', 0):g} IPMI retries); storm {storm.completed}/{storm.total} "
        f"submitted unchanged after {_predict_attempts(storm):g} prediction attempts"
    )


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
#: storm sizes: a smoke storm and the full one
SERVING_JOBS = (200, 1000)
SERVING_MAX_BATCH = 32
#: best batched requests/sec over scalar requests/sec in the same run
MIN_BATCH_SPEEDUP = 1.0


def serving_drill() -> dict:
    from benchmarks.bench_serving import run_storm, run_throughput

    return {
        jobs: {
            # queue bound above the storm, so a healthy server never sheds
            "storm": run_storm(jobs, max_batch=SERVING_MAX_BATCH, queue_limit=jobs + 8),
            "throughput": run_throughput(jobs),
        }
        for jobs in SERVING_JOBS
    }


def serving_storm_failures(storm: dict) -> list[str]:
    """One storm against the serial oracle.  An explicit SHED is allowed
    here; what is not is a shed the caller never saw."""
    jobs, metrics = storm["jobs"], storm["metrics"]
    out = []
    if storm["unanswered"]:
        out.append(f"{storm['unanswered']}/{jobs} requests got no answer")
    if storm["mismatches"]:
        out.append(f"{storm['mismatches']}/{jobs} answers differ from serial prediction")
    if storm["error_responses_seen"]:
        out.append(f"{storm['error_responses_seen']} non-SHED error answers in a healthy storm")
    if metrics.get("serve_handler_errors_total", 0):
        out.append("the batch handler raised during the storm")
    p95 = storm["latency_s"]["p95"]
    if p95 > PREDICT_P95_BUDGET_S:
        out.append(f"predict p95 {p95 * 1e3:.1f} ms is over the {PREDICT_P95_BUDGET_S * 1e3:.0f} ms plugin window")
    if storm["batches"].get("max", 0) <= 1:
        out.append("no batch held more than one request: the micro-batcher never coalesced")
    if metrics.get("serve_requests_total", 0) != jobs:
        out.append(f"serve_requests_total is {metrics.get('serve_requests_total', 0):g} for {jobs} requests")
    if metrics.get("serve_shed_total", 0) != storm["shed_responses_seen"]:
        out.append(f"{metrics.get('serve_shed_total', 0):g} sheds counted, {storm['shed_responses_seen']} seen by callers")
    return out


def serving_failures(record: dict) -> list[str]:
    out = []
    for jobs, run in record.items():
        storm, throughput = run["storm"], run["throughput"]
        found = serving_storm_failures(storm)
        if storm["shed_responses_seen"]:
            found.append(f"{storm['shed_responses_seen']} SHED answers: the batcher must absorb its own storm")
        if storm["metrics"].get("serve_shed_total", 0):
            found.append("admission control counted sheds of in-budget load")
        batched = throughput["batched"]
        if not batched:
            found.append("no batched throughput was measured")
        for row in batched:
            if row["mismatches"]:
                found.append(f"batch size {row['batch_size']}: {row['mismatches']} answers differ from scalar ones")
        best = max(batched, key=lambda row: row["rps"], default=None)
        scalar_rps = throughput["scalar"]["rps"]
        if best is not None and best["rps"] < scalar_rps * MIN_BATCH_SPEEDUP:
            found.append(f"best batched {best['rps']:.0f} rps is below {MIN_BATCH_SPEEDUP:g}x scalar {scalar_rps:.0f} rps")
        out += [f"{jobs} jobs: {failure}" for failure in found]
    return out


def serving_summary(record: dict) -> str:
    parts = []
    for jobs, run in record.items():
        storm, throughput = run["storm"], run["throughput"]
        best = max((row["rps"] for row in throughput["batched"]), default=0.0)
        parts.append(
            f"{jobs} jobs p95 {storm['latency_s']['p95'] * 1e3:.2f} ms, max batch {storm['batches'].get('max', 0):.0f}, "
            f"{storm['shed_responses_seen']} sheds, batched {best:.0f} vs scalar {throughput['scalar']['rps']:.0f} rps"
        )
    return "; ".join(parts)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
REGISTRY_WORKERS = 4
REGISTRY_REQUESTS = 30  # per worker
REGISTRY_SHADOW_AT = 5  # worker 0 shadows v2 before its Nth request...
REGISTRY_PROMOTE_AT = 20  # ...and promotes it here, while traffic keeps flowing
#: lifecycle counters the drill must move, with their minimum
REGISTRY_COUNTERS = (
    ("model_promotions_total", 2),
    ("model_rollbacks_total", 1),
    ("model_cache_stale_total", 1),
    ("model_shadow_checks_total", 1),
)


def registry_drill() -> dict:
    """Train two versions, serve v1 from the real Unix-socket daemon, then
    shadow and promote v2 during a submit storm and roll back.

    The daemon starts once.  Version changes come from a second
    application stack over the same workspace, so they reach the daemon
    through the settings it re-reads per request and nothing else.
    """
    from repro import telemetry
    from repro.core.domain.configuration import Configuration
    from repro.core.factory import ChronusApp
    from repro.serving.protocol import ErrorResponse, PredictRequest
    from repro.serving.transport import UnixSocketServer, UnixSocketTransport
    from repro.slurm.cluster import SimCluster

    def counter(name: str) -> float:
        entry = telemetry.find_metric(telemetry.snapshot(), "counters", name)
        return entry["value"] if entry else 0.0

    answers: dict[int, list] = {}
    promoted = threading.Event()
    with tempfile.TemporaryDirectory(prefix="gate-registry-") as workspace:
        app = ChronusApp(SimCluster(seed=0, hpcg_duration_s=60.0), workspace)
        configs = Configuration.sweep(core_counts=[4, 16, 32], frequencies=[1_500_000, 2_500_000])
        app.benchmark_service.run_benchmarks(configs, clock=app.clock)
        v1 = app.init_model_service.run("brute-force", 1, created_at=app.clock())
        v2 = app.init_model_service.run("linear-regression", 1, created_at=app.clock())
        app.model_registry_service.promote(v1.model_id)

        server = app.make_server(queue_limit=512, max_batch=16)
        socket_path = os.path.join(workspace, "chronus.sock")
        daemon = UnixSocketServer(server, socket_path)
        server.start()
        daemon.start()
        operator = ChronusApp(SimCluster(seed=1, hpcg_duration_s=60.0), workspace)

        def storm(worker: int) -> None:
            transport = UnixSocketTransport(socket_path, timeout_s=30.0)
            out = []
            for i in range(REGISTRY_REQUESTS):
                if worker == 0 and i == REGISTRY_SHADOW_AT:
                    operator.model_registry_service.shadow(v2.model_id)
                if worker == 0 and i == REGISTRY_PROMOTE_AT:
                    operator.model_registry_service.promote(v2.model_id)
                    promoted.set()
                out.append(transport.predict(PredictRequest(system_id=1)))
            answers[worker] = out

        threads = [threading.Thread(target=storm, args=(w,)) for w in range(REGISTRY_WORKERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        client = UnixSocketTransport(socket_path, timeout_s=30.0)
        after_promote = client.predict(PredictRequest(system_id=1))
        operator.model_registry_service.rollback(1, "hpcg")
        after_rollback = client.predict(PredictRequest(system_id=1))
        alive = bool(client.ping().get("ok"))
        client.shutdown()
        daemon.stop()
        server.stop()

    versions = [[a.model_version for a in out if not isinstance(a, ErrorResponse)] for out in answers.values()]
    return {
        "requests": sum(len(out) for out in answers.values()),
        "errors": [f"{a.code}: {a.message}" for out in answers.values() for a in out if isinstance(a, ErrorResponse)],
        "shed_total": counter("serve_shed_total"),
        "versions_seen": sorted({v for seen in versions for v in seen}),
        "per_worker_monotonic": all(seen == sorted(seen) for seen in versions),
        "promoted_mid_storm": promoted.is_set(),
        "after_promote": getattr(after_promote, "model_version", None),
        "after_rollback": getattr(after_rollback, "model_version", None),
        "alive_at_end": alive,
        "counters": {name: counter(name) for name, _ in REGISTRY_COUNTERS},
    }


def registry_failures(record: dict) -> list[str]:
    out = []
    expected = REGISTRY_WORKERS * REGISTRY_REQUESTS
    if record["errors"]:
        out.append(f"{len(record['errors'])} storm requests failed: {record['errors'][:3]}")
    if record["shed_total"]:
        out.append(f"admission control shed {record['shed_total']:g} storm requests")
    if record["requests"] != expected:
        out.append(f"only {record['requests']}/{expected} storm requests were answered")
    if not record["promoted_mid_storm"]:
        out.append("the promotion never happened during the storm")
    if not record["alive_at_end"]:
        out.append("the daemon was not alive at the end")
    versions = set(record["versions_seen"])
    if not versions <= {1, 2}:
        out.append(f"storm answers carried unexpected versions {sorted(versions)}")
    if 2 not in versions:
        out.append("no storm answer carried the promoted version")
    if not record["per_worker_monotonic"]:
        out.append("a worker saw the version flip backwards mid-storm")
    if record["after_promote"] != 2:
        out.append(f"the answer after the promotion came from version {record['after_promote']}, not 2")
    if record["after_rollback"] != 1:
        out.append(f"the answer after the rollback came from version {record['after_rollback']}, not 1")
    for name, minimum in REGISTRY_COUNTERS:
        if record["counters"].get(name, 0) < minimum:
            out.append(f"{name} is {record['counters'].get(name, 0):g}, expected at least {minimum}")
    return out


def registry_summary(record: dict) -> str:
    return (
        f"{record['requests']} answers, {len(record['errors'])} errors, versions {record['versions_seen']}, "
        f"promote -> v{record['after_promote']}, rollback -> v{record['after_rollback']}"
    )


# ----------------------------------------------------------------------
# storm
# ----------------------------------------------------------------------
STORM_NODES = 1000
#: jobs in the storm run twice, once per scheduler, and in the small storm
STORM_JOBS, STORM_SMALL_JOBS = 2000, 500
#: submits per simulated second, entered as one burst: one deferred pass each
STORM_RATE = 64
STORM_SEED = 1
#: perfbench's sched_backlog jobs: (nodes, tasks) shapes, time limits, the
#: share of jobs scancel'd and how many submits later; HPCG runs 600 s
STORM_SHAPES = ((2, 64),) * 3 + ((1, 32),) * 14 + ((1, 16), (1, 8), (1, 4))
STORM_LIMITS_S = (900, 1800, 3600, 7200, 14400)
STORM_CANCEL_SHARE, STORM_CANCEL_LAG = 0.03, 40
STORM_RUN_S = 600.0
#: mean reference pass over mean incremental pass, same storm
MIN_SCHED_SPEEDUP = 1.5
#: one incremental pass at 1,000 nodes
MAX_PASS_P95_MS = 200.0
#: jobs/s of the storm over jobs/s of the small storm on the same nodes
MIN_THROUGHPUT_RATIO = 0.6


def _dealt(rng, choices, n: int) -> list:
    """``n`` values cycling through ``choices`` in equal shares, shuffled."""
    values = [choices[i % len(choices)] for i in range(n)]
    rng.shuffle(values)
    return values


def controller_storm(jobs: int, *, reference: bool = False) -> dict:
    """Submit ``jobs`` jobs through ``Slurmctld`` on a 1,000-node
    ``SimCluster`` and run every one to its end.

    slurm.conf is ``SchedulerParameters=defer,default_queue_depth=256``,
    plus ``reference`` for the O(queue x nodes) schedulers; there is no
    plugin and no journal.  Pass times are the controller's own
    ``sched_cycle_seconds``; the digest is perfbench's, over (job id,
    node list, start time).
    """
    from repro import telemetry
    from repro.slurm.cluster import HPCG_BINARY, SimCluster
    from repro.slurm.config import SlurmConfig
    from repro.slurm.job import JobDescriptor

    rng = random.Random(STORM_SEED)
    shapes = _dealt(rng, STORM_SHAPES, jobs)
    limits = _dealt(rng, STORM_LIMITS_S, jobs)
    #: submit index -> index of the earlier job scancel'd right after it
    cancels = {i: i - STORM_CANCEL_LAG for i in rng.sample(range(STORM_CANCEL_LAG, jobs), round(STORM_CANCEL_SHARE * jobs))}
    params = "defer,default_queue_depth=256" + (",reference" if reference else "")
    cluster = SimCluster(
        seed=STORM_SEED,
        n_nodes=STORM_NODES,
        config=SlurmConfig.parse(f"SchedulerParameters={params}"),
        hpcg_duration_s=STORM_RUN_S,
    )
    ctld, sim = cluster.ctld, cluster.sim
    telemetry.reset()
    started = time.perf_counter()
    job_ids = []
    for i, ((nodes, tasks), limit) in enumerate(zip(shapes, limits)):
        if i % STORM_RATE == 0:
            sim.run(until=i // STORM_RATE)
        descriptor = JobDescriptor(
            name=f"storm-{i:05d}", num_tasks=tasks, nodes=nodes, binary=HPCG_BINARY, time_limit_s=limit
        )
        job_ids.append(ctld.submit(descriptor))
        if i in cancels:
            ctld.cancel(job_ids[cancels[i]])
    sim.run()
    wall_s = time.perf_counter() - started
    passes = telemetry.find_metric(telemetry.snapshot(), "histograms", "sched_cycle_seconds")
    rows = [[jid, list(job.node_list), job.start_time] for jid, job in sorted(ctld.jobs.items())]
    return {
        "jobs": jobs,
        "terminal": sum(1 for job in ctld.jobs.values() if job.state.is_terminal),
        "passes": passes["count"],
        "pass_mean_ms": passes["mean"] * 1e3,
        "pass_p95_ms": passes["p95"] * 1e3,
        "jobs_per_s": jobs / wall_s,
        "digest": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
    }


def storm_drill() -> dict:
    return {
        "nodes": STORM_NODES,
        "incremental": controller_storm(STORM_JOBS),
        "reference": controller_storm(STORM_JOBS, reference=True),
        "small": controller_storm(STORM_SMALL_JOBS),
    }


def _storm_ratios(record: dict) -> "tuple[float, float]":
    """(reference over incremental mean pass, storm over small-storm jobs/s)"""
    inc, ref, small = record["incremental"], record["reference"], record["small"]
    speedup = ref["pass_mean_ms"] / inc["pass_mean_ms"] if inc["pass_mean_ms"] else 0.0
    return speedup, inc["jobs_per_s"] / small["jobs_per_s"] if small["jobs_per_s"] else 0.0


def storm_failures(record: dict) -> list[str]:
    out = []
    inc, ref = record["incremental"], record["reference"]
    if record["nodes"] < 1000:
        out.append(f"the storm ran at {record['nodes']} nodes (< 1000)")
    if inc["digest"] != ref["digest"]:
        out.append("the incremental scheduler placed jobs unlike the reference one")
    speedup, ratio = _storm_ratios(record)
    if speedup < MIN_SCHED_SPEEDUP:
        out.append(f"incremental scheduler speedup {speedup:.2f}x is below {MIN_SCHED_SPEEDUP:g}x")
    if inc["pass_p95_ms"] > MAX_PASS_P95_MS:
        out.append(f"incremental pass p95 {inc['pass_p95_ms']:.1f} ms is over {MAX_PASS_P95_MS:g} ms")
    for name in ("incremental", "reference", "small"):
        run = record[name]
        if run["terminal"] != run["jobs"]:
            out.append(f"the {name} storm stranded {run['jobs'] - run['terminal']} of {run['jobs']} jobs")
    if ratio < MIN_THROUGHPUT_RATIO:
        out.append(f"jobs/s ratio {ratio:.2f} at 4x the jobs is below {MIN_THROUGHPUT_RATIO:g}")
    return out


def storm_summary(record: dict) -> str:
    inc, small = record["incremental"], record["small"]
    speedup, ratio = _storm_ratios(record)
    return (
        f"{inc['jobs']} jobs through Slurmctld at {record['nodes']} nodes in {inc['passes']} passes, "
        f"incremental p95 {inc['pass_p95_ms']:.1f} ms and {speedup:.1f}x the reference; "
        f"{inc['jobs_per_s']:.0f} jobs/s, {ratio:.2f}x the {small['jobs']}-job storm's"
    )


# ----------------------------------------------------------------------
# ha
# ----------------------------------------------------------------------
#: wall-clock ceiling for one takeover's restore and replay
RTO_BUDGET_MS = 2000.0


def ha_drill() -> dict:
    """SIGKILL the leader mid-storm three ways: alone, under the
    ``ctld-failover`` chaos profile, and with snapshots and compaction."""
    from repro.faults.profiles import PROFILES
    from repro.slurm.ha import run_failover_drill

    variants = {
        "kill": {"jobs": 1000},
        "kill+faults": {"jobs": 100, "fault_profile": PROFILES["ctld-failover"], "snapshot_interval": 100},
        "snapshots": {"jobs": 200, "snapshot_interval": 50},
    }
    return _per_variant(run_failover_drill, "gate-ha-", variants)


def ha_failures(record: dict) -> list[str]:
    out = []
    for variant, report in record.items():
        # the drill itself checks submissions, lost and duplicated jobs,
        # takeovers, and slurmdbd rows and joules against the controller
        found = list(report.failures)
        if report.replayed_records <= 0:
            found.append("the takeover replayed no journal record: the drill is vacuous")
        if report.accounting_rows != report.jobs_total:
            found.append(f"{report.accounting_rows} accounting rows for {report.jobs_total} jobs")
        if report.recovery_wall_s * 1e3 > RTO_BUDGET_MS:
            found.append(f"recovery took {report.recovery_wall_s * 1e3:.1f} ms (budget {RTO_BUDGET_MS:g} ms)")
        out += [f"{variant}: {failure}" for failure in found]
    return out


def ha_summary(record: dict) -> str:
    kill = record["kill"]
    dropped = sum(report.dbd_duplicates_dropped for report in record.values())
    return (
        f"{kill.completed}/{kill.jobs_total} jobs through a leader kill ({kill.takeovers} takeover, "
        f"{kill.replayed_records} records replayed, {kill.recovery_wall_s * 1e3:.1f} ms recovery); "
        f"{dropped} duplicate dbd deliveries dropped over {len(record)} variants"
    )


# ----------------------------------------------------------------------
# workflow
# ----------------------------------------------------------------------
#: job wall limit; drill runtimes are 5-35 s, so about 1 job in 6 times out
WORKFLOW_TIME_LIMIT_S = 30
#: the diamond: role -> afterok predecessors
DIAMOND = (("a", ()), ("b", ("a",)), ("c", ("a",)), ("d", ("b", "c")))


class LiveProvider:
    """A stub Chronus whose model version is promoted mid-storm."""

    def __init__(self) -> None:
        self.version = 1

    def predict(self, request):
        from repro.serving.protocol import PredictResponse

        return PredictResponse(cores=2, threads_per_core=1, frequency=2_200_000, model_id=7, model_version=self.version)


def workflow_storm(
    *,
    diamonds: int,
    statesave_path: str,
    fault_profile: Optional[str] = None,
    snapshot_interval: int = 0,
) -> dict:
    """Submit ``diamonds`` diamond DAGs (A -> B,C -> D, one workflow each)
    to an HA pair running the eco plugin over a live provider.

    The 30 s limit makes jobs time out mid-DAG: the retry policy requeues
    each once, re-predicting through the provider, which is promoted to a
    new model version mid-storm; ``afterok`` dependents of a final timeout
    drain through ``DependencyNeverSatisfied``.  At half the storm the
    leader is SIGKILL'd and the backup's takeover re-arms held
    dependencies and pending requeues off the journal.
    """
    from repro import faults
    from repro.core.domain.errors import ControllerCrashError, NoLeaderError, StaleEpochError
    from repro.slurm.config import SlurmConfig
    from repro.slurm.ha import DRILL_BINARY, build_drill_plane
    from repro.slurm.job import JobDescriptor
    from repro.slurm.plugins.eco import JobSubmitEco, PluginState
    from repro.slurm.workflow import workflow_rollup

    heartbeat_s, lease_s, submit_interval_s = 1.0, 3.0, 0.5
    if fault_profile:
        faults.configure(fault_profile, seed=0)
    provider = LiveProvider()

    def setup(ctld) -> None:
        # runs on every (re)start including takeover, like slurm.conf
        ctld.register_plugin(JobSubmitEco(ctld.nodes[0].node, provider=provider, state=PluginState("activated")))

    drill = build_drill_plane(
        statesave_path,
        heartbeat_s=heartbeat_s,
        lease_s=lease_s,
        snapshot_interval=snapshot_interval,
        config=SlurmConfig(sched_defer=True, job_submit_plugins=("eco",), reschedule_retries=1),
        setup=setup,
    )
    try:
        sim, plane = drill.sim, drill.plane
        submitted: dict[str, int] = {}  # job name -> id on the final leader

        def submit_diamond(i: int, retry: bool) -> None:
            try:
                ctld = plane.leader()
            except NoLeaderError:
                sim.call_in(heartbeat_s, lambda: submit_diamond(i, retry=True))
                return
            try:
                ids: dict[str, int] = {}
                for role, preds in DIAMOND:
                    name = f"wf-{i:04d}-{role}"
                    # a retried submission's first record may be durable (ack lost)
                    job_id = ctld.job_by_name(name) if retry else None
                    if job_id is None:
                        job_id = ctld.submit(
                            JobDescriptor(
                                name=name,
                                num_tasks=1,
                                binary=DRILL_BINARY,
                                time_limit_s=WORKFLOW_TIME_LIMIT_S,
                                workflow=f"wf-{i:04d}",
                                dependency=tuple(("afterok", ids[p]) for p in preds),
                            )
                        )
                    ids[role] = submitted[name] = job_id
            except (ControllerCrashError, StaleEpochError):
                sim.call_in(heartbeat_s, lambda: submit_diamond(i, retry=True))

        for i in range(diamonds):
            sim.call_at(i * submit_interval_s, lambda i=i: submit_diamond(i, retry=False), name=f"diamond-{i}")
        kill_t = diamonds * submit_interval_s * 0.5
        sim.call_at(kill_t, lambda: drill.leader_peer().kill(), name="sigkill-leader")
        # promote the model mid-storm so reschedules pick up the new version
        sim.call_at(kill_t + 1.0, lambda: setattr(provider, "version", 2))

        jobs_total = diamonds * len(DIAMOND)

        def all_done() -> bool:
            if len(submitted) < jobs_total:
                return False
            try:
                ctld = plane.leader()
            except NoLeaderError:
                return False
            return all(ctld.jobs[jid].state.is_terminal for jid in submitted.values() if jid in ctld.jobs)

        horizon = max(lease_s, heartbeat_s * 2)
        for _ in range(int(diamonds * submit_interval_s / horizon) + 10_000):
            try:
                sim.run(until=sim.now + horizon)
            except (ControllerCrashError, StaleEpochError):
                pass  # the leader died mid-event; supervision restarts it below
            drill.restart_dead_peers()
            if all_done():
                break

        try:
            final = plane.leader()
        finally:
            if fault_profile:
                faults.reset()
        drill.dbd.pump()

        jobs = list(final.jobs.values())
        names = [j.descriptor.name for j in jobs]
        reschedules = [a for j in jobs for a in j.attempts if a["reason"] == "reschedule"]
        mine = workflow_rollup(jobs)
        theirs = drill.dbd.workflows()
        energy_ctld = sum(r["total_energy_j"] for r in mine.values())
        energy_dbd = sum(r["total_energy_j"] for r in theirs.values())
        terminal = sum(1 for j in jobs if j.state.is_terminal)
        return {
            "diamonds": diamonds,
            "jobs_total": jobs_total,
            "submitted": len(submitted),
            "terminal": terminal,
            "stuck": len(submitted) - terminal,
            "duplicated": len(names) - len(set(names)),
            "timeouts": sum(1 for j in jobs if j.state.value == "TIMEOUT"),
            "cancelled_never": sum(1 for j in jobs if j.pending_reason == "DependencyNeverSatisfied"),
            "dep_releases": sum(1 for j in jobs for a in j.attempts if a["reason"] == "dep_release"),
            "reschedule_attempts": len(reschedules),
            "reschedules_with_model": sum(1 for a in reschedules if a["model_id"]),
            "model_versions_served": sorted({a["model_version"] for j in jobs for a in j.attempts if a["model_id"]}),
            "workflows": len(mine),
            "dbd_workflows": len(theirs),
            "workflow_mismatches": sum(
                1
                for wid, roll in mine.items()
                if wid not in theirs
                or abs(theirs[wid]["total_energy_j"] - roll["total_energy_j"]) > 1e-6
                or theirs[wid]["attempts"] != roll["attempts"]
                or theirs[wid]["models"] != roll["models"]
            ),
            "energy_ctld_j": energy_ctld,
            "energy_dbd_j": energy_dbd,
            "energy_diff_j": abs(energy_ctld - energy_dbd),
            "takeovers": sum(p.takeovers for p in drill.peers),
            "replayed_records": final.last_restore_replayed,
        }
    finally:
        drill.close()


def workflow_drill() -> dict:
    """A 250-diamond storm with the leader kill; a smaller one under the
    ``workflow-chaos`` profile, which crashes the controller right after
    dependency-release and reschedule records; and one with snapshot
    compaction, which must not double-count a workflow's joules."""
    from repro.faults.profiles import PROFILES

    variants = {
        "kill": {"diamonds": 250},
        "kill+chaos": {"diamonds": 50, "fault_profile": PROFILES["workflow-chaos"], "snapshot_interval": 100},
        "compaction": {"diamonds": 50, "snapshot_interval": 50},
    }
    return _per_variant(workflow_storm, "gate-workflow-", variants)


def workflow_failures(record: dict) -> list[str]:
    out = []
    for variant, r in record.items():
        found = []
        if r["submitted"] != r["jobs_total"]:
            found.append(f"only {r['submitted']}/{r['jobs_total']} submissions landed")
        if r["stuck"]:
            found.append(f"{r['stuck']} jobs stuck in a non-terminal state")
        if r["duplicated"]:
            found.append(f"{r['duplicated']} duplicated jobs")
        if r["takeovers"] < 1:
            found.append("the leader was killed but no takeover happened")
        # a snapshot variant may replay an empty suffix; only the
        # snapshot-free storm must prove a real journal replay
        if variant == "kill" and r["replayed_records"] <= 0:
            found.append("the takeover replayed no journal record: the drill is vacuous")
        if r["timeouts"] == 0:
            found.append("no job timed out mid-DAG: the storm is vacuous")
        if r["reschedule_attempts"] == 0:
            found.append("the retry policy never fired")
        if r["reschedules_with_model"] != r["reschedule_attempts"]:
            missing = r["reschedule_attempts"] - r["reschedules_with_model"]
            found.append(f"{missing} reschedules did not re-predict through the live provider")
        if len(r["model_versions_served"]) < 2:
            found.append(f"only model versions {r['model_versions_served']} served: the promotion was not picked up")
        if r["cancelled_never"] == 0:
            found.append("no DependencyNeverSatisfied propagation")
        if r["dep_releases"] == 0:
            found.append("no dependency release")
        if r["workflows"] != r["diamonds"]:
            found.append(f"the controller sees {r['workflows']} workflows, expected {r['diamonds']}")
        if r["dbd_workflows"] != r["workflows"]:
            found.append(f"slurmdbd sees {r['dbd_workflows']} workflows, the controller {r['workflows']}")
        if r["workflow_mismatches"]:
            found.append(f"{r['workflow_mismatches']} workflows differ between slurmdbd and the controller")
        if r["energy_diff_j"] > 1e-6:
            found.append(f"slurmdbd bills {r['energy_dbd_j']:.3f} J, the controller {r['energy_ctld_j']:.3f} J")
        out += [f"{variant}: {failure}" for failure in found]
    return out


def workflow_summary(record: dict) -> str:
    kill = record["kill"]
    return (
        f"{kill['terminal']}/{kill['jobs_total']} DAG jobs drained through a leader kill, "
        f"{kill['reschedule_attempts']} reschedules re-predicted (versions {kill['model_versions_served']}); "
        f"largest dbd energy difference {max(r['energy_diff_j'] for r in record.values()):.1e} J"
    )


# ----------------------------------------------------------------------
# restd
# ----------------------------------------------------------------------
RESTD_JOBS = 40
#: one HTTP round trip
RESTD_P95_BUDGET_MS = 250.0
RESTD_POLL_BUDGET_S = 120.0
TERMINAL_STATES = frozenset({"COMPLETED", "FAILED", "CANCELLED", "TIMEOUT"})


class HttpClient:
    """A stdlib HTTP client that records every call's latency."""

    def __init__(self, address: "tuple[str, int]", token: str) -> None:
        self.address = address
        self.token = token
        self.latencies_ms: list[float] = []

    def call(self, method: str, target: str, body: "dict | None" = None):
        """One request on a new connection; returns (status, headers, payload)."""
        conn = http.client.HTTPConnection(*self.address, timeout=15.0)
        started = time.perf_counter()
        try:
            payload = json.dumps(body) if body is not None else None
            conn.request(method, target, body=payload, headers={"Authorization": f"Bearer {self.token}"})
            answer = conn.getresponse()
            raw = answer.read()
        finally:
            conn.close()
        self.latencies_ms.append((time.perf_counter() - started) * 1e3)
        return answer.status, dict(answer.getheaders()), json.loads(raw) if raw else {}

    def walk_pages(self, limit: int) -> "list[dict]":
        """Every job row, fetched by a cursor-chained walk of ``limit``-row pages."""
        rows: list[dict] = []
        cursor = None
        while True:
            target = f"/slurm/v1/jobs?limit={limit}" + (f"&cursor={cursor}" if cursor else "")
            status, _, payload = self.call("GET", target)
            if status != 200:
                raise RuntimeError(f"pagination walk answered {status}: {payload}")
            rows.extend(payload["jobs"])
            cursor = payload.get("next_cursor")
            if not cursor:
                return rows


def _percentile(values: "list[float]", q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))] if ordered else 0.0


def restd_drill() -> dict:
    """A client session against the REST gateway over real HTTP, backed by
    the HA drill plane.

    It submits a storm of jobs; halfway through it freezes the sim pump (so
    no lease can expire), kills the leader and checks that the client sees
    503 with Retry-After; then it resumes the pump, lets the backup take
    over and retries with dedup.  Finally it submits and cancels one more
    job, polls paginated listings until every job is terminal, and checks
    the paginated walk against the full table.
    """
    from repro.api.auth import TokenAuthority
    from repro.restd.gateway import RestGateway
    from repro.restd.server import RestdServer, SimPump
    from repro.slurm.ha import DRILL_BINARY, build_drill_plane

    with tempfile.TemporaryDirectory(prefix="gate-restd-") as path:
        drill = build_drill_plane(path, snapshot_interval=40)
        authority = TokenAuthority("gate-restd-secret")
        gateway = RestGateway(authority=authority, leader=drill.plane.leader, dbd=drill.dbd, retry_after_s=0.05)
        server = RestdServer(gateway).start()
        pump = SimPump(drill.sim, gateway.lock, step_s=0.5, interval_s=0.002)
        client = HttpClient(server.address, authority.issue("gate", "admin"))
        stats = {
            "jobs_total": RESTD_JOBS,
            "retries_503": 0,
            "outage_503_observed": 0,
            "retry_after_missing": 0,
            "leader_killed": False,
            "cancel_ok": False,
            "failures": [],
        }
        job_ids: dict[str, int] = {}

        def submit(i: int) -> None:
            name = f"gate-{i:05d}"
            body = {"name": name, "binary": DRILL_BINARY, "num_tasks": 1 + i % 4, "time_limit_s": 300}
            for _attempt in range(200):
                status, headers, payload = client.call("POST", "/slurm/v1/jobs", body)
                if status in (200, 201):
                    job_ids[name] = payload["job_id"]
                    return
                if status != 503:
                    stats["failures"].append(f"submit {name} answered {status}: {payload}")
                    return
                stats["retries_503"] += 1
                if "Retry-After" not in headers:
                    stats["retry_after_missing"] += 1
                time.sleep(float(headers.get("Retry-After", 0.05)))
            stats["failures"].append(f"submit {name} never landed (200 retries)")

        try:
            pump.start()
            for i in range(RESTD_JOBS):
                if i == RESTD_JOBS // 2:
                    pump.pause()
                    with gateway.lock:
                        drill.leader_peer().kill()
                    stats["leader_killed"] = True
                    for _ in range(3):
                        status, headers, payload = client.call("GET", "/slurm/v1/diag")
                        if status != 503:
                            stats["failures"].append(f"diag during the outage answered {status}, expected 503")
                            continue
                        stats["outage_503_observed"] += 1
                        if "Retry-After" not in headers:
                            stats["retry_after_missing"] += 1
                        if payload.get("error") not in ("NO_LEADER", "CTLD_DOWN"):
                            stats["failures"].append(f"the outage answered code {payload.get('error')!r}")
                    # the backup's lease watch expires and it takes over
                    pump.resume()
                submit(i)
            stats["submitted"] = len(job_ids)

            body = {"name": "gate-cancel-me", "binary": DRILL_BINARY, "num_tasks": 1, "time_limit_s": 300}
            status, _, payload = client.call("POST", "/slurm/v1/jobs", body)
            if status == 201:
                status, _, payload = client.call("DELETE", f"/slurm/v1/jobs/{payload['job_id']}")
                stats["cancel_ok"] = status == 200 and payload.get("state") == "CANCELLED"
                if not stats["cancel_ok"]:
                    stats["failures"].append(f"cancel answered {status}: {payload}")
            else:
                stats["failures"].append(f"the submit to cancel answered {status}")

            deadline = time.monotonic() + RESTD_POLL_BUDGET_S
            while True:
                rows = client.walk_pages(limit=7)
                states = {row["job_id"]: row["state"] for row in rows}
                done = sum(1 for jid in job_ids.values() if states.get(jid) in TERMINAL_STATES)
                if done == len(job_ids):
                    break
                if time.monotonic() > deadline:
                    stats["failures"].append(f"poll budget exhausted: {done}/{len(job_ids)} terminal")
                    break
                time.sleep(0.05)

            status, _, full = client.call("GET", "/slurm/v1/jobs?limit=1000")
            if status != 200:
                stats["failures"].append(f"the full listing answered {status}")
                full = {"jobs": []}
            if sorted(row["job_id"] for row in full["jobs"]) != sorted(row["job_id"] for row in rows):
                stats["failures"].append(f"the paginated walk saw {len(rows)} rows, the full listing {len(full['jobs'])}")
            names = [row["name"] for row in full["jobs"]]
            stats["duplicated"] = len(names) - len(set(names))
            states = {row["job_id"]: row["state"] for row in full["jobs"]}
            stats["lost"] = sum(1 for jid in job_ids.values() if states.get(jid) not in TERMINAL_STATES)
        finally:
            pump.stop()
            server.stop()
            drill.close()
        stats["takeovers"] = sum(p.takeovers for p in drill.peers)
        stats["dbd_rows"] = len(drill.dbd.jobs())
    stats["requests_total"] = len(client.latencies_ms)
    stats["p95_ms"] = _percentile(client.latencies_ms, 0.95)
    return stats


def restd_failures(r: dict) -> list[str]:
    out = list(r["failures"])
    if r["submitted"] != r["jobs_total"]:
        out.append(f"only {r['submitted']}/{r['jobs_total']} submissions landed")
    if r["lost"]:
        out.append(f"{r['lost']} jobs lost")
    if r["duplicated"]:
        out.append(f"{r['duplicated']} jobs duplicated")
    if not r["leader_killed"]:
        out.append("the leader was never killed: the drill is vacuous")
    if r["takeovers"] < 1:
        out.append("the leader was killed but no takeover happened")
    if r["outage_503_observed"] < 1:
        out.append("the client never saw a 503 during the outage: the drill is vacuous")
    if r["retry_after_missing"]:
        out.append(f"{r['retry_after_missing']} 503 answers lacked Retry-After")
    if not r["cancel_ok"]:
        out.append("the cancel round trip did not land")
    # the submitted jobs and the cancelled one
    if r["dbd_rows"] != r["jobs_total"] + 1:
        out.append(f"the slurmdbd table has {r['dbd_rows']} rows, expected {r['jobs_total'] + 1}")
    if r["p95_ms"] > RESTD_P95_BUDGET_MS:
        out.append(f"p95 {r['p95_ms']:.1f} ms over {r['requests_total']} requests is over {RESTD_P95_BUDGET_MS:g} ms")
    return out


def restd_summary(r: dict) -> str:
    return (
        f"{r['submitted']}/{r['jobs_total']} jobs over HTTP through a leader kill ({r['takeovers']} takeover, "
        f"{r['outage_503_observed']} 503s seen, {r['retries_503']} submit retries), "
        f"p95 {r['p95_ms']:.1f} ms over {r['requests_total']} requests"
    )


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
#: a kernel's speedup over its loop baseline may fall this far below BENCH_PR2.json's
SPEEDUP_TOLERANCE = 0.20
#: speedups are compared after clamping here: a cache-hit path runs in
#: near-constant time while its loop baseline grows with the problem, so
#: the raw ratio swings by orders of magnitude across hosts; above the
#: cap, all that matters is that the fast path stays far faster
SPEEDUP_CAP = 50.0
#: Spearman rho of the 138-point ranking against the paper's Tables 4-6
SPEARMAN_FLOOR = 0.93


def _best_of(fn, *, repeats: int = 5, min_time_s: float = 0.05) -> float:
    """Best-of-``repeats`` seconds per call, each measurement batched to
    last at least ``min_time_s`` (the timeit method)."""
    number = 1
    while True:
        started = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - started
        if elapsed >= min_time_s or number >= 1_000_000:
            break
        number *= 4
    best = elapsed / number
    for _ in range(repeats - 1):
        started = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - started) / number)
    return best


def _kernel_speedups() -> dict:
    """Each vectorized CSR kernel against its row-loop baseline, on the
    same host in the same process, after checking they agree."""
    import numpy as np

    from benchmarks.kernel_oracles import diagonal_loop, multicolor_gather_loop, subset_matvec_loop, todense_loop
    from repro.hpcg.problem import generate_problem
    from repro.hpcg.symgs import MulticolorSymgs

    problem = generate_problem(24)
    m, dm = problem.matrix, generate_problem(12).matrix
    x = np.random.default_rng(7).normal(size=m.ncols)
    rows = problem.color_rows(0)

    def cold(matrix):
        # drop the memoised results, so the computation is timed and not
        # a cache hit (the loop baselines have no such caches)
        matrix._diag = None
        matrix._row_index_cache = None
        return matrix

    np.testing.assert_array_equal(m.diagonal(), diagonal_loop(m))
    np.testing.assert_allclose(m.subset_matvec(rows, x), subset_matvec_loop(m, rows, x), rtol=1e-13, atol=1e-13)
    np.testing.assert_array_equal(dm.todense(), todense_loop(dm))
    MulticolorSymgs(problem)  # warm the per-problem partition cache
    pairs = {
        "diagonal": (lambda: cold(m).diagonal(), lambda: diagonal_loop(m)),
        "subset_matvec": (lambda: m.subset_matvec(rows, x), lambda: subset_matvec_loop(m, rows, x)),
        "todense": (lambda: cold(dm).todense(), lambda: todense_loop(dm)),
        "multicolor_setup": (lambda: MulticolorSymgs(problem), lambda: multicolor_gather_loop(problem)),
    }
    speedups = {}
    for name, (fast, loop) in pairs.items():
        fast_s = _best_of(fast)
        speedups[name] = {"speedup": _best_of(loop) / fast_s}
    return speedups


def _mini_hpcg() -> dict:
    from repro.hpcg.benchmark import HpcgBenchmark

    rating = HpcgBenchmark(24, levels=3).run()
    return {"nx": 24, "total_flops": rating.total_flops, "converged": bool(rating.converged)}


def _pool_sweep() -> dict:
    """The paper's 138-point sweep, serial and on a process pool, plus the
    per-process kernel cache the pool workers rely on."""
    from benchmarks.bench_tables456_full_sweep import build_full_ranking
    from benchmarks.conftest import paper_configurations
    from repro.core.application.sweep_executor import SweepExecutor
    from repro.core.repositories.memory_repository import MemoryRepository
    from repro.core.runners.sweep_worker import build_sweep_points, run_sweep_point
    from repro.core.services.lscpu_info import LscpuSystemInfo
    from repro.hpcg.benchmark import HpcgBenchmark
    from repro.slurm.cluster import SimCluster

    points = build_sweep_points(paper_configurations(), base_seed=33, duration_s=1200.0)
    # at least two workers even on one core: the caches are per process
    workers = max(2, min(4, os.cpu_count() or 1))

    def run_with(n: int):
        executor = SweepExecutor(MemoryRepository(), LscpuSystemInfo(SimCluster(seed=33).node), run_sweep_point, workers=n)
        started = time.perf_counter()
        return executor.run_sweep(points), time.perf_counter() - started

    serial_rows, serial_s = run_with(1)
    pool_rows, pool_s = run_with(workers)
    # a second build at one problem size must reuse the first one's
    # problem object, with its multicolor memos already warm
    first, second = HpcgBenchmark(20, reuse_problem=True), HpcgBenchmark(20, reuse_problem=True)
    return {
        "points": len(points),
        "workers": workers,
        "serial_s": serial_s,
        "pool_s": pool_s,
        "identical_results": serial_rows == pool_rows,
        "spearman_rho": build_full_ranking(serial_rows)[2],
        "problem_shared": first.problem is second.problem,
    }


def kernels_drill() -> dict:
    baseline = json.loads((REPO_ROOT / "BENCH_PR2.json").read_text())
    return {
        "kernels": _kernel_speedups(),
        "hpcg": _mini_hpcg(),
        "sweep": _pool_sweep(),
        "baseline": {"kernels": baseline["kernels"], "hpcg": baseline["hpcg"]},
    }


def kernels_failures(record: dict) -> list[str]:
    out = []
    baseline = record["baseline"]
    for name, base in baseline["kernels"].items():
        if "speedup" not in base:
            continue  # the problem-size entry
        got = record["kernels"].get(name)
        if got is None:
            out.append(f"kernel {name!r} was not measured")
            continue
        floor = min(base["speedup"], SPEEDUP_CAP) * (1.0 - SPEEDUP_TOLERANCE)
        if min(got["speedup"], SPEEDUP_CAP) < floor:
            out.append(f"kernel {name!r}: speedup {got['speedup']:.1f}x fell below {floor:.1f}x")
    hpcg, base_hpcg = record["hpcg"], baseline["hpcg"]
    if hpcg["nx"] == base_hpcg["nx"] and hpcg["total_flops"] != base_hpcg["total_flops"]:
        out.append(f"the mini-HPCG flop total moved: {hpcg['total_flops']}, baseline {base_hpcg['total_flops']}")
    if not hpcg["converged"]:
        out.append("the mini-HPCG solve did not converge")
    sweep = record["sweep"]
    if sweep["workers"] < 2:
        out.append(f"the pool sweep ran with {sweep['workers']} workers (< 2)")
    if not sweep["identical_results"]:
        out.append("the pool sweep's rows differ from the serial sweep's")
    if sweep["spearman_rho"] <= SPEARMAN_FLOOR:
        out.append(f"Spearman rho {sweep['spearman_rho']:.4f} against the paper is not above {SPEARMAN_FLOOR}")
    if not sweep["problem_shared"]:
        out.append("two reuse_problem builds returned distinct problems: the kernel cache is not shared")
    return out


def kernels_summary(record: dict) -> str:
    speedups = ", ".join(f"{name} {k['speedup']:.1f}x" for name, k in record["kernels"].items())
    sweep = record["sweep"]
    return (
        f"{speedups}; sweep of {sweep['points']} points {sweep['serial_s']:.1f} s serial, "
        f"{sweep['pool_s']:.1f} s on {sweep['workers']} workers, rho {sweep['spearman_rho']:.4f}"
    )


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
class Gate(NamedTuple):
    drill: Callable[[], object]
    failures: Callable[[object], "list[str]"]
    summary: Callable[[object], str]


GATES = {
    "telemetry": Gate(telemetry_drill, telemetry_failures, telemetry_summary),
    "chaos": Gate(chaos_drill, chaos_failures, chaos_summary),
    "serving": Gate(serving_drill, serving_failures, serving_summary),
    "registry": Gate(registry_drill, registry_failures, registry_summary),
    "storm": Gate(storm_drill, storm_failures, storm_summary),
    "ha": Gate(ha_drill, ha_failures, ha_summary),
    "workflow": Gate(workflow_drill, workflow_failures, workflow_summary),
    "restd": Gate(restd_drill, restd_failures, restd_summary),
    "kernels": Gate(kernels_drill, kernels_failures, kernels_summary),
}


def run(name: str) -> int:
    """Run one gate in this interpreter; 0 when every condition holds."""
    for entry in (str(REPO_ROOT), str(REPO_ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    gate = GATES[name]
    started = time.perf_counter()
    record = gate.drill()
    failures = gate.failures(record)
    verdict = "FAILED" if failures else "OK"
    print(f"{name}: {verdict} in {time.perf_counter() - started:.1f} s: {gate.summary(record)}")
    for failure in failures:
        print(f"  - {failure}")
    return 1 if failures else 0


def main(argv: "list[str] | None" = None) -> int:
    names = sys.argv[1:] if argv is None else list(argv)
    unknown = [name for name in names if name not in GATES]
    if unknown:
        print(f"gate.py: unknown gate {unknown[0]!r}; usage: gate.py [{' | '.join(GATES)}]...", file=sys.stderr)
        return 2
    if len(names) == 1:
        return run(names[0])
    names = names or list(GATES)
    failed = [name for name in names if subprocess.run([sys.executable, str(Path(__file__).resolve()), name]).returncode]
    if failed:
        print(f"gate.py: {len(failed)} of {len(names)} gates failed: {', '.join(failed)}")
        return 1
    print(f"gate.py: all {len(names)} gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
