#!/usr/bin/env python
"""Fleet-scale storm benchmarks: scheduler, DES engine, sharded serving.

Three coupled measurements, recorded as one JSON report (``BENCH_PR7.json``
at full size, ``--smoke`` at the size ``python scripts/gate.py storm`` runs):

* **scheduler** — one backfill pass over a fleet-sized cluster (1,000
  nodes at full size) with a deep pending queue, timed for the reference
  ``O(queue × nodes)`` implementation vs. the incremental
  ``ClusterState`` index.  Placements must be identical (``mismatches``
  is part of the report) — the speedup is only admissible because the
  answers are.
* **des_storm** — a submit storm (100k jobs at full size) driven through
  the simulator with batched ``call_at_many`` submission, ``defer``-style
  pass coalescing, a bounded queue depth per pass, and mid-storm
  cancellations exercising the tombstone compactor.  Event throughput is
  measured at two storm sizes; near-linear scaling means the events/sec
  ratio stays close to 1 as the storm quadruples.
* **serving_storm** — ≥10k client requests fanned through a
  :class:`~repro.serving.router.ShardRouter` over N in-process
  ``ChronusServer`` workers, answers checked against a serial oracle.
  Zero SHED, zero unanswered and bounded p95 are the gate.

``python scripts/gate.py storm`` asserts the invariants; this script only
runs and records.

Usage::

    PYTHONPATH=src python benchmarks/bench_storm.py --smoke --output storm-smoke.json
    PYTHONPATH=src python benchmarks/bench_storm.py --output BENCH_PR7.json
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import sys
import threading
import time

import os

from repro import telemetry
from repro.slurm.job import Job, JobDescriptor
from repro.slurm.sched_index import ClusterState
from repro.slurm.scheduler import backfill_schedule
from repro.simkernel.engine import Simulator


# ---------------------------------------------------------------------------
# scheduler pass: reference vs incremental on identical fleet state
# ---------------------------------------------------------------------------
def _fleet_state(n_nodes: int, cores: int, rng: random.Random):
    """One warm fleet: every node partially occupied by running steps."""
    state = ClusterState(
        (f"node{i + 1:04d}", cores, cores) for i in range(n_nodes)
    )
    for i in range(n_nodes):
        name = f"node{i + 1:04d}"
        free = cores
        for _ in range(rng.randint(0, 3)):
            step = rng.randint(1, cores // 2)
            if step > free:
                break
            state.on_job_start([name], step, float(rng.randint(100, 5000)))
            free -= step
    return state


def _queue(n_jobs: int, cores: int, rng: random.Random) -> list[Job]:
    jobs = []
    for i in range(n_jobs):
        tasks = rng.choice([1, 2, 4, 8, 16, cores, 2 * cores])
        nodes = max(1, tasks // cores)
        jobs.append(
            Job(
                job_id=i + 1,
                descriptor=JobDescriptor(
                    name=f"q{i}", num_tasks=tasks, nodes=nodes,
                    time_limit_s=rng.randint(60, 7200),
                ),
                submit_time=0.0,
            )
        )
    return jobs


def run_scheduler_bench(n_nodes: int, queue_depth: int, passes: int) -> dict:
    rng = random.Random(42)
    cores = 32
    state = _fleet_state(n_nodes, cores, rng)

    ref_times, inc_times = [], []
    mismatches = 0
    for p in range(passes):
        jobs_ref = _queue(queue_depth, cores, random.Random(1000 + p))
        jobs_inc = _queue(queue_depth, cores, random.Random(1000 + p))

        views = state.node_views()  # fresh copies; the reference mutates them
        t0 = time.perf_counter()
        ref = backfill_schedule(jobs_ref, views, 0.0, default_limit_s=600)
        ref_times.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        inc = state.backfill_pass(jobs_inc, 0.0, default_limit_s=600)
        inc_times.append(time.perf_counter() - t0)

        if [(x.job.job_id, x.node_names) for x in ref] != [
            (x.job.job_id, x.node_names) for x in inc
        ]:
            mismatches += 1

    def stats(times):
        ordered = sorted(times)
        return {
            "p50_ms": ordered[len(ordered) // 2] * 1e3,
            "p95_ms": ordered[int(len(ordered) * 0.95)] * 1e3,
            "mean_ms": statistics.fmean(times) * 1e3,
        }

    return {
        "n_nodes": n_nodes,
        "queue_depth": queue_depth,
        "passes": passes,
        "mismatches": mismatches,
        "reference": stats(ref_times),
        "incremental": stats(inc_times),
        "speedup": statistics.fmean(ref_times) / statistics.fmean(inc_times),
    }


# ---------------------------------------------------------------------------
# DES storm: batched submission, defer coalescing, compaction
# ---------------------------------------------------------------------------
def run_des_storm(n_nodes: int, n_jobs: int, *, queue_depth: int = 256) -> dict:
    """One full submit-storm simulation; returns throughput + engine stats.

    Every started job arms TWO events, the way slurmctld does: a
    wall-limit kill timer at ``start + time_limit`` and the actual
    completion at a fraction of the limit.  The completion cancels the
    kill timer, so the heap steadily accrues tombstones with most of
    their sim-lifetime still ahead — exactly the load the compactor
    exists for.  Finish times are quantized to whole seconds so the
    ``defer``-style coalesced pass event serves every completion in an
    instant with one scheduling pass, and the pass window is bounded by
    ``queue_depth`` so per-pass cost does not grow with the backlog.
    """
    cores = 32
    rng = random.Random(7)
    sim = Simulator()
    state = ClusterState(
        (f"node{i + 1:04d}", cores, cores) for i in range(n_nodes)
    )
    pending: dict[int, Job] = {}  # insertion-ordered FIFO queue
    live: dict[int, tuple] = {}  # job_id -> (kill_event, names, end)
    stats = {"started": 0, "finished": 0, "killed": 0, "passes": 0}
    pass_times: list[float] = []
    sched_event = [None]

    def schedule_pass() -> None:
        stats["passes"] += 1
        if not pending:
            return
        t0 = time.perf_counter()
        window = []
        for job in pending.values():
            window.append(job)
            if len(window) >= queue_depth:
                break
        placements = state.backfill_pass(window, sim.now, default_limit_s=600)
        for placement in placements:
            job = placement.job
            del pending[job.job_id]
            limit = job.descriptor.time_limit_s
            end = sim.now + limit
            state.on_job_start(
                placement.node_names, job.descriptor.tasks_per_node, end
            )
            kill = sim.call_at(
                end, lambda jid=job.job_id: finish(jid, killed=True)
            )
            live[job.job_id] = (kill, placement.node_names, end)
            # most jobs finish well inside their limit (quantized so
            # same-second completions coalesce into one pass)
            runtime = max(1.0, round(limit * rng.uniform(0.1, 0.4)))
            sim.call_at(
                sim.now + runtime, lambda jid=job.job_id: finish(jid)
            )
            stats["started"] += 1
        pass_times.append(time.perf_counter() - t0)

    def request_pass() -> None:
        # defer-style coalescing: all triggers inside one instant = 1 pass
        if sched_event[0] is not None:
            return

        def fire() -> None:
            sched_event[0] = None
            schedule_pass()

        sched_event[0] = sim.call_at(sim.now, fire)

    def finish(job_id: int, *, killed: bool = False) -> None:
        kill, names, end = live.pop(job_id)
        job = jobs[job_id - 1]
        if not killed:
            kill.cancel()  # tombstone: its heap slot is compactor food
        state.on_job_finish(names, job.descriptor.tasks_per_node, end)
        stats["killed" if killed else "finished"] += 1
        request_pass()

    def submit(job: Job) -> None:
        pending[job.job_id] = job
        request_pass()

    jobs = _queue(n_jobs, cores, rng)
    wall0 = time.perf_counter()
    # the storm front: 64 submissions per simulated second, one batch call
    sim.call_at_many(
        [(float(i // 64), lambda j=job: submit(j)) for i, job in enumerate(jobs)]
    )
    sim.run(max_events=50_000_000)
    wall = time.perf_counter() - wall0

    ordered = sorted(pass_times) or [0.0]
    return {
        "n_nodes": n_nodes,
        "n_jobs": n_jobs,
        "queue_depth": queue_depth,
        "wall_s": wall,
        "events": sim.processed_events,
        "events_per_sec": sim.processed_events / wall if wall > 0 else 0.0,
        "jobs_started": stats["started"],
        "jobs_finished": stats["finished"],
        "jobs_killed_at_limit": stats["killed"],
        "kill_timer_tombstones": stats["finished"],
        "compactions": sim.events.compactions,
        "passes": stats["passes"],
        "pass_ms": {
            "p50": ordered[len(ordered) // 2] * 1e3,
            "p95": ordered[int(len(ordered) * 0.95)] * 1e3,
            "max": ordered[-1] * 1e3,
        },
        "unfinished_jobs": len(pending) + len(live),
    }


def run_des_scaling(n_nodes: int, n_jobs: int) -> dict:
    """Throughput at quarter vs full storm size (near-linearity check)."""
    small = run_des_storm(n_nodes, max(1000, n_jobs // 4))
    large = run_des_storm(n_nodes, n_jobs)
    return {
        "small": small,
        "large": large,
        # events/sec at 4x the jobs, relative to the small storm: 1.0 is
        # perfectly linear, < 1 means per-event cost grew with scale
        "throughput_ratio": (
            large["events_per_sec"] / small["events_per_sec"]
            if small["events_per_sec"]
            else 0.0
        ),
    }


# ---------------------------------------------------------------------------
# serving storm through the shard router
# ---------------------------------------------------------------------------
def run_serving_storm(
    clients: int, shards: int, *, worker_threads: int = 64
) -> dict:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_serving import analytic_rows, make_service

    from repro.serving.router import ShardRouter
    from repro.serving.server import ChronusServer
    from repro.serving.transport import LocalTransport
    from repro.serving.protocol import PredictRequest, PredictResponse

    rows = analytic_rows([4, 8, 16, 24, 28, 32], [1_500_000, 2_200_000, 2_500_000])
    floors = [None, 0.5, 0.8, 0.9, 0.95, 1.0]
    requests = [
        PredictRequest(
            system_id=1,
            binary_hash=f"bin{i % (shards * 4)}",  # spread keys over shards
            min_perf=floors[i % len(floors)],
            job_name=f"storm-{i}",
        )
        for i in range(clients)
    ]

    oracle_service = make_service(rows)
    oracle = {}
    for request in requests:
        key = request.key()
        if key not in oracle:
            oracle[key] = oracle_service.predict(request)

    telemetry.reset()
    router = ShardRouter()
    servers = []
    for i in range(shards):
        server = ChronusServer(
            make_service(rows), max_batch=32,
            queue_limit=max(256, worker_threads * 4),
        )
        server.start()
        servers.append(server)
        router.add_shard(f"shard{i}", LocalTransport(server))
    router.probe_once()

    answers: list = [None] * clients
    latencies = [0.0] * clients
    cursor = [0]
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                i = cursor[0]
                if i >= clients:
                    return
                cursor[0] += 1
            t0 = time.perf_counter()
            answers[i] = router.predict(requests[i])
            latencies[i] = time.perf_counter() - t0

    wall0 = time.perf_counter()
    threads = [threading.Thread(target=worker) for _ in range(worker_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300.0)
    wall = time.perf_counter() - wall0
    fleet = router.fleet_stats()
    for server in servers:
        server.stop()

    unanswered = sum(1 for a in answers if a is None)
    shed = sum(
        1 for a in answers if a is not None and getattr(a, "code", "") == "SHED"
    )
    errors = sum(
        1
        for a in answers
        if a is not None
        and not isinstance(a, PredictResponse)
        and getattr(a, "code", "") != "SHED"
    )
    mismatches = sum(
        1
        for request, got in zip(requests, answers)
        if isinstance(got, PredictResponse)
        and (got.cores, got.threads_per_core, got.frequency)
        != (
            oracle[request.key()].cores,
            oracle[request.key()].threads_per_core,
            oracle[request.key()].frequency,
        )
    )
    ordered = sorted(latencies)
    per_shard_requests = {
        name: info["requests"] for name, info in fleet["shards"].items()
    }
    return {
        "clients": clients,
        "shards": shards,
        "worker_threads": worker_threads,
        "wall_s": wall,
        "rps": clients / wall if wall > 0 else 0.0,
        "unanswered": unanswered,
        "shed_responses_seen": shed,
        "error_responses_seen": errors,
        "mismatches": mismatches,
        "latency_s": {
            "p50": ordered[clients // 2],
            "p95": ordered[int(clients * 0.95)],
            "max": ordered[-1],
        },
        "fleet": {
            "healthy_count": fleet["healthy_count"],
            "requests_total": fleet["requests_total"],
            "failures_total": fleet["failures_total"],
            "per_shard_requests": per_shard_requests,
            "models_cached_total": fleet["models_cached_total"],
        },
    }


# ---------------------------------------------------------------------------
def render(report: dict) -> str:
    sched = report["scheduler"]
    des = report["des_storm"]
    serve = report["serving_storm"]
    lines = [
        f"scheduler: {sched['n_nodes']} nodes x queue {sched['queue_depth']} | "
        f"reference p50 {sched['reference']['p50_ms']:.1f}ms -> incremental "
        f"p50 {sched['incremental']['p50_ms']:.2f}ms "
        f"({sched['speedup']:.1f}x, mismatches={sched['mismatches']})",
        f"des storm: {des['large']['n_jobs']} jobs / {des['large']['n_nodes']} "
        f"nodes | {des['large']['events_per_sec']:,.0f} events/s "
        f"(ratio vs 1/4 size: {des['throughput_ratio']:.2f}, "
        f"compactions={des['large']['compactions']}, "
        f"unfinished={des['large']['unfinished_jobs']})",
        f"serving storm: {serve['clients']} clients over {serve['shards']} "
        f"shards | {serve['rps']:,.0f} rps, p95 "
        f"{serve['latency_s']['p95'] * 1e3:.1f}ms, shed={serve['shed_responses_seen']}, "
        f"mismatches={serve['mismatches']}",
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument("--output", default=None, help="write JSON report here")
    args = parser.parse_args(argv)

    # the scheduler-pass comparison is sub-second even at fleet size, so
    # it always runs at the ISSUE's 1,000-node / 1,000-job-queue scale;
    # only the (minutes-long) DES storm shrinks under --smoke
    if args.smoke:
        storm_nodes, storm_jobs = 200, 8_000
    else:
        storm_nodes, storm_jobs = 1_000, 100_000
    clients, shards = 10_000, 4

    report = {
        "schema": "chronus-bench-pr7/1",
        "smoke": args.smoke,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "scheduler": run_scheduler_bench(1_000, 1_000, 5),
        "des_storm": run_des_scaling(storm_nodes, storm_jobs),
        "serving_storm": run_serving_storm(clients, shards),
    }

    print(render(report))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
