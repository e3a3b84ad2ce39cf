"""The three workloads: one job stream each through the real submit path.

Every workload runs in *rounds*.  A round sets the system up from scratch
(timed as set-up), drives the seed's inputs through it (the timed phase),
then checks the outcome.  Rounds of one run replay the same inputs, so
their placement digests must agree.  The timed phase ends only when every
submitted job is terminal and billed by ``SlurmDbd``.

Module constants size the rounds; ``tiny=True`` shrinks them for a smoke
run that finishes in seconds.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import time
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field

from benchmarks.bench_serving import analytic_rows, make_service
from benchmarks.bench_tables456_full_sweep import build_full_ranking
from benchmarks.conftest import make_benchmark_service, paper_configurations
from repro.api.auth import TokenAuthority
from repro.restd.gateway import RestGateway
from repro.restd.server import RestdServer
from repro.serving.protocol import PredictRequest
from repro.serving.server import ChronusServer
from repro.serving.transport import LocalTransport, UnixSocketServer, UnixSocketTransport
from repro.slurm.cluster import HPCG_BINARY, SimCluster
from repro.slurm.config import SlurmConfig
from repro.slurm.dbd import SlurmDbd
from repro.slurm.job import JobDescriptor
from repro.slurm.plugins.eco import JobSubmitEco, parse_chronus_comment
from repro.slurm.statesave import JournalRecord, StateSave

from ledger import GENERATOR

__all__ = ["WORKLOADS", "RoundResult"]

#: the paper's section-5.2 campaign seed; set-up must reproduce its headline
SWEEP_SEED = 33
PAPER_WINNER = (32, 1, 2_200_000)
PAPER_RHO = 0.958
#: brute-force model identity the settings alias (see bench_serving)
MODEL_SYSTEM, MODEL_BINARY = 1, 777
#: scheduler window (``SchedulerParameters=default_queue_depth``)
WINDOW = 256
#: job comments: 60% opt in, 20% opt in with a performance floor, 20% not
COMMENTS = ("chronus",) * 12 + tuple(
    f"chronus perf={floor}" for floor in (0.8, 0.9, 0.95, 0.98)
) + ("",) * 4
#: sched_backlog job shapes as (nodes, tasks): mostly whole nodes, 15%
#: spanning two.  Two thirds of the submits then meet a waiting queue, so
#: the submit median sits inside that regime instead of on the boundary
#: between the filling and the queueing cluster, where it flipped by 40%.
BACKLOG_SHAPES = ((2, 64),) * 3 + ((1, 32),) * 14 + ((1, 16), (1, 8), (1, 4))
#: (core counts, frequencies) of the steady-state rows the workloads
#: without a sweep fit their model on
ANALYTIC_GRID = ([4, 8, 16, 24, 28, 32], [1_500_000, 2_200_000, 2_500_000])


@dataclass
class RoundResult:
    setup_s: float = 0.0
    timed_s: float = 0.0
    #: caller-observed latency of every submit (seconds)
    submit_s: list = field(default_factory=list)
    #: caller-observed latency of every read (seconds; rest_mixed only)
    read_s: list = field(default_factory=list)
    ops: int = 0
    failed: int = 0
    fallbacks: int = 0
    jobs_billed: int = 0
    digest: str = ""
    problems: list = field(default_factory=list)


@dataclass(frozen=True)
class JobSpec:
    """One generated submission."""

    at: float  # simulated arrival time
    name: str
    num_tasks: int
    nodes: int
    time_limit_s: int
    comment: str

    def descriptor(self) -> JobDescriptor:
        return JobDescriptor(
            name=self.name,
            num_tasks=self.num_tasks,
            nodes=self.nodes,
            comment=self.comment,
            binary=HPCG_BINARY,
            time_limit_s=self.time_limit_s,
        )

    def body(self) -> dict:
        """The same submission as a ``POST /slurm/v1/jobs`` body."""
        return {
            "name": self.name,
            "binary": HPCG_BINARY,
            "num_tasks": self.num_tasks,
            "nodes": self.nodes,
            "comment": self.comment,
            "time_limit_s": self.time_limit_s,
        }

    @property
    def opted_in(self) -> bool:
        return parse_chronus_comment(self.comment)[0]


def _dealt(rng: random.Random, choices, n: int) -> list:
    """``n`` values cycling through ``choices`` in equal shares, shuffled.

    Every seed gets the same mix and only the order changes, so seeds
    differ in arrangement rather than in how much work they carry.
    """
    values = [choices[i % len(choices)] for i in range(n)]
    rng.shuffle(values)
    return values


def _socket_path(directory: str) -> str:
    """A Unix socket path under ``directory`` short enough to bind."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "chronus.sock")
    relative = os.path.relpath(path)
    return relative if len(relative) < len(path) else path


def _placement_digest(ctld) -> str:
    rows = [
        [jid, list(job.node_list), job.start_time]
        for jid, job in sorted(ctld.jobs.items())
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path)
        for name in names
    )


class Oracle:
    """Cold, one-request-at-a-time predictions from a second service."""

    def __init__(self, rows) -> None:
        self.service = make_service(rows)
        self._answers: dict = {}

    def config(self, plugin: JobSubmitEco, spec: JobSpec) -> tuple:
        _, min_perf = parse_chronus_comment(spec.comment)
        request = PredictRequest(
            system_id=plugin.system_hash(),
            binary_hash=plugin.binary_hash(HPCG_BINARY),
            min_perf=min_perf,
        )
        key = request.key()
        if key not in self._answers:
            answer = self.service.predict(request)
            self._answers[key] = (
                answer.cores, answer.threads_per_core, answer.frequency
            )
        return self._answers[key]


def _check_jobs(result, ctld, dbd, submitted, plugin, oracle) -> None:
    """Per-job outcome and the cross-layer invariants of one round.

    ``submitted`` maps job id -> spec.  A job counts as billed when it is
    terminal and slurmdbd holds its row with the controller's joules; an
    opted-in job must carry the oracle's configuration.
    """
    bad = 0
    for job_id, spec in submitted.items():
        job = ctld.jobs[job_id]
        try:
            row = dbd.db.get(job_id)
            mine = ctld.accounting.get(job_id)
        except KeyError:
            row = mine = None
        if (
            not job.state.is_terminal
            or row is None
            or row.state != job.state.value
            or row.energy_j != mine.energy_j
        ):
            bad += 1
            continue
        result.jobs_billed += 1
        if spec.opted_in:
            d = job.descriptor
            want = oracle.config(plugin, spec)
            got = (d.num_tasks, d.threads_per_core, d.cpu_freq_min)
            if got != want or d.cpu_freq_max != want[2]:
                result.problems.append(
                    f"job {job_id}: configuration {got} != oracle {want}"
                )
    if bad:
        result.failed += bad
        result.problems.append(f"{bad} jobs not terminal and billed by dbd")
    ctld_j = ctld.accounting.total_energy_j()
    dbd_j = dbd.db.total_energy_j()
    if ctld_j != dbd_j:
        result.problems.append(f"controller {ctld_j} J != dbd {dbd_j} J")
    unsettled = [j for j in ctld.jobs.values() if not j.state.is_terminal]
    if unsettled:
        result.problems.append(f"{len(unsettled)} jobs never reached a terminal state")


def _trace_control_plane(ledger, cluster, dbd, plugin) -> None:
    """Wrap the controller-side layers every workload loads."""
    ctld = cluster.ctld
    ledger.trace_engine(cluster.sim)
    ledger.wrap(ctld, "submit", "ctld.submit")
    ledger.wrap(plugin, "job_submit", "plugins.eco")
    ledger.wrap(ctld.statesave, "append", "statesave.append")
    for node in cluster.nodes:
        ledger.wrap(node, "start_workload", "node.workload")
        ledger.wrap(node, "stop_workload", "node.workload")
    counters = ledger.counters
    backfill = ctld.cluster_state.backfill_pass

    def backfill_pass(pending, now, **kwargs):
        placements = backfill(pending, now, **kwargs)
        counters["sched.window"] += len(pending)
        counters["sched.placed"] += len(placements)
        return placements

    ctld.cluster_state.backfill_pass = ledger.timed_call(backfill_pass, "sched.backfill")
    pump = dbd.pump

    def dbd_pump():
        applied = pump()
        counters["dbd.records_applied"] += applied
        return applied

    dbd.pump = ledger.timed_call(dbd_pump, "dbd.pump")


def _trace_predict_batch(ledger, service) -> None:
    counters = ledger.counters
    predict_batch = service.predict_batch

    def batch(requests):
        counters["predict.batches"] += 1
        counters["predict.requests"] += len(requests)
        counters["predict.distinct"] += len({r.key() for r in requests})
        return predict_batch(requests)

    service.predict_batch = ledger.timed_call(batch, "predict.batch")


def _fit(rows, ledger):
    """Fit the brute-force model and warm it behind a ChronusServer."""
    with ledger.span("model.fit") if ledger else nullcontext():
        service = make_service(rows)
        server = ChronusServer(service)
        service.warm(MODEL_SYSTEM, MODEL_BINARY)
    return service, server


def _control_plane(stack, tmp, seed, nodes, run_s, provider, *, fsync):
    """A journaled SimCluster, the eco plugin on ``provider`` and a dbd.

    slurm.conf of every workload: the eco chain and deferred passes over
    a 256-job window.
    """
    statesave = StateSave(os.path.join(tmp, "state"), fsync=fsync)
    stack.callback(statesave.close)
    cluster = SimCluster(
        seed=seed,
        n_nodes=nodes,
        config=SlurmConfig(
            job_submit_plugins=("eco",), sched_defer=True, sched_queue_depth=WINDOW
        ),
        hpcg_duration_s=run_s,
        statesave=statesave,
    )
    plugin = JobSubmitEco(cluster.node, provider)
    cluster.ctld.register_plugin(plugin)
    plugin.system_hash()  # lazy /proc read, cached for the node's life
    return cluster, plugin, SlurmDbd(statesave)


def _submit_all(result, cluster, plugin, specs, descriptors, cancels=None) -> dict:
    """One synchronous caller submits ``specs`` at their simulated times.

    ``cancels`` maps a submit index to an earlier one whose job is
    scancel'd right after it.  Returns job id -> spec.
    """
    ctld, sim = cluster.ctld, cluster.sim
    submitted, job_ids = {}, []
    for i, (spec, desc) in enumerate(zip(specs, descriptors)):
        sim.run(until=spec.at)
        started = time.perf_counter()
        try:
            job_id = ctld.submit(desc)
        except Exception as exc:  # noqa: BLE001 - a failed op, counted
            job_id = None
            result.failed += 1
            result.problems.append(f"submit {spec.name}: {exc!r}")
        result.submit_s.append(time.perf_counter() - started)
        result.ops += 1
        job_ids.append(job_id)
        if job_id is None:
            continue
        submitted[job_id] = spec
        if spec.opted_in and plugin.last_served is None:
            result.fallbacks += 1
            result.failed += 1
        victim = (cancels or {}).get(i)
        if victim is not None and job_ids[victim] is not None:
            result.ops += 1
            try:
                ctld.cancel(job_ids[victim])
            except Exception as exc:  # noqa: BLE001 - a failed op, counted
                result.failed += 1
                result.problems.append(f"scancel: {exc!r}")
    return submitted


class _Timed:
    """Brackets one round's timed phase and its traced counters."""

    def __init__(self, ledger, cluster) -> None:
        self.ledger = ledger
        self.sim = cluster.sim
        self.statesave_dir = cluster.ctld.statesave.path

    def __enter__(self):
        ledger = self.ledger
        if ledger is not None:
            ledger.count_calls(JournalRecord, "decode", "dbd.records_decoded")
            ledger.count_calls(os, "fsync", "statesave.fsync_s", seconds=True)
            ledger.timed = True
        self.events0 = self.sim.processed_events
        self.compactions0 = self.sim.events.compactions
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self.started
        ledger = self.ledger
        if ledger is None:
            return
        ledger.timed = False
        ledger.close()
        ledger.timed_wall_s += self.elapsed
        ledger.counters["engine.events"] += self.sim.processed_events - self.events0
        ledger.counters["engine.compactions"] += (
            self.sim.events.compactions - self.compactions0
        )
        ledger.counters["statesave.bytes"] += _dir_bytes(self.statesave_dir)


# ----------------------------------------------------------------------
# ctld_storm
# ----------------------------------------------------------------------
class CtldStorm:
    """Every layer of the paper's path, once per job.

    Why: the paper pre-loads models because ``job_submit_eco`` runs
    synchronously inside slurmctld's submit path (section 3.1.2); this is
    the workload that measures that path end to end.  Predict, journal
    fsync and dbd do most of the work here.

    Set-up runs the paper's 138-point sweep, fits the brute-force model
    and warms it, then starts a ChronusServer (micro-batcher on) behind the
    chronus/2 Unix-socket daemon.  A 64-node SimCluster journals to a
    StateSave with fsync on; a SlurmDbd tails the journal every 10
    simulated seconds, as ``build_drill_plane`` does.  Submissions arrive
    at a fixed simulated rate (an open loop in simulated time) from one
    synchronous caller in wall time; the rate stays below what the cluster
    drains, so the queue stays short.  HPCG runs are time-bounded, so the
    simulated horizon stays proportional to the job count.

    Layers loaded: ctld.submit, plugins.eco, predict.wire, predict.queue,
    predict.batch, statesave.append, dbd.pump, sweep.run, model.fit; the
    scheduler and engine layers lightly.
    """

    name = "ctld_storm"
    nodes, jobs, rate, run_s, dbd_every_s = 64, 640, 1.5, 30.0, 10.0

    def __init__(self, seed: int, tiny: bool) -> None:
        if tiny:
            self.nodes, self.jobs = 8, 40
        rng = random.Random(seed)
        comments = _dealt(rng, COMMENTS, self.jobs)
        sizes = _dealt(rng, (4, 8, 16, 32), self.jobs)
        limits = _dealt(rng, (600, 1800, 3600), self.jobs)
        self.specs = [
            JobSpec(
                at=i / self.rate,
                name=f"storm-{i:05d}",
                num_tasks=32 if comments[i] else sizes[i],
                nodes=1,
                time_limit_s=limits[i],
                comment=comments[i],
            )
            for i in range(self.jobs)
        ]
        self.seed = seed
        self.oracle = None

    def run_round(self, tmp: str, ledger) -> RoundResult:
        result = RoundResult()
        setup_started = time.perf_counter()
        with ExitStack() as stack:
            sweep_cluster = SimCluster(seed=SWEEP_SEED, hpcg_duration_s=1200.0)
            bench = make_benchmark_service(sweep_cluster)
            if ledger is not None:
                ledger.wrap(bench, "run_benchmarks", "sweep.run")
            rows = bench.run_benchmarks(
                paper_configurations(), clock=lambda: sweep_cluster.sim.now
            )
            service, server = _fit(rows, ledger)
            _, _, rho = build_full_ranking(rows)
            best = service.predict(
                PredictRequest(system_id=MODEL_SYSTEM, binary_hash=MODEL_BINARY)
            )
            winner = (best.cores, best.threads_per_core, best.frequency)
            if winner != PAPER_WINNER or abs(rho - PAPER_RHO) > 0.002:
                result.problems.append(
                    f"sweep headline moved: winner {winner}, rho {rho:.4f}"
                )
            server.start()
            stack.callback(server.stop)
            sock = _socket_path(tmp)
            daemon = UnixSocketServer(server, sock).start()
            stack.callback(daemon.stop)
            transport = UnixSocketTransport(sock)
            cluster, plugin, dbd = _control_plane(
                stack, tmp, self.seed, self.nodes, self.run_s, transport, fsync=True
            )
            if ledger is not None:
                _trace_control_plane(ledger, cluster, dbd, plugin)
                ledger.wrap(transport, "predict", "predict.wire")
                ledger.wrap(server, "handle_wire", "predict.queue")
                _trace_predict_batch(ledger, service)
            cluster.sim.call_every(
                self.dbd_every_s, lambda: dbd.pump(), name="dbd-pump"
            )
            descriptors = [spec.descriptor() for spec in self.specs]
            result.setup_s = time.perf_counter() - setup_started

            with _Timed(ledger, cluster) as timed:
                submitted = _submit_all(result, cluster, plugin, self.specs, descriptors)
                cluster.sim.run()
                dbd.pump()
            result.timed_s = timed.elapsed
            if self.oracle is None:
                self.oracle = Oracle(rows)
            _check_jobs(result, cluster.ctld, dbd, submitted, plugin, self.oracle)
            result.digest = _placement_digest(cluster.ctld)
        return result


# ----------------------------------------------------------------------
# sched_backlog
# ----------------------------------------------------------------------
class SchedBacklog:
    """The scheduler and engine under a deep queue; predict and fsync idle.

    Why: a scheduler pass whose cost tracks what changed (ROADMAP item 2)
    needs a workload where passes dominate.  Submissions arrive faster
    than a 1,000-node cluster drains, so about two thousand jobs wait at
    the peak; whole-node and 2-node jobs mix with 4- to 16-task ones and
    time limits vary, so backfill shadows matter.  A small share of jobs is scancel'd mid-storm (the
    cancel path and engine tombstones).  The eco plugin is registered but
    no job opts in, so the chain runs and never predicts; fsync is off and
    dbd pumps once at the end.  A predict, journal or dbd change should
    show no change here.  Not gated by BENCHMARK.json (see run.py); run
    it with ``--trace 1`` for the scheduler's layer breakdown.

    Layers loaded: sched.pass, sched.backfill, ctld.complete,
    node.workload, engine.dispatch, ctld.submit; plugins.eco skips.
    """

    name = "sched_backlog"
    nodes, jobs, rate, run_s = 1000, 3000, 64.0, 600.0
    cancel_share, cancel_lag = 0.03, 40

    def __init__(self, seed: int, tiny: bool) -> None:
        if tiny:
            self.nodes, self.jobs = 50, 150
        rng = random.Random(seed)
        shapes = _dealt(rng, BACKLOG_SHAPES, self.jobs)
        limits = _dealt(rng, (900, 1800, 3600, 7200, 14400), self.jobs)
        self.specs = [
            JobSpec(
                at=i / self.rate,
                name=f"backlog-{i:05d}",
                num_tasks=shapes[i][1],
                nodes=shapes[i][0],
                time_limit_s=limits[i],
                comment="",
            )
            for i in range(self.jobs)
        ]
        #: submit index -> index of the earlier job scancel'd right after it
        cancelling = rng.sample(
            range(self.cancel_lag, self.jobs), round(self.cancel_share * self.jobs)
        )
        self.cancels = {i: i - self.cancel_lag for i in cancelling}
        self.seed = seed
        self.rows = analytic_rows(*ANALYTIC_GRID)

    def run_round(self, tmp: str, ledger) -> RoundResult:
        result = RoundResult()
        setup_started = time.perf_counter()
        with ExitStack() as stack:
            service, server = _fit(self.rows, ledger)
            cluster, plugin, dbd = _control_plane(
                stack, tmp, self.seed, self.nodes, self.run_s, LocalTransport(server),
                fsync=False,
            )
            if ledger is not None:
                _trace_control_plane(ledger, cluster, dbd, plugin)
                _trace_predict_batch(ledger, service)
            descriptors = [spec.descriptor() for spec in self.specs]
            result.setup_s = time.perf_counter() - setup_started

            with _Timed(ledger, cluster) as timed:
                submitted = _submit_all(
                    result, cluster, plugin, self.specs, descriptors, self.cancels
                )
                cluster.sim.run()
                dbd.pump()
            result.timed_s = timed.elapsed
            _check_jobs(result, cluster.ctld, dbd, submitted, plugin, None)
            result.digest = _placement_digest(cluster.ctld)
        return result


# ----------------------------------------------------------------------
# rest_mixed
# ----------------------------------------------------------------------
class RestMixed:
    """Reads beside writes, through the REST front over loopback TCP.

    Why: a change that speeds submits at the expense of reads or of the
    dbd table shows here.  Each request crosses HTTP parsing, the HMAC
    token check and the gateway; every POST scans ``ctld.jobs`` for a
    duplicate name, and every GET pumps the dbd and (for a list page)
    sorts all job ids.  One closed-loop caller alternates between two
    keep-alive connections, a writer (``POST /slurm/v1/jobs``) and a
    reader (paginated ``GET /slurm/v1/jobs`` and ``GET
    /slurm/v1/jobs/{id}``), so requests never overlap.  The eco plugin
    runs inline through ``LocalTransport`` to an unstarted ChronusServer
    (the ``ChronusApp.enable_eco_plugin`` wiring), so the predict layer
    runs without the wire or the batcher.  fsync is on.  The generator,
    not the wall-clock SimPump, advances the simulation: a fixed simulated
    step after a fixed number of requests, taken under ``RestGateway.lock``,
    so every commit gets the same simulated progress per request.

    Layers loaded: restd.http, restd.gateway, ctld.submit, plugins.eco,
    predict.batch, statesave.append, dbd.pump.
    """

    name = "rest_mixed"
    nodes, posts, run_s = 64, 300, 30.0
    #: one read after every fourth POST, alternating a single-job GET and
    #: the next page of a paginated walk
    posts_per_read, page_limit = 4, 50
    step_every, step_s = 2, 1.0

    def __init__(self, seed: int, tiny: bool) -> None:
        if tiny:
            self.nodes, self.posts = 8, 30
        rng = random.Random(seed)
        comments = _dealt(rng, COMMENTS, self.posts)
        sizes = _dealt(rng, (4, 8, 16, 32), self.posts)
        limits = _dealt(rng, (600, 1800, 3600), self.posts)
        #: ("post", spec) | ("get", index of an earlier post) | ("list", None)
        self.requests = []
        for i in range(self.posts):
            spec = JobSpec(
                at=0.0,
                name=f"rest-{seed}-{i:05d}",
                num_tasks=32 if comments[i] else sizes[i],
                nodes=1,
                time_limit_s=limits[i],
                comment=comments[i],
            )
            self.requests.append(("post", spec))
            if (i + 1) % self.posts_per_read == 0:
                reads = (i + 1) // self.posts_per_read
                if reads % 2:
                    self.requests.append(("get", rng.randrange(i + 1)))
                else:
                    self.requests.append(("list", None))
        self.seed = seed
        self.rows = analytic_rows(*ANALYTIC_GRID)
        self.oracle = Oracle(self.rows)

    def run_round(self, tmp: str, ledger) -> RoundResult:
        result = RoundResult()
        setup_started = time.perf_counter()
        with ExitStack() as stack:
            service, server = _fit(self.rows, ledger)
            cluster, plugin, dbd = _control_plane(
                stack, tmp, self.seed, self.nodes, self.run_s, LocalTransport(server),
                fsync=True,
            )
            authority = TokenAuthority(f"perfbench-{self.seed}")
            gateway = RestGateway(
                authority=authority, leader=lambda: cluster.ctld, dbd=dbd
            )
            if ledger is not None:
                _trace_control_plane(ledger, cluster, dbd, plugin)
                _trace_predict_batch(ledger, service)
                ledger.wrap(gateway, "handle", "restd.gateway")
            restd = RestdServer(gateway).start()
            stack.callback(restd.stop)
            client = _Client(restd.address, authority.issue("perfbench", "submit"), ledger)
            client.writer.connect()
            client.reader.connect()
            stack.callback(client.close)
            result.setup_s = time.perf_counter() - setup_started

            submitted = {}
            posted_ids = []
            cursor = None
            ctld, sim = cluster.ctld, cluster.sim
            with _Timed(ledger, cluster) as timed:
                for n, (kind, arg) in enumerate(self.requests, 1):
                    if kind == "post":
                        status, payload, took = client.call(
                            client.writer, "POST", "/slurm/v1/jobs", arg.body()
                        )
                        result.submit_s.append(took)
                        if status == 201:
                            posted_ids.append(payload["job_id"])
                            submitted[payload["job_id"]] = arg
                            if arg.opted_in and plugin.last_served is None:
                                result.fallbacks += 1
                                result.failed += 1
                        else:
                            posted_ids.append(None)
                    elif kind == "get":
                        target = f"/slurm/v1/jobs/{posted_ids[arg]}"
                        status, payload, took = client.call(client.reader, "GET", target)
                        result.read_s.append(took)
                    else:
                        target = f"/slurm/v1/jobs?limit={self.page_limit}"
                        if cursor:
                            target += f"&cursor={cursor}"
                        status, payload, took = client.call(client.reader, "GET", target)
                        result.read_s.append(took)
                        cursor = payload.get("next_cursor") if status == 200 else None
                    result.ops += 1
                    if status >= 400:
                        result.failed += 1
                        result.problems.append(f"{kind} answered {status}: {payload}")
                    if n % self.step_every == 0:
                        with gateway.lock:
                            sim.run(until=sim.now + self.step_s)
                with gateway.lock:
                    sim.run()
                    dbd.pump()
            result.timed_s = timed.elapsed
            _check_jobs(result, ctld, dbd, submitted, plugin, self.oracle)
            walked = client.walk(self.page_limit)
            if sorted(walked) != sorted(submitted):
                result.problems.append(
                    f"page walk listed {len(walked)} rows "
                    f"({len(set(walked))} distinct) for {len(submitted)} jobs"
                )
            result.digest = _placement_digest(ctld)
        return result


class _Client:
    """The closed-loop HTTP caller: two keep-alive connections."""

    def __init__(self, address, token: str, ledger) -> None:
        self.writer = http.client.HTTPConnection(*address, timeout=30.0)
        self.reader = http.client.HTTPConnection(*address, timeout=30.0)
        self.headers = {
            "Authorization": f"Bearer {token}",
            "Content-Type": "application/json",
        }
        self.ledger = ledger

    def call(self, conn, method: str, target: str, body=None):
        """One round trip; returns ``(status, payload, seconds)``."""
        ledger = self.ledger
        with ledger.span(GENERATOR) if ledger else nullcontext():
            data = json.dumps(body) if body is not None else None
        started = time.perf_counter()
        with ledger.span("restd.http") if ledger else nullcontext():
            conn.request(method, target, body=data, headers=self.headers)
            response = conn.getresponse()
            raw = response.read()
        took = time.perf_counter() - started
        with ledger.span(GENERATOR) if ledger else nullcontext():
            payload = json.loads(raw)
        return response.status, payload, took

    def walk(self, limit: int) -> list:
        """Job ids of a full cursor-chained pagination walk."""
        ids, cursor = [], None
        while True:
            target = f"/slurm/v1/jobs?limit={limit}"
            if cursor:
                target += f"&cursor={cursor}"
            status, payload, _ = self.call(self.reader, "GET", target)
            if status != 200:
                raise RuntimeError(f"page walk answered {status}: {payload}")
            ids.extend(row["job_id"] for row in payload["jobs"])
            cursor = payload.get("next_cursor")
            if not cursor:
                return ids

    def close(self) -> None:
        self.writer.close()
        self.reader.close()


WORKLOADS = {w.name: w for w in (CtldStorm, SchedBacklog, RestMixed)}
