"""The ``chronus`` command-line interface.

The paper's section 3.3 surface plus one reporting addition::

    chronus benchmark [HPCG_PATH] --configurations [CONFIG_FILE]
    chronus init-model --model [MODEL_TYPE] --system [SYSTEM_ID]
    chronus load-model --model [MODEL_ID]
    chronus models {list,promote,rollback,shadow}  (ours: registry lifecycle)
    chronus slurm-config [SYSTEM_IDENTIFIER] [BINARY_HASH]
    chronus set {database,blob-storage,state} VALUE
    chronus report --system [SYSTEM_ID]      (ours: projected savings)
    chronus metrics [--format json|prometheus|summary]  (ours: telemetry)
    chronus faults {list,run ..}             (ours: chaos drills)
    chronus workflow {list,show,reschedule}  (ours: per-workflow accounting)
    chronus serve [--socket PATH] [--preload MODEL_ID]  (ours: prediction daemon)
    chronus restd [--port PORT]              (ours: REST gateway, slurmrestd analogue)
    chronus shutdown [--socket PATH]         (ours: stop the daemon)

Every command leaves a telemetry snapshot at ``<workspace>/telemetry.json``;
``chronus metrics`` either re-reads that file (``--from-file``) or runs a
compact end-to-end demo — benchmark sweep, model training, eco-plugin
submissions — and dumps the live registry.

Each invocation builds a fresh simulated cluster (each real invocation is
a fresh process on the head node); everything durable lives in the
workspace directory — the database, blob storage and
``etc/chronus/settings.json`` — so the commands compose across
invocations the way the paper's workflow does.  Logs go to stdout and to
``<workspace>/chronus.log`` (the paper's ``/var/log/chronus.log``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro import telemetry
from repro.core.application.sweep_executor import WORKERS_ENV, resolve_worker_count
from repro.core.domain.configuration import Configuration
from repro.core.domain.errors import ChronusError
from repro.core.domain.model import MODEL_STAGES
from repro.core.factory import ChronusApp, ModelFactory
from repro.core.presenter.views import (
    TelemetryView,
    render_benchmark_row,
    render_models_table,
    render_systems_table,
)
from repro.slurm.cluster import HPCG_BINARY, SimCluster

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronus",
        description="Energy-efficient configuration service for Slurm (eco plugin)",
    )
    parser.add_argument(
        "--workspace",
        default="./chronus-workspace",
        help="directory holding the database, blob storage and settings "
        "(stands in for the head node's /etc/chronus + /var/lib paths)",
    )
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("benchmark", help="run benchmarks on different configurations")
    p_bench.add_argument("hpcg_path", nargs="?", default=HPCG_BINARY)
    p_bench.add_argument(
        "--configurations",
        help="JSON file with an array of configurations to benchmark "
        "(default: every configuration of the system CPU)",
    )
    p_bench.add_argument(
        "--duration",
        type=float,
        default=1200.0,
        help="per-configuration run duration in (simulated) seconds, "
        "the paper's 20-minute jobs",
    )
    p_bench.add_argument(
        "--sample-interval", type=float, default=3.0, help="IPMI sampling cadence"
    )
    p_bench.add_argument(
        "--workers",
        type=int,
        default=None,
        help="sweep worker processes: 1 runs the classic serial sweep on one "
        "shared cluster; >1 fans points over a process pool with "
        "deterministic per-configuration seeding; unset honours "
        "CHRONUS_SWEEP_WORKERS and otherwise stays serial",
    )

    p_init = sub.add_parser("init-model", help="initialize the prediction model")
    p_init.add_argument(
        "--model",
        default="linear-regression",
        choices=ModelFactory.available_types(),
        help="model type [default: linear-regression]",
    )
    p_init.add_argument(
        "--system", type=int, default=-1, help="the id of the system to use [default: -1]"
    )

    p_load = sub.add_parser("load-model", help="load a pre-trained model")
    p_load.add_argument("--model", type=int, default=-1, help="the id of the model to load")

    p_models = sub.add_parser(
        "models",
        help="registry lifecycle: list models, promote/rollback/shadow",
    )
    models_sub = p_models.add_subparsers(dest="models_command", required=True)
    m_list = models_sub.add_parser("list", help="list registry records")
    m_list.add_argument(
        "--stage",
        choices=list(MODEL_STAGES),
        help="only records in this lifecycle stage",
    )
    m_promote = models_sub.add_parser(
        "promote",
        help="make a model active for its (system, application); the "
        "previous active is archived; a running daemon picks it up "
        "without a restart",
    )
    m_promote.add_argument("--model", type=int, required=True, help="model id")
    m_rollback = models_sub.add_parser(
        "rollback", help="restore the previously active model of a scope"
    )
    m_rollback.add_argument("--system", type=int, required=True)
    m_rollback.add_argument("--application", default="hpcg")
    m_shadow = models_sub.add_parser(
        "shadow",
        help="mirror sampled live traffic onto a model; divergence is "
        "recorded, answers are never served",
    )
    m_shadow.add_argument("--model", type=int, required=True, help="model id")

    p_cfg = sub.add_parser("slurm-config", help="predict the energy-efficient configuration")
    p_cfg.add_argument("system_identifier")
    p_cfg.add_argument("binary_hash", nargs="?", default="")

    p_report = sub.add_parser(
        "report", help="projected annual savings from the benchmark data"
    )
    p_report.add_argument("--system", type=int, default=-1)
    p_report.add_argument("--application", default="hpcg")
    p_report.add_argument("--duty-cycle", type=float, default=0.7,
                          help="fraction of the year the node runs this workload")
    p_report.add_argument("--price", type=float, default=90.0, help="EUR per MWh")
    p_report.add_argument("--carbon", type=float, default=300.0, help="gCO2 per kWh")

    p_set = sub.add_parser("set", help="change the configuration of the plugin")
    set_sub = p_set.add_subparsers(dest="setting", required=True)
    s_db = set_sub.add_parser("database", help="the path to the database")
    s_db.add_argument("value")
    s_blob = set_sub.add_parser("blob-storage", help="the path to the blob storage")
    s_blob.add_argument("value")
    s_state = set_sub.add_parser(
        "state", help="activates, sets it to user or deactivates the plugin"
    )
    s_state.add_argument("value", choices=["activated", "user", "deactivated"])

    p_faults = sub.add_parser(
        "faults", help="fault injection: list sites/profiles, run chaos drills"
    )
    faults_sub = p_faults.add_subparsers(dest="faults_command", required=True)
    faults_sub.add_parser("list", help="show fault sites and named profiles")
    f_run = faults_sub.add_parser(
        "run", help="run a chaos drill under a fault profile/spec"
    )
    f_run.add_argument(
        "profile",
        help="named profile (see `chronus faults list`) or raw spec like "
        "'ipmi.read=0.2,seed=42'",
    )
    f_run.add_argument(
        "--scenario",
        choices=["sweep", "storm", "failover", "restd"],
        default="sweep",
        help="sweep: mini benchmark sweep; storm: eco-plugin submit burst; "
        "failover: SIGKILL-the-leader HA drill (journaled slurmctld pair); "
        "restd: REST gateway under stalled reads / auth outages",
    )
    f_run.add_argument(
        "--points", type=int, default=8, help="sweep points [default: 8]"
    )
    f_run.add_argument(
        "--jobs", type=int, default=50,
        help="storm/failover submissions [default: 50]",
    )

    p_wf = sub.add_parser(
        "workflow",
        help="per-workflow provenance: rollups from a state-save journal, "
        "plus offline requeue of a failed member",
    )
    wf_sub = p_wf.add_subparsers(dest="workflow_command", required=True)
    w_list = wf_sub.add_parser(
        "list", help="every workflow's rollup (jobs, joules, attempts, models)"
    )
    w_list.add_argument(
        "--statesave", required=True,
        help="state-save directory (journal + snapshots) to read",
    )
    w_show = wf_sub.add_parser(
        "show", help="one workflow's rollup plus its member jobs"
    )
    w_show.add_argument("workflow_id")
    w_show.add_argument("--statesave", required=True,
                        help="state-save directory to read")
    w_resched = wf_sub.add_parser(
        "reschedule",
        help="requeue a terminally-failed job; the release re-runs the "
        "energy-optimal prediction and records the attempt's model lineage",
    )
    w_resched.add_argument("job_id", type=int)
    w_resched.add_argument("--statesave", required=True,
                           help="state-save directory to restore and journal into")

    p_serve = sub.add_parser(
        "serve",
        help="run the prediction daemon (chronus/2 JSON lines over a unix socket)",
        description="Run the prediction daemon: chronus/2 JSON lines over a "
        "unix socket.  Batching is work-conserving: a request that arrives "
        "while the batcher is idle is answered at once, and requests that "
        "queue while a batch runs form the next batch (at most --max-batch).",
    )
    p_serve.add_argument(
        "--socket", help="unix socket path [default: <workspace>/chronus.sock]"
    )
    p_serve.add_argument(
        "--preload",
        type=int,
        action="append",
        metavar="MODEL_ID",
        help="pre-load + pin this model in the serving cache (repeatable)",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=16,
        help="largest micro-batch one optimizer evaluation serves [default: 16]",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=128,
        help="admission bound; beyond it requests get explicit SHED answers",
    )
    p_serve.add_argument(
        "--cache-capacity", type=int, default=8,
        help="models held in memory (LRU; pinned models never evict)",
    )
    p_serve.add_argument(
        "--max-requests", type=int, default=None,
        help="exit after serving N requests (smoke tests)",
    )

    p_restd = sub.add_parser(
        "restd",
        help="run the REST gateway (slurmrestd analogue) over a simulated "
        "HA control plane",
    )
    p_restd.add_argument(
        "--host", default="127.0.0.1", help="bind address [default: 127.0.0.1]"
    )
    p_restd.add_argument(
        "--port", type=int, default=0,
        help="TCP port; 0 picks a free one and prints it [default: 0]",
    )
    p_restd.add_argument(
        "--secret",
        help="HMAC token secret [default: $CHRONUS_RESTD_SECRET or generated]",
    )
    p_restd.add_argument(
        "--nodes", type=int, default=4,
        help="compute nodes in the simulated cluster [default: 4]",
    )
    p_restd.add_argument(
        "--sim-step", type=float, default=1.0,
        help="simulated seconds advanced per pump tick [default: 1.0]",
    )
    p_restd.add_argument(
        "--max-requests", type=int, default=None,
        help="exit after serving N requests (smoke tests)",
    )

    p_shutdown = sub.add_parser(
        "shutdown", help="ask a running prediction daemon to exit"
    )
    p_shutdown.add_argument(
        "--socket", help="unix socket path [default: <workspace>/chronus.sock]"
    )

    p_metrics = sub.add_parser(
        "metrics", help="dump a telemetry snapshot (metrics + latency quantiles)"
    )
    p_metrics.add_argument(
        "--format",
        choices=["json", "prometheus", "summary"],
        default="json",
        help="stdout format [default: json]",
    )
    p_metrics.add_argument(
        "--output", help="additionally write the JSON snapshot to this path"
    )
    p_metrics.add_argument(
        "--from-file",
        action="store_true",
        help="read <workspace>/telemetry.json (written by previous commands) "
        "instead of running the built-in demo simulation",
    )
    return parser


class _Tee:
    """Log sink writing to stdout and the workspace log file."""

    def __init__(self, path: str, quiet: bool = False) -> None:
        self.path = path
        self.quiet = quiet

    def __call__(self, msg: str) -> None:
        if not self.quiet:
            print(msg)
        try:
            with open(self.path, "a") as fh:
                fh.write(msg + "\n")
        except OSError:
            pass  # logging must never break the command


def _make_app(args: argparse.Namespace, *, duration: Optional[float] = None,
              sample_interval: float = 3.0) -> ChronusApp:
    cluster = SimCluster(seed=args.seed, hpcg_duration_s=duration)
    log = _Tee(os.path.join(args.workspace, "chronus.log"))
    os.makedirs(args.workspace, exist_ok=True)
    return ChronusApp(
        cluster, args.workspace, sample_interval_s=sample_interval, log=log
    )


def _snapshot_path(args: argparse.Namespace) -> str:
    return os.path.join(args.workspace, "telemetry.json")


def _persist_snapshot(args: argparse.Namespace) -> None:
    """Leave the invocation's metrics behind for ``chronus metrics``."""
    snap = telemetry.snapshot()
    if not any(snap.values()):
        return
    try:
        os.makedirs(args.workspace, exist_ok=True)
        with open(_snapshot_path(args), "w") as fh:
            fh.write(telemetry.snapshot_to_json(snap))
    except OSError:
        pass  # telemetry must never break the command


def _cmd_benchmark(args: argparse.Namespace) -> int:
    app = _make_app(args, duration=args.duration, sample_interval=args.sample_interval)
    app.runner.hpcg_path = args.hpcg_path
    configs = None
    if args.configurations:
        with open(args.configurations) as fh:
            configs = Configuration.list_from_json(fh.read())
    if args.workers is not None:
        workers = max(1, args.workers)
    elif os.environ.get(WORKERS_ENV, "").strip():
        workers = resolve_worker_count(None)
    else:
        workers = 1
    if workers > 1:
        executor = app.make_sweep_executor(workers=workers)
        if configs is None:
            configs = app.benchmark_service.default_configurations()
        points = app.sweep_points(configs, duration_s=args.duration)
        results = executor.run_sweep(points)
    else:
        results = app.benchmark_service.run_benchmarks(configs, clock=app.clock)
    for row in results:
        print(render_benchmark_row(row))
    print(f"Run data has been saved to the repository ({len(results)} rows).")
    return 0


def _cmd_init_model(args: argparse.Namespace) -> int:
    app = _make_app(args)
    if args.system == -1:
        print(render_systems_table(app.repository.list_systems()))
        return 0
    metadata = app.init_model_service.run(
        args.model, args.system, created_at=app.clock()
    )
    print(
        f"Model {metadata.model_id} ({metadata.model_type}) trained on "
        f"{metadata.training_points} benchmarks; saved to {metadata.blob_path}"
    )
    return 0


def _cmd_load_model(args: argparse.Namespace) -> int:
    app = _make_app(args)
    if args.model == -1:
        print(render_models_table(app.repository.list_models()))
        return 0
    metadata, local_path = app.load_model_service.run(args.model)
    # warm ahead of time: deserialize the artifact and score its candidate
    # grid now, so the plugin's first prediction is an index lookup
    # instead of eating the cold-start cost inside slurmctld's window
    warmed = app.slurm_config_service.warm(metadata.system_id)
    print(f"Model {metadata.model_id} ({metadata.model_type}) loaded to {local_path}")
    print(f"Warmed {warmed[0]}:{warmed[1]} (score cache ready)")
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    app = _make_app(args)
    registry = app.model_registry_service
    if args.models_command == "list":
        print(render_models_table(registry.list(stage=args.stage)))
        return 0
    if args.models_command == "promote":
        record = registry.promote(args.model)
        print(
            f"Model {record.model_id} (v{record.version}, "
            f"{record.model_type}) is now active for system "
            f"{record.system_id} {record.application!r}"
        )
        return 0
    if args.models_command == "rollback":
        record = registry.rollback(args.system, args.application)
        print(
            f"Rolled back: model {record.model_id} (v{record.version}, "
            f"{record.model_type}) is active again for system "
            f"{record.system_id} {record.application!r}"
        )
        return 0
    record = registry.shadow(args.model)
    print(
        f"Model {record.model_id} (v{record.version}, {record.model_type}) "
        f"now shadows system {record.system_id} {record.application!r}"
    )
    return 0


def _cmd_slurm_config(args: argparse.Namespace) -> int:
    app = _make_app(args)
    print(app.slurm_config_service.run_json(args.system_identifier, args.binary_hash))
    return 0


def _cmd_set(args: argparse.Namespace) -> int:
    app = _make_app(args)
    if args.setting == "database":
        app.settings_service.set_database(args.value)
    elif args.setting == "blob-storage":
        app.settings_service.set_blob_storage(args.value)
    elif args.setting == "state":
        app.settings_service.set_state(args.value)
    print(f"{args.setting} = {args.value}")
    return 0


def _socket_path(args: argparse.Namespace) -> str:
    return args.socket or os.path.join(args.workspace, "chronus.sock")


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving.transport import UnixSocketServer

    app = _make_app(args)
    server = app.make_server(
        cache_capacity=args.cache_capacity,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
    )
    for model_id in args.preload or []:
        key = server.preload(model_id)
        print(f"preloaded model {model_id}: pinned {key[0]}:{key[1] or '*'}")
    socket_path = _socket_path(args)
    daemon = UnixSocketServer(
        server, socket_path,
        log=_Tee(os.path.join(args.workspace, "chronus.log")),
        max_requests=args.max_requests,
    )
    server.start()
    print(
        f"chronus serve: listening on {socket_path} "
        f"(chronus/2 JSON lines; work-conserving batches <= {args.max_batch}, "
        f"queue {args.queue_limit})"
    )
    try:
        served = daemon.serve_forever()
    finally:
        server.stop()
    print(f"chronus serve: exiting after {served} requests")
    return 0


def _cmd_restd(args: argparse.Namespace) -> int:
    """Serve REST over a live simulated HA pair until interrupted.

    A self-contained deployment: a two-peer journaled slurmctld control
    plane on the drill workload, the journal-tailing accounting daemon
    for list endpoints, the workspace model registry for
    ``/chronus/v1/models``, and a :class:`SimPump` advancing simulated
    time so submitted jobs actually run while clients poll.
    """
    import secrets

    from repro.api.auth import TokenAuthority
    from repro.restd.gateway import RestGateway
    from repro.restd.server import RestdServer, SimPump
    from repro.slurm.ha import build_drill_plane

    secret = args.secret or os.environ.get("CHRONUS_RESTD_SECRET")
    generated = secret is None
    if generated:
        secret = secrets.token_hex(16)
    statesave_path = os.path.join(args.workspace, "restd-statesave")
    os.makedirs(statesave_path, exist_ok=True)
    drill = build_drill_plane(statesave_path, n_nodes=args.nodes)
    authority = TokenAuthority(secret)
    app = _make_app(args)
    gateway = RestGateway(
        authority=authority,
        leader=drill.plane.leader,
        dbd=drill.dbd,
        registry=app.model_registry_service,
        log=_Tee(os.path.join(args.workspace, "chronus.log")),
    )
    daemon = RestdServer(
        gateway,
        host=args.host,
        port=args.port,
        log=_Tee(os.path.join(args.workspace, "chronus.log")),
        max_requests=args.max_requests,
    ).start()
    pump = SimPump(drill.sim, gateway.lock, step_s=args.sim_step).start()
    print(f"chronus restd: listening on {daemon.url} (slurm/v1 + chronus/v1)")
    if generated:
        # no durable secret was configured: hand the operator a ready
        # admin token so the daemon is immediately usable
        token = authority.issue("operator", "admin", ttl_s=24 * 3600.0)
        print(f"chronus restd: admin token (24h): {token}")
    try:
        if daemon._accept_thread is not None:
            while daemon._accept_thread.is_alive():
                daemon._accept_thread.join(timeout=0.5)
    except KeyboardInterrupt:
        print("chronus restd: interrupted, shutting down")
    finally:
        pump.stop()
        daemon.stop()
        drill.close()
    print(f"chronus restd: exiting after {daemon.requests_served} requests")
    return 0


def _cmd_shutdown(args: argparse.Namespace) -> int:
    from repro.core.domain.errors import ProtocolError
    from repro.serving.transport import UnixSocketTransport

    socket_path = _socket_path(args)
    try:
        UnixSocketTransport(socket_path).shutdown()
    except (OSError, ProtocolError) as exc:
        raise ChronusError(
            f"no prediction daemon reachable at {socket_path} ({exc})"
        ) from exc
    print(f"daemon at {socket_path} acknowledged shutdown")
    return 0


def _run_metrics_demo(args: argparse.Namespace) -> None:
    """A compact end-to-end run exercising every instrumented layer.

    Quickstart in miniature: a small benchmark sweep (IPMI sampling), model
    training + pre-loading, eco-plugin submissions through sbatch so the
    predict path, the scheduler and the simulator all record metrics, and
    two short chaos drills so the resilience counters (retry_attempts_total,
    breaker_state, ipmi_degraded_samples_total, ...) show up too.
    """
    from repro.slurm.batch_script import build_script
    from repro.slurm.commands import parse_sbatch_output
    from repro.slurm.config import SlurmConfig

    cluster = SimCluster(
        seed=args.seed,
        config=SlurmConfig.parse("JobSubmitPlugins=eco\n"),
        hpcg_duration_s=120.0,
    )
    quiet = _Tee(os.path.join(args.workspace, "chronus.log"), quiet=True)
    app = ChronusApp(cluster, args.workspace, log=quiet)
    sweep = [
        Configuration(cores, tpc, freq)
        for cores in (16, 32)
        for freq in (1_500_000, 2_500_000)
        for tpc in (1, 2)
    ]
    app.benchmark_service.run_benchmarks(sweep, clock=app.clock)
    meta = app.init_model_service.run("brute-force", 1, created_at=app.clock())
    app.load_model_service.run(meta.model_id)
    app.enable_eco_plugin()
    for i in range(3):
        script = build_script(
            32, 2_500_000, 1, HPCG_BINARY,
            comment="chronus", job_name=f"metrics-demo-{i}",
        )
        job_id = parse_sbatch_output(cluster.commands.sbatch(script))
        cluster.ctld.wait_for_job(job_id)
    from repro.faults.scenarios import run_storm_scenario, run_sweep_scenario

    run_sweep_scenario("flaky-ipmi", points=2, seed=args.seed, duration_s=30.0)
    run_storm_scenario("chronus-timeout", jobs=5, seed=args.seed)


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.from_file:
        try:
            with open(_snapshot_path(args)) as fh:
                snap = telemetry.snapshot_from_json(fh.read())
        except (OSError, ValueError) as exc:
            raise ChronusError(
                f"no usable telemetry snapshot at {_snapshot_path(args)} ({exc}); "
                "run a chronus command first or drop --from-file"
            ) from exc
    else:
        os.makedirs(args.workspace, exist_ok=True)
        _run_metrics_demo(args)
        snap = telemetry.snapshot()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(telemetry.snapshot_to_json(snap))
    if args.format == "prometheus":
        print(telemetry.snapshot_to_prometheus(snap), end="")
    elif args.format == "summary":
        print(TelemetryView(snap).render())
    else:
        print(telemetry.snapshot_to_json(snap))
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro import faults
    from repro.faults.scenarios import (
        run_failover_scenario,
        run_restd_scenario,
        run_storm_scenario,
        run_sweep_scenario,
    )

    if args.faults_command == "list":
        print("Fault sites:")
        for site, what in sorted(faults.SITES.items()):
            print(f"  {site:<18} {what}")
        print("\nProfiles (chronus faults run <profile> / CHRONUS_FAULTS=<profile>):")
        for name in sorted(faults.PROFILES):
            desc = faults.PROFILE_DESCRIPTIONS.get(name, "")
            print(f"  {name:<18} {faults.PROFILES[name]:<32} {desc}")
        return 0
    if args.scenario == "storm":
        result = run_storm_scenario(args.profile, jobs=args.jobs, seed=args.seed)
    elif args.scenario == "failover":
        result = run_failover_scenario(args.profile, jobs=args.jobs, seed=args.seed)
    elif args.scenario == "restd":
        result = run_restd_scenario(args.profile, requests=args.jobs, seed=args.seed)
    else:
        result = run_sweep_scenario(args.profile, points=args.points, seed=args.seed)
    print(result.render())
    return 0 if result.ok else 1


def _render_rollup_row(roll: dict) -> str:
    models = ",".join(roll["models"]) or "-"
    return (
        f"  {roll['workflow_id']:<16} jobs={roll['jobs']:<4} "
        f"done={roll['completed']:<4} failed={roll['failed']:<4} "
        f"pending={roll['pending']:<4} running={roll['running']:<4} "
        f"attempts={roll['attempts']:<4} "
        f"energy={roll['total_energy_j']:.1f}J models={models}"
    )


def _journal_topology(statesave) -> list:
    """The ``[[hostname, total_cores], ...]`` the journal was written on.

    The genesis record pins it; after compaction (which may drop genesis)
    the newest snapshot's cluster capture carries the same facts.
    """
    for rec in statesave.read_records():
        if rec.type == "genesis":
            return [list(entry) for entry in rec.data["nodes"]]
        break  # genesis is always the first surviving record
    snap = statesave.load_latest_snapshot()
    if snap is not None:
        return [[n["name"], n["total"]] for n in snap["state"]["cluster"]]
    raise ChronusError(
        f"state-save at {statesave.path!r} has no genesis record or "
        "snapshot; cannot determine the cluster topology to restore"
    )


def _cmd_workflow(args: argparse.Namespace) -> int:
    from repro.core.domain.errors import ProtocolError
    from repro.slurm.dbd import SlurmDbd
    from repro.slurm.statesave import StateSave

    if not os.path.isdir(args.statesave):
        raise ChronusError(f"no state-save directory at {args.statesave!r}")
    statesave = StateSave(args.statesave, fsync=False)
    if args.workflow_command == "reschedule":
        # restore a controller over the journal and requeue through it, so
        # the reschedule record lands in the same durable stream the live
        # control plane (and slurmdbd) replays
        from repro.slurm.cluster import SimCluster
        from repro.slurm.controller import Slurmctld, SubmitError

        topology = _journal_topology(statesave)
        fresh = SimCluster(seed=args.seed, n_nodes=len(topology))
        rebuilt = [[n.hostname, n.node.total_cores] for n in fresh.ctld.nodes]
        if rebuilt != topology:
            raise ChronusError(
                f"journal topology {topology!r} cannot be rebuilt with the "
                "default node spec; reschedule through the live control "
                "plane instead"
            )
        try:
            ctld = Slurmctld.restore(
                fresh.sim, fresh.ctld.config, fresh.ctld.nodes, statesave,
                attach=False,
            )
        except ValueError as exc:
            raise ChronusError(f"cannot restore state-save: {exc}") from exc
        try:
            attempt = ctld.reschedule(args.job_id)
        except KeyError:
            raise ProtocolError(f"unknown job {args.job_id}") from None
        except SubmitError as exc:
            raise ProtocolError(str(exc)) from None
        job = ctld.jobs[args.job_id]
        last = job.attempts[-1]
        print(
            f"job {args.job_id} requeued (attempt {attempt}, "
            f"model {last['model_id']}:v{last['model_version']})"
        )
        return 0
    dbd = SlurmDbd(statesave)
    dbd.pump()
    rollups = dbd.workflows()
    if args.workflow_command == "list":
        if not rollups:
            print("no workflows recorded")
            return 0
        print(f"Workflows ({len(rollups)}):")
        for name in sorted(rollups):
            print(_render_rollup_row(rollups[name]))
        return 0
    roll = rollups.get(args.workflow_id)
    if roll is None:
        raise ProtocolError(
            f"unknown workflow {args.workflow_id!r}; "
            f"known: {sorted(rollups) or '(none)'}"
        )
    print(_render_rollup_row(roll))
    jobs = dbd.jobs()
    print("  members:")
    for job_id in roll["job_ids"]:
        job = jobs[job_id]
        print(
            f"    job {job_id:<6} {job.state.value:<10} "
            f"attempts={len(job.attempts)} "
            f"energy={job.consumed_energy_j:.1f}J "
            f"reason={job.pending_reason}"
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import SavingsReport

    app = _make_app(args)
    if args.system == -1:
        print(render_systems_table(app.repository.list_systems()))
        return 0
    rows = app.repository.benchmarks_for_system(args.system, args.application)
    report = SavingsReport.from_benchmarks(
        rows,
        duty_cycle=args.duty_cycle,
        price_eur_per_mwh=args.price,
        carbon_g_per_kwh=args.carbon,
    )
    print(report.render())
    return 0


_COMMANDS = {
    "benchmark": _cmd_benchmark,
    "report": _cmd_report,
    "init-model": _cmd_init_model,
    "load-model": _cmd_load_model,
    "models": _cmd_models,
    "slurm-config": _cmd_slurm_config,
    "set": _cmd_set,
    "metrics": _cmd_metrics,
    "faults": _cmd_faults,
    "workflow": _cmd_workflow,
    "serve": _cmd_serve,
    "restd": _cmd_restd,
    "shutdown": _cmd_shutdown,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ChronusError as exc:
        # the same envelope the REST gateway and the socket daemons
        # answer with: stable code, then exit 2 for user errors, 1 for
        # internal/transient ones
        from repro.api.errors import envelope_for

        envelope = envelope_for(exc)
        print(f"error[{envelope.code}]: {exc}", file=sys.stderr)
        return envelope.exit_code
    finally:
        _persist_snapshot(args)


if __name__ == "__main__":
    sys.exit(main())
