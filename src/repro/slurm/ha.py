"""slurmctld high availability: heartbeat leases and fenced failover.

Mirrors the slurm-charms decomposition ROADMAP asks for: a primary and a
backup ``slurmctld`` share one StateSaveLocation.  The leader renews a
lease there every heartbeat; the backup watches the lease and, when it
expires (leader dead or partitioned), **takes over**:

1. bump the state-save epoch *first* — from this instant every journal
   or lease write by the old leader raises ``StaleEpochError`` (fencing;
   a zombie primary cannot corrupt the new leader's state even if it is
   still running),
2. :meth:`Slurmctld.restore` the exact pre-crash controller from the
   snapshot + journal suffix (``attach=True``: the compute nodes kept
   their job steps, orphans are reconciled),
3. claim the lease under the new epoch and start serving.

Clients re-resolve the leader through :class:`HaControlPlane` (the
router role): a submit that dies mid-crash is retried against the new
leader after a **by-name recheck**, so a submit whose journal record was
durable but whose ack was lost is not duplicated, while one whose record
was torn is resubmitted — zero lost, zero duplicated jobs, which
:func:`run_failover_drill` asserts under a mid-storm SIGKILL.

Heartbeats ride :meth:`Simulator.call_every` daemon events, so an HA
pair never keeps an otherwise-finished simulation alive.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import faults, telemetry
from repro.core.domain.errors import (
    ControllerCrashError,
    NoLeaderError,
    StaleEpochError,
)
from repro.hardware.node import SimulatedNode, Workload
from repro.simkernel.engine import Simulator
from repro.slurm.config import SlurmConfig
from repro.slurm.controller import Slurmctld
from repro.slurm.dbd import SlurmDbd
from repro.slurm.job import JobDescriptor
from repro.slurm.nodemgr import ApplicationRegistry, Slurmd
from repro.slurm.statesave import StateSave

__all__ = [
    "SlurmctldPeer",
    "HaControlPlane",
    "FailoverReport",
    "DrillPlane",
    "build_drill_plane",
    "run_failover_drill",
    "DRILL_BINARY",
]


class SlurmctldPeer:
    """One slurmctld daemon in a primary/backup pair."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        statesave: StateSave,
        config: SlurmConfig,
        slurmds: list[Slurmd],
        *,
        heartbeat_s: float = 1.0,
        lease_s: float = 3.0,
        setup: Optional[Callable[[Slurmctld], None]] = None,
    ) -> None:
        self.name = name
        self.sim = sim
        self.statesave = statesave
        self.config = config
        self.slurmds = slurmds
        self.heartbeat_s = heartbeat_s
        self.lease_s = lease_s
        #: re-run on every (re)start, like re-reading slurm.conf: plugin
        #: registration and any other controller setup
        self.setup = setup
        self.role = "idle"  # idle | primary | backup | fenced | dead
        self.ctld: Optional[Slurmctld] = None
        self._ticker = None
        self.takeovers = 0
        self.heartbeats_missed = 0
        self.took_over_at: Optional[float] = None
        self.recovery_wall_s: Optional[float] = None

    # ------------------------------------------------------------------
    def start(self, as_leader: bool) -> None:
        if as_leader:
            self.ctld = Slurmctld(
                self.sim, self.config, self.slurmds,
                statesave=self.statesave, name=self.name,
            )
            if self.setup is not None:
                self.setup(self.ctld)
            self.role = "primary"
            self._renew_lease()
        else:
            self.role = "backup"
        self._ticker = self.sim.call_every(
            self.heartbeat_s, self._tick, name=f"{self.name}-heartbeat"
        )

    def kill(self) -> None:
        """Simulated SIGKILL: the daemon stops instantly, no cleanup."""
        if self.ctld is not None:
            self.ctld.halt()
        if self._ticker is not None:
            self._ticker.cancel()
            self._ticker = None
        self.role = "dead"

    def demote(self) -> None:
        """A fenced ex-leader steps down (StaleEpochError observed)."""
        if self.ctld is not None:
            self.ctld.halt()
        if self._ticker is not None:
            self._ticker.cancel()
            self._ticker = None
        self.role = "fenced"

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if self.role in ("dead", "fenced"):
            return
        if faults.fire("peer.partition"):
            # cut off from the state-save location for this beat
            self.heartbeats_missed += 1
            telemetry.counter("ha_heartbeats_missed_total").inc()
            return
        if self.role == "primary":
            if self.ctld is not None and self.ctld.halted:
                # our controller died under us (crash fault): stop
                # renewing so the backup can take over at lease expiry
                self.role = "dead"
                if self._ticker is not None:
                    self._ticker.cancel()
                    self._ticker = None
                return
            self._renew_lease()
        elif self.role == "backup":
            lease = self.statesave.read_lease()
            if lease is None or lease.expired(self.sim.now):
                self.takeover()

    def _renew_lease(self) -> None:
        try:
            self.statesave.write_lease(
                self.name, self.ctld.epoch, self.sim.now + self.lease_s
            )
        except StaleEpochError:
            self.demote()

    def takeover(self) -> None:
        """Fenced takeover: bump epoch, restore, claim the lease."""
        started = time.perf_counter()
        # fence FIRST: from here the old leader's writes are rejected,
        # so there is no window where two epochs can append
        new_epoch = self.statesave.bump_epoch()
        # re-open the journal like a fresh daemon: drops any torn tail
        # the dead leader left, so our appends start on a record boundary
        self.statesave.recover()
        self.ctld = Slurmctld.restore(
            self.sim, self.config, self.slurmds, self.statesave,
            epoch=new_epoch, attach=True, name=self.name,
        )
        if self.setup is not None:
            self.setup(self.ctld)
        self.statesave.write_lease(
            self.name, new_epoch, self.sim.now + self.lease_s
        )
        self.role = "primary"
        self.takeovers += 1
        self.took_over_at = self.sim.now
        self.recovery_wall_s = time.perf_counter() - started
        telemetry.counter("ha_takeovers_total").inc()
        telemetry.histogram("ha_recovery_seconds").observe(self.recovery_wall_s)
        telemetry.log_event(
            "ha.takeover", peer=self.name, epoch=new_epoch,
            replayed=self.ctld.last_restore_replayed, sim_time=self.sim.now,
        )


class HaControlPlane:
    """Client-side leader resolution over a peer set (the router role)."""

    def __init__(self, peers: list[SlurmctldPeer], statesave: StateSave) -> None:
        self.peers = {p.name: p for p in peers}
        self.statesave = statesave

    def leader(self) -> Slurmctld:
        """The controller currently holding a live lease.

        Raises :class:`NoLeaderError` between a crash and the backup's
        takeover — callers retry, exactly like sbatch against a
        mid-failover slurmctld pair.
        """
        lease = self.statesave.read_lease()
        if lease is None:
            raise NoLeaderError("no slurmctld lease")
        peer = self.peers.get(lease.leader)
        if peer is None or peer.ctld is None or peer.ctld.halted:
            raise NoLeaderError(f"lease holder {lease.leader!r} is not serving")
        if lease.expired(peer.sim.now):
            raise NoLeaderError(f"lease for {lease.leader!r} expired")
        return peer.ctld


# ----------------------------------------------------------------------
# chaos drill: SIGKILL the leader mid-storm
# ----------------------------------------------------------------------

DRILL_BINARY = "/opt/drill/bin/sleepy"


class _DrillWorkload(Workload):
    """Deterministic fixed-runtime workload for failover drills.

    ``runtime_s`` is a pure function of the job id, so a cold-restarted
    step gets exactly the runtime the journal expects.
    """

    def __init__(self, cores: int, threads_per_core: int, runtime_s: float) -> None:
        self.name = "drill"
        self.cores = cores
        self.threads_per_core = threads_per_core
        self.runtime_s = runtime_s

    def compute_fraction(self, elapsed_s: float) -> float:
        return 0.5

    def bandwidth_gbs(self, elapsed_s: float) -> float:
        return 0.0

    def render_output(self) -> str:
        return f"drill step done ({self.runtime_s:.3f}s)\n"


def _drill_runtime(job_id: int, base_s: float, spread_s: float) -> float:
    # Weyl-style mix: deterministic, well spread, replayable
    return base_s + ((job_id * 2654435761) % 1024) / 1024.0 * spread_s


def _drill_factory(desc: JobDescriptor, job_id: int) -> _DrillWorkload:
    return _DrillWorkload(
        cores=desc.num_tasks if desc.nodes == 1 else desc.tasks_per_node,
        threads_per_core=desc.threads_per_core,
        runtime_s=_drill_runtime(job_id, 5.0, 30.0),
    )


@dataclass
class FailoverReport:
    """Outcome of one SIGKILL-the-leader drill."""

    jobs_total: int
    submitted: int
    completed: int
    lost: int
    duplicated: int
    retries: int
    crashes_observed: int
    takeovers: int
    fenced_writes: int
    replayed_records: int
    journal_appends: int
    torn_tails: int
    recovery_wall_s: float
    outage_sim_s: float
    accounting_rows: int
    dbd_rows: int
    dbd_duplicates_dropped: int
    dbd_bootstraps: int
    final_leader: str
    final_epoch: int
    sim_time: float
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [
            f"failover drill: {self.jobs_total} jobs, "
            f"{self.takeovers} takeover(s), epoch {self.final_epoch}",
            f"  submitted={self.submitted} completed={self.completed} "
            f"lost={self.lost} duplicated={self.duplicated} retries={self.retries}",
            f"  journal: {self.journal_appends} appends, "
            f"{self.replayed_records} replayed, {self.torn_tails} torn tail(s)",
            f"  recovery: {self.recovery_wall_s * 1e3:.1f} ms wall, "
            f"{self.outage_sim_s:.1f} s simulated outage",
            f"  accounting: ctld={self.accounting_rows} rows, "
            f"dbd={self.dbd_rows} rows "
            f"({self.dbd_duplicates_dropped} duplicate(s) dropped)",
        ]
        if self.failures:
            lines.append("  FAILURES: " + "; ".join(self.failures))
        else:
            lines.append("  OK: zero lost, zero duplicated, accounting consistent")
        return "\n".join(lines)


@dataclass
class DrillPlane:
    """A ready-to-drive two-peer control plane on the drill workload.

    Built by :func:`build_drill_plane`; shared by the failover drill, the
    restd chaos scenario and the ``restd`` gate so they all exercise
    the same HA wiring (one state-save, fenced takeover, journal-tailing
    accounting) instead of three hand-rolled variants.
    """

    sim: Simulator
    statesave: StateSave
    peers: "list[SlurmctldPeer]"
    plane: HaControlPlane
    dbd: SlurmDbd
    slurmds: "list[Slurmd]"
    heartbeat_s: float
    lease_s: float

    def leader_peer(self) -> SlurmctldPeer:
        for peer in self.peers:
            if peer.role == "primary":
                return peer
        raise NoLeaderError("no peer is primary")

    def restart_dead_peers(self) -> None:
        """systemd-style supervision: dead/fenced daemons rejoin as backup."""
        for peer in self.peers:
            if peer.role in ("dead", "fenced"):
                peer.start(as_leader=False)

    def close(self) -> None:
        """Release the shared state-save's journal handle.

        Whoever builds a drill plane closes it when done: the state-save
        directory is usually removed next, and an open ``journal.log``
        would outlive it.
        """
        self.statesave.close()


def build_drill_plane(
    statesave_path: str,
    *,
    n_nodes: int = 4,
    heartbeat_s: float = 1.0,
    lease_s: float = 3.0,
    snapshot_interval: int = 0,
    fsync: bool = False,
    config: Optional[SlurmConfig] = None,
    setup: Optional[Callable[[Slurmctld], None]] = None,
) -> DrillPlane:
    """Wire up a primary/backup slurmctld pair over one state-save.

    The drill binary (:data:`DRILL_BINARY`) is pre-registered, the dbd
    pumps the journal every other heartbeat, and peer A starts as leader.
    ``config`` overrides the default deferred-scheduling slurm.conf (the
    ``workflow`` gate sets ``RescheduleRetries``); ``setup`` runs against
    every (re)started controller — including the backup's takeover — so
    plugin chains (e.g. eco + a live prediction provider) survive
    failover exactly like re-reading slurm.conf does.
    """
    sim = Simulator()
    registry = ApplicationRegistry()
    registry.register(DRILL_BINARY, _drill_factory)
    nodes = [
        SimulatedNode(sim, hostname=f"node{i + 1:03d}")
        for i in range(n_nodes)
    ]
    slurmds = [Slurmd(n, registry) for n in nodes]
    if config is None:
        config = SlurmConfig(sched_defer=True)
    statesave = StateSave(
        statesave_path, fsync=fsync, snapshot_interval=snapshot_interval
    )
    peer_a = SlurmctldPeer(
        "ctld-a", sim, statesave, config, slurmds,
        heartbeat_s=heartbeat_s, lease_s=lease_s, setup=setup,
    )
    peer_b = SlurmctldPeer(
        "ctld-b", sim, statesave, config, slurmds,
        heartbeat_s=heartbeat_s, lease_s=lease_s, setup=setup,
    )
    plane = HaControlPlane([peer_a, peer_b], statesave)
    dbd = SlurmDbd(statesave)
    peer_a.start(as_leader=True)
    peer_b.start(as_leader=False)
    sim.call_every(heartbeat_s * 2, dbd.pump, name="dbd-pump")
    return DrillPlane(
        sim=sim,
        statesave=statesave,
        peers=[peer_a, peer_b],
        plane=plane,
        dbd=dbd,
        slurmds=slurmds,
        heartbeat_s=heartbeat_s,
        lease_s=lease_s,
    )


def run_failover_drill(
    *,
    jobs: int = 100,
    n_nodes: int = 4,
    statesave_path: str,
    seed: int = 0,
    kill_at_fraction: Optional[float] = 0.5,
    fault_profile: Optional[str] = None,
    heartbeat_s: float = 1.0,
    lease_s: float = 3.0,
    snapshot_interval: int = 0,
    fsync: bool = False,
    submit_interval_s: float = 0.5,
) -> FailoverReport:
    """SIGKILL the leader mid-storm; assert zero lost/duplicated jobs.

    A two-peer control plane serves a ``jobs``-job submit storm.  At
    ``kill_at_fraction`` of the storm the leader is killed (and/or crash
    faults from ``fault_profile`` fire at journal appends); clients
    retry against the re-resolved leader with a by-name dedup recheck.
    An independent :class:`SlurmDbd` tails the shared journal throughout.
    """
    if fault_profile:
        faults.configure(fault_profile, seed=seed)
    drill = build_drill_plane(
        statesave_path,
        n_nodes=n_nodes,
        heartbeat_s=heartbeat_s,
        lease_s=lease_s,
        snapshot_interval=snapshot_interval,
        fsync=fsync,
    )
    try:
        return _failover_storm(
            drill,
            jobs=jobs,
            kill_at_fraction=kill_at_fraction,
            fault_profile=fault_profile,
            submit_interval_s=submit_interval_s,
        )
    finally:
        drill.close()


def _failover_storm(
    drill: DrillPlane,
    *,
    jobs: int,
    kill_at_fraction: Optional[float],
    fault_profile: Optional[str],
    submit_interval_s: float,
) -> FailoverReport:
    """The body of :func:`run_failover_drill`, on an already built plane."""
    sim, statesave, plane, dbd = drill.sim, drill.statesave, drill.plane, drill.dbd
    heartbeat_s, lease_s = drill.heartbeat_s, drill.lease_s
    peer_a, peer_b = drill.peers

    max_cores = min(s.node.total_cores for s in drill.slurmds)
    job_ids: dict[int, int] = {}  # storm index -> job id on the final leader
    stats = {"retries": 0, "crashes": 0, "crash_sim_t": None}

    def descriptor(i: int) -> JobDescriptor:
        return JobDescriptor(
            name=f"drill-{i:05d}",
            num_tasks=1 + (i * 7) % max(1, max_cores // 2),
            binary=DRILL_BINARY,
            time_limit_s=120,
        )

    def note_crash() -> None:
        stats["crashes"] += 1
        if stats["crash_sim_t"] is None:
            stats["crash_sim_t"] = sim.now

    def submit(i: int, retry: bool) -> None:
        if retry:
            stats["retries"] += 1
        try:
            ctld = plane.leader()
        except NoLeaderError:
            sim.call_in(heartbeat_s, lambda: submit(i, retry=True))
            return
        if retry:
            # the failed attempt's journal record may have been durable
            # (ack lost): resubmitting blindly would duplicate the job
            existing = ctld.job_by_name(f"drill-{i:05d}")
            if existing is not None:
                job_ids[i] = existing
                return
        try:
            job_ids[i] = ctld.submit(descriptor(i))
        except (ControllerCrashError, StaleEpochError):
            note_crash()
            sim.call_in(heartbeat_s, lambda: submit(i, retry=True))

    for i in range(jobs):
        sim.call_at(
            i * submit_interval_s,
            lambda i=i: submit(i, retry=False),
            name=f"submit-{i}",
        )
    if kill_at_fraction is not None:
        kill_t = jobs * submit_interval_s * kill_at_fraction

        def kill_leader() -> None:
            leader = peer_a if peer_a.role == "primary" else peer_b
            note_crash()
            leader.kill()

        sim.call_at(kill_t, kill_leader, name="sigkill-leader")

    def all_done() -> bool:
        if len(job_ids) < jobs:
            return False
        try:
            ctld = plane.leader()
        except NoLeaderError:
            return False
        return all(
            ctld.jobs[jid].state.is_terminal
            for jid in job_ids.values()
            if jid in ctld.jobs
        )

    # drive the storm; ControllerCrashError unwinding out of run() is the
    # leader process dying mid-event — the simulation itself survives
    horizon_step = max(lease_s, heartbeat_s * 2)
    for _ in range(int(jobs * submit_interval_s / horizon_step) + 10_000):
        try:
            sim.run(until=sim.now + horizon_step)
        except (ControllerCrashError, StaleEpochError):
            note_crash()
        # systemd-style supervision: a dead or fenced daemon is restarted
        # and rejoins as backup (it only serves again via takeover)
        for peer in (peer_a, peer_b):
            if peer.role in ("dead", "fenced"):
                peer.start(as_leader=False)
        if all_done():
            break

    try:
        final = plane.leader()
    finally:
        if fault_profile:
            faults.reset()
    dbd.pump()

    terminal = [
        jid for jid in job_ids.values()
        if jid in final.jobs and final.jobs[jid].state.is_terminal
    ]
    names = [j.descriptor.name for j in final.jobs.values()]
    duplicated = len(names) - len(set(names))
    acct_rows = len(final.accounting)
    first_takeover_at = min(
        (p.took_over_at for p in (peer_a, peer_b) if p.took_over_at is not None),
        default=None,
    )
    outage = 0.0
    if stats["crash_sim_t"] is not None and first_takeover_at is not None:
        outage = max(0.0, first_takeover_at - stats["crash_sim_t"])

    failures: list[str] = []
    if len(job_ids) < jobs:
        failures.append(f"only {len(job_ids)}/{jobs} submissions landed")
    if len(terminal) < len(job_ids):
        failures.append(f"{len(job_ids) - len(terminal)} job(s) lost")
    if duplicated:
        failures.append(f"{duplicated} duplicated job(s)")
    if acct_rows != len(set(job_ids.values())):
        failures.append(
            f"accounting rows {acct_rows} != jobs {len(set(job_ids.values()))}"
        )
    if len(dbd.db) != acct_rows:
        failures.append(f"dbd rows {len(dbd.db)} != ctld rows {acct_rows}")
    if abs(dbd.db.total_energy_j() - final.accounting.total_energy_j()) > 1e-6:
        failures.append("dbd energy total diverged from controller accounting")
    takeovers = peer_a.takeovers + peer_b.takeovers
    if kill_at_fraction is not None:
        # with crash faults layered on top, extra takeovers are legitimate
        if fault_profile is None and takeovers != 1:
            failures.append(f"expected exactly 1 takeover, saw {takeovers}")
        elif takeovers < 1:
            failures.append("leader was killed but no takeover happened")

    from repro.faults.scenarios import metric_total

    fenced = int(metric_total(telemetry.snapshot(), "ha_fenced_writes_total"))

    return FailoverReport(
        jobs_total=jobs,
        submitted=len(job_ids),
        completed=len(terminal),
        lost=len(job_ids) - len(terminal),
        duplicated=duplicated,
        retries=stats["retries"],
        crashes_observed=stats["crashes"],
        takeovers=takeovers,
        fenced_writes=fenced,
        replayed_records=(final.last_restore_replayed if takeovers else 0),
        journal_appends=statesave.last_seq,
        torn_tails=statesave.torn_tail_records,
        recovery_wall_s=max(
            (p.recovery_wall_s for p in (peer_a, peer_b)
             if p.recovery_wall_s is not None),
            default=0.0,
        ),
        outage_sim_s=outage,
        accounting_rows=acct_rows,
        dbd_rows=len(dbd.db),
        dbd_duplicates_dropped=dbd.duplicates_dropped,
        dbd_bootstraps=dbd.bootstraps,
        final_leader=final.name,
        final_epoch=final.epoch,
        sim_time=sim.now,
        failures=failures,
    )
