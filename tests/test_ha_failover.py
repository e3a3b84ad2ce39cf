"""HA control plane: fenced failover, zombie rejection, idempotent accounting.

The headline drill is the ISSUE's acceptance scenario: a two-peer
slurmctld pair serving a submit storm, the leader SIGKILL'd mid-storm —
**zero jobs lost, zero duplicated**, accounting bit-consistent between
the controller and the journal-fed slurmdbd.
"""

import gc
import warnings
from unittest import mock

import pytest

from repro import faults, telemetry
from repro.core.domain.errors import ControllerCrashError, StaleEpochError
from repro.slurm.accounting import AccountingDatabase, JobRecord
from repro.slurm.cluster import HPCG_BINARY, SimCluster
from repro.slurm.controller import Slurmctld
from repro.slurm.dbd import SlurmDbd
from repro.slurm.ha import (
    HaControlPlane,
    SlurmctldPeer,
    _failover_storm,
    build_drill_plane,
    run_failover_drill,
)
from repro.slurm.job import JobDescriptor


def _metric(name: str) -> float:
    from repro.faults.scenarios import metric_total

    return metric_total(telemetry.snapshot(), name)


class TestFailoverDrill:
    def test_sigkill_leader_zero_lost_zero_duplicated(self, tmp_path):
        report = run_failover_drill(
            jobs=40, statesave_path=str(tmp_path), kill_at_fraction=0.5
        )
        assert report.ok, report.render()
        assert report.submitted == 40
        assert report.completed == 40
        assert report.lost == 0
        assert report.duplicated == 0
        assert report.takeovers == 1
        assert report.replayed_records > 0
        assert report.dbd_rows == report.accounting_rows == 40

    def test_no_kill_baseline_never_fails_over(self, tmp_path):
        report = run_failover_drill(
            jobs=20, statesave_path=str(tmp_path), kill_at_fraction=None
        )
        assert report.ok, report.render()
        assert report.takeovers == 0
        assert report.retries == 0
        assert report.completed == 20

    def test_drill_closes_its_state_save(self, tmp_path):
        gc.collect()  # earlier tests' garbage must not land in this record
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            report = run_failover_drill(jobs=20, statesave_path=str(tmp_path))
            gc.collect()
        assert report.ok, report.render()
        leaked = [
            str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning) and str(tmp_path) in str(w.message)
        ]
        assert leaked == []

    def test_drill_under_fault_profile(self, tmp_path):
        # the registered chaos profile: crash + torn-write + partition
        report = run_failover_drill(
            jobs=40,
            statesave_path=str(tmp_path),
            kill_at_fraction=0.5,
            fault_profile="ctld.crash=0.02:1,journal.torn_write=0.02:1,peer.partition=0.05",
            snapshot_interval=15,
        )
        assert report.ok, report.render()
        assert report.takeovers >= 1
        assert report.completed == 40

    @staticmethod
    def _ack_lost_storm(tmp_path):
        """The 20-job storm without a kill, where the controller crashes
        right after drill-00005's submit record is durable: its ack is
        lost, so the client retries a job the journal already holds."""
        drill = build_drill_plane(str(tmp_path))
        crashed = []

        def crash_after_durable_submit(rec) -> None:
            if (
                not crashed and rec.type == "submit"
                and rec.data["descriptor"]["name"] == "drill-00005"
            ):
                crashed.append(rec.seq)
                raise ControllerCrashError("crashed after a durable submit")

        drill.statesave.on_append = crash_after_durable_submit
        try:
            report = _failover_storm(
                drill, jobs=20, kill_at_fraction=None, fault_profile=None,
                submit_interval_s=0.5,
            )
        finally:
            drill.close()
        assert len(crashed) == 1
        return report

    def test_ack_lost_retry_adopts_the_durable_job(self, tmp_path):
        found = []
        by_name = Slurmctld.job_by_name

        def recheck(ctld, name):
            job_id = by_name(ctld, name)
            if job_id is not None:
                found.append(name)
            return job_id

        with mock.patch.object(Slurmctld, "job_by_name", recheck):
            report = self._ack_lost_storm(tmp_path)
        assert report.ok, report.render()
        assert report.takeovers == 1
        assert report.duplicated == 0
        # the retry's by-name recheck found exactly the job whose ack was lost
        assert found == ["drill-00005"]

    def test_ack_lost_retry_without_the_recheck_duplicates(self, tmp_path):
        # the drill's checks see a blind resubmit of the durable job
        with mock.patch.object(Slurmctld, "job_by_name", return_value=None):
            report = self._ack_lost_storm(tmp_path)
        assert report.duplicated == 1
        assert "1 duplicated job(s)" in report.failures
        assert "accounting rows 21 != jobs 20" in report.failures

    def test_durable_submit_with_lost_ack_survives_takeover(self, open_statesave):
        # ctld.crash fires AFTER the append is durable: the ack is lost
        # but the record is not — the new leader must restore the job, so
        # the client's by-name recheck dedups the retry instead of
        # resubmitting
        ss = open_statesave()
        cluster = SimCluster(statesave=ss, hpcg_duration_s=30)
        faults.configure("ctld.crash=1:1", seed=0)
        try:
            with pytest.raises(ControllerCrashError):
                cluster.ctld.submit(
                    JobDescriptor(name="retry-me", num_tasks=4, binary=HPCG_BINARY)
                )
        finally:
            faults.reset()
        assert cluster.ctld.halted
        new_epoch = ss.bump_epoch()
        ss.recover()
        fresh = SimCluster(hpcg_duration_s=30)
        restored = Slurmctld.restore(
            fresh.sim, fresh.ctld.config, fresh.ctld.nodes, ss,
            epoch=new_epoch, attach=False,
        )
        names = [j.descriptor.name for j in restored.jobs.values()]
        assert names.count("retry-me") == 1


class TestZombieFencing:
    def test_fenced_submit_raises_and_halts(self, open_statesave):
        ss = open_statesave()
        cluster = SimCluster(statesave=ss, hpcg_duration_s=30)
        before = _metric("ha_fenced_writes_total")
        ss.bump_epoch()  # a peer took over behind our back
        with pytest.raises(StaleEpochError):
            cluster.ctld.submit(
                JobDescriptor(name="zombie", num_tasks=4, binary=HPCG_BINARY)
            )
        assert cluster.ctld.halted
        assert _metric("ha_fenced_writes_total") > before
        # the zombie's journal never saw the rejected submit
        assert all(r.type == "genesis" for r in ss.read_records())

    def test_peer_demotes_when_lease_renewal_is_fenced(self, open_statesave):
        ss = open_statesave()
        from repro.simkernel.engine import Simulator
        from repro.slurm.config import SlurmConfig
        from repro.slurm.ha import DRILL_BINARY, _drill_factory
        from repro.slurm.nodemgr import ApplicationRegistry, Slurmd
        from repro.hardware.node import SimulatedNode

        sim = Simulator()
        registry = ApplicationRegistry()
        registry.register(DRILL_BINARY, _drill_factory)
        slurmds = [Slurmd(SimulatedNode(sim, hostname="node001"), registry)]
        config = SlurmConfig(sched_defer=True)
        peer = SlurmctldPeer("ctld-a", sim, ss, config, slurmds)
        peer.start(as_leader=True)
        ss.bump_epoch()  # someone else fenced us
        sim.call_at(5.0, lambda: None)
        sim.run()
        assert peer.role == "fenced"
        plane = HaControlPlane([peer], ss)
        from repro.core.domain.errors import NoLeaderError

        with pytest.raises(NoLeaderError):
            plane.leader()


class TestDbdIdempotency:
    def _completed_cluster(self, open_statesave, n_jobs=3):
        ss = open_statesave()
        cluster = SimCluster(statesave=ss, hpcg_duration_s=30)
        for i in range(n_jobs):
            cluster.ctld.submit(
                JobDescriptor(
                    name=f"acct-{i}", num_tasks=8, binary=HPCG_BINARY,
                    time_limit_s=600,
                )
            )
        cluster.sim.run()
        assert len(cluster.accounting) == n_jobs
        return ss, cluster

    def test_redelivered_finish_does_not_double_count_energy(self, open_statesave):
        ss, cluster = self._completed_cluster(open_statesave)
        dbd = SlurmDbd(ss)
        applied = dbd.pump()
        assert applied > 0
        rows = len(dbd.db)
        energy = dbd.db.total_energy_j()
        assert energy > 0.0
        assert energy == pytest.approx(cluster.accounting.total_energy_j())
        # at-least-once delivery: rewind the cursor and re-deliver EVERYTHING
        dbd.cursor = 0
        redelivered = dbd.pump()
        assert redelivered == applied
        assert dbd.duplicates_dropped >= rows
        assert len(dbd.db) == rows
        assert dbd.db.total_energy_j() == pytest.approx(energy)

    def test_dbd_bootstraps_from_snapshot_after_compaction(self, open_statesave):
        ss, cluster = self._completed_cluster(open_statesave)
        ss.write_snapshot(
            cluster.ctld.capture_state(), epoch=ss.epoch, time=cluster.sim.now
        )
        assert ss.compact() > 0
        # more work lands after the compaction point
        cluster.ctld.submit(
            JobDescriptor(
                name="acct-late", num_tasks=8, binary=HPCG_BINARY,
                time_limit_s=600,
            )
        )
        cluster.sim.run()
        late = SlurmDbd(ss)  # cursor 0 — the records it missed are gone
        late.pump()
        assert late.bootstraps == 1
        assert len(late.db) == len(cluster.accounting)
        assert late.db.total_energy_j() == pytest.approx(
            cluster.accounting.total_energy_j()
        )

    @staticmethod
    def _record(state: str, energy_j: float, end: "float | None") -> JobRecord:
        return JobRecord(
            job_id=1, name="a", state=state, submit_time=0.0, start_time=1.0,
            end_time=end, node="node001", num_tasks=4, threads_per_core=1,
            cpu_freq_min=0, cpu_freq_max=0, energy_j=energy_j, exit_code=0,
        )

    def test_apply_dedups_by_job_epoch_seq(self):
        db = AccountingDatabase()
        rec = self._record("COMPLETED", 100.0, end=2.0)
        assert db.apply(rec, epoch=0, seq=7) is True
        assert db.apply(rec, epoch=0, seq=7) is False  # exact re-delivery
        assert db.duplicates_dropped == 1
        assert db.total_energy_j() == 100.0
        # same event re-shipped by a new leader under a new epoch: the
        # (job_id, epoch, seq) key differs but the terminal guard holds
        assert db.apply(rec, epoch=1, seq=7) is False
        assert db.total_energy_j() == 100.0

    def test_terminal_row_never_regresses_to_running(self):
        db = AccountingDatabase()
        done = self._record("COMPLETED", 100.0, end=2.0)
        stale = self._record("RUNNING", 0.0, end=None)
        db.apply(done, epoch=0, seq=5)
        assert db.apply(stale, epoch=0, seq=3) is False  # late, out of order
        assert db.get(1).state == "COMPLETED"
        assert db.total_energy_j() == 100.0


class TestRestartedPeerSupervision:
    def test_killed_leader_restarts_as_backup_and_can_take_over_again(
        self, tmp_path
    ):
        # two takeovers in one drill: kill the original leader, then the
        # drill's supervision restarts it as backup; crash faults on the
        # journal can kill the second leader, handing leadership back
        report = run_failover_drill(
            jobs=30,
            statesave_path=str(tmp_path),
            kill_at_fraction=0.3,
            fault_profile="ctld.crash=0.05:2",
        )
        assert report.ok, report.render()
        assert report.takeovers >= 1
        assert report.completed == 30
