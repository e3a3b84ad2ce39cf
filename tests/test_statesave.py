"""StateSave: journal durability, torn tails, epoch fencing, snapshots —
and the replay invariant.

The acceptance property lives in :class:`TestReplayInvariant`: for a
random workload driven through a journaled controller, the state a
restored controller rebuilds from any journal prefix is **byte-equal**
(state digest) to the live controller's state at the instant that prefix
ended.  The digests are captured via the ``on_append`` observer hook
during the uninterrupted run, so the comparison covers every crash
offset, not just the final one.

:class:`TestJournalFixture` pins the on-disk formats: a state-save
directory checked in under ``tests/fixtures/statesave_v1`` must keep
restoring to the digest and joules recorded when it was written.

:class:`TestDbdTail` holds the reader's side: a slurmdbd that tails the
journal from its anchor ends every pump where a fresh full scan would,
and its shadow job table equals the controller's.
"""

import json
import os
import shutil
from contextlib import closing
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import faults
from repro.core.domain.errors import (
    ControllerCrashError,
    JournalCorruptError,
    StaleEpochError,
)
from repro.slurm.cluster import HPCG_BINARY, SimCluster
from repro.slurm.config import SlurmConfig
from repro.slurm.controller import Slurmctld
from repro.slurm.dbd import SlurmDbd
from repro.slurm.job import JobDescriptor
from repro.slurm.lifecycle import job_to_dict
from repro.slurm.plugins.base import SLURM_SUCCESS, JobSubmitPlugin
from repro.slurm.statesave import (
    JournalRecord,
    StateSave,
    canonical_json,
    state_sha256,
)


class TestJournalRecord:
    def test_encode_decode_roundtrip(self):
        rec = JournalRecord(seq=3, epoch=1, time=2.5, type="submit", data={"a": 1})
        assert JournalRecord.decode(rec.encode()) == rec

    def test_crc_rejects_tampering(self):
        rec = JournalRecord(seq=1, epoch=0, time=0.0, type="submit", data={"a": 1})
        payload = json.loads(rec.encode())
        payload["data"]["a"] = 2  # flip a bit, keep the old crc
        with pytest.raises(ValueError):
            JournalRecord.decode(json.dumps(payload))

    def test_canonical_json_is_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


class TestJournal:
    def test_append_and_read(self, open_statesave):
        ss = open_statesave()
        ss.append("submit", {"job_id": 1}, epoch=0, time=1.0)
        ss.append("start", {"job_id": 1}, epoch=0, time=2.0)
        recs = ss.read_records()
        assert [(r.seq, r.type) for r in recs] == [(1, "submit"), (2, "start")]

    def test_last_seq_survives_reopen(self, open_statesave):
        ss = open_statesave()
        for i in range(5):
            ss.append("submit", {"job_id": i}, epoch=0, time=float(i))
        ss.close()
        again = open_statesave()
        assert again.last_seq == 5

    def test_torn_tail_dropped_and_repaired(self, tmp_path, open_statesave):
        ss = open_statesave()
        ss.append("submit", {"job_id": 1}, epoch=0, time=1.0)
        ss.append("submit", {"job_id": 2}, epoch=0, time=2.0)
        ss.close()
        journal = os.path.join(str(tmp_path), "journal.log")
        with open(journal, "a") as fh:
            fh.write('{"seq": 3, "epoch": 0, "ti')  # the crash's half-line
        again = open_statesave()
        assert again.torn_tail_records == 1
        assert again.last_seq == 2
        # the repaired journal accepts new appends on a clean boundary
        again.append("submit", {"job_id": 3}, epoch=0, time=3.0)
        assert [r.seq for r in again.read_records()] == [1, 2, 3]

    def test_mid_journal_damage_refuses_replay(self, tmp_path, open_statesave):
        ss = open_statesave()
        for i in range(3):
            ss.append("submit", {"job_id": i}, epoch=0, time=float(i))
        ss.close()
        journal = os.path.join(str(tmp_path), "journal.log")
        with open(journal) as fh:
            lines = fh.read().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # damage the MIDDLE record
        with open(journal, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptError):
            open_statesave()

    def test_recover_repairs_tail_on_open_instance(self, open_statesave):
        # an HA pair shares one StateSave; takeover re-opens via recover()
        ss = open_statesave()
        ss.append("submit", {"job_id": 1}, epoch=0, time=1.0)
        faults.configure("journal.torn_write=1:1", seed=0)
        try:
            with pytest.raises(ControllerCrashError):
                ss.append("submit", {"job_id": 2}, epoch=0, time=2.0)
        finally:
            faults.reset()
        assert ss.recover() == 1  # one torn record dropped
        ss.append("submit", {"job_id": 2}, epoch=0, time=3.0)
        assert [r.seq for r in ss.read_records()] == [1, 2]


class TestFaultSites:
    def test_torn_write_is_not_durable(self, open_statesave):
        ss = open_statesave()
        faults.configure("journal.torn_write=1:1", seed=0)
        try:
            with pytest.raises(ControllerCrashError):
                ss.append("submit", {"job_id": 1}, epoch=0, time=1.0)
        finally:
            faults.reset()
        ss.close()
        assert open_statesave().read_records() == []

    def test_crash_after_append_is_durable(self, open_statesave):
        ss = open_statesave()
        faults.configure("ctld.crash=1:1", seed=0)
        try:
            with pytest.raises(ControllerCrashError):
                ss.append("submit", {"job_id": 1}, epoch=0, time=1.0)
        finally:
            faults.reset()
        ss.close()
        recs = open_statesave().read_records()
        assert [r.seq for r in recs] == [1]  # the record survived, ack didn't


class TestEpochFencing:
    def test_bump_epoch_fences_old_writers(self, open_statesave):
        ss = open_statesave()
        ss.append("submit", {"job_id": 1}, epoch=0, time=1.0)
        assert ss.bump_epoch() == 1
        with pytest.raises(StaleEpochError):
            ss.append("submit", {"job_id": 2}, epoch=0, time=2.0)
        ss.append("submit", {"job_id": 2}, epoch=1, time=2.0)  # new leader ok

    def test_epoch_durable_across_reopen(self, open_statesave):
        ss = open_statesave()
        ss.bump_epoch()
        ss.bump_epoch()
        ss.close()
        assert open_statesave().epoch == 2

    def test_lease_write_checked_against_epoch(self, open_statesave):
        ss = open_statesave()
        ss.write_lease("ctld-a", 0, expires_at=10.0)
        ss.bump_epoch()
        with pytest.raises(StaleEpochError):
            ss.write_lease("ctld-a", 0, expires_at=20.0)  # zombie renewal
        lease = ss.read_lease()
        assert (lease.leader, lease.epoch, lease.expires_at) == ("ctld-a", 0, 10.0)
        ss.write_lease("ctld-b", 1, expires_at=20.0)
        assert ss.read_lease().leader == "ctld-b"

    def test_lease_expiry(self, open_statesave):
        ss = open_statesave()
        lease = ss.write_lease("ctld-a", 0, expires_at=10.0)
        assert not lease.expired(9.9)
        assert lease.expired(10.0)


class TestSnapshots:
    def test_write_and_load_digest_verified(self, open_statesave):
        ss = open_statesave()
        ss.append("submit", {"job_id": 1}, epoch=0, time=1.0)
        state = {"jobs": {"1": {"name": "a"}}}
        ss.write_snapshot(state, epoch=0, time=1.0)
        snap = ss.load_latest_snapshot()
        assert snap["state"] == state
        assert snap["seq"] == 1
        assert snap["digest"] == state_sha256(state)

    def test_corrupt_snapshot_falls_back_to_older(self, tmp_path, open_statesave):
        ss = open_statesave()
        ss.append("submit", {"job_id": 1}, epoch=0, time=1.0)
        name_old = ss.write_snapshot({"v": "old"}, epoch=0, time=1.0)
        ss.append("submit", {"job_id": 2}, epoch=0, time=2.0)
        name_new = ss.write_snapshot({"v": "new"}, epoch=0, time=2.0)
        assert name_new != name_old
        with open(os.path.join(str(tmp_path), name_new), "a") as fh:
            fh.write("garbage")
        assert ss.load_latest_snapshot()["state"] == {"v": "old"}

    def test_compact_drops_covered_records(self, open_statesave):
        ss = open_statesave()
        for i in range(4):
            ss.append("submit", {"job_id": i}, epoch=0, time=float(i))
        ss.write_snapshot({"upto": 4}, epoch=0, time=4.0)
        ss.append("submit", {"job_id": 4}, epoch=0, time=5.0)
        assert ss.compact() == 4
        assert [r.seq for r in ss.read_records()] == [5]
        assert ss.last_seq == 5  # appends continue from the same sequence

    def test_reopen_after_compacting_everything_continues_the_sequence(self, open_statesave):
        ss = open_statesave()
        for i in range(3):
            ss.append("submit", {"job_id": i}, epoch=0, time=float(i))
        ss.write_snapshot({"upto": 3}, epoch=0, time=3.0)
        assert ss.compact() == 3
        ss.close()
        again = open_statesave()  # the journal is empty
        assert again.last_seq == 3
        again.append("submit", {"job_id": 3}, epoch=0, time=4.0)
        # numbered past the snapshot, so a restore's replay does not skip it
        assert [r.seq for r in again.read_records(after_seq=3)] == [4]

    def test_should_snapshot_interval(self, open_statesave):
        ss = open_statesave(snapshot_interval=2)
        ss.append("submit", {"job_id": 1}, epoch=0, time=1.0)
        assert not ss.should_snapshot()
        ss.append("submit", {"job_id": 2}, epoch=0, time=2.0)
        assert ss.should_snapshot()
        ss.write_snapshot({}, epoch=0, time=2.0)
        assert not ss.should_snapshot()

    @staticmethod
    def _snapshots(path) -> list:
        return sorted(n for n in os.listdir(path) if n.startswith("snapshot-"))

    def test_writes_keep_the_newest_two_snapshots(self, tmp_path, open_statesave):
        ss = open_statesave(snapshot_interval=2)
        for i in range(1, 13):
            ss.append("submit", {"job_id": i}, epoch=0, time=float(i))
            if ss.should_snapshot():
                ss.write_snapshot({"upto": i}, epoch=0, time=float(i))
        # six intervals: the newest snapshot and its fallback are left
        assert self._snapshots(tmp_path) == [
            "snapshot-000000000010.json",
            "snapshot-000000000012.json",
        ]
        assert ss.load_latest_snapshot()["state"] == {"upto": 12}

    def test_compact_deletes_the_older_snapshots(self, tmp_path, open_statesave):
        ss = open_statesave()
        for i in range(1, 5):
            ss.append("submit", {"job_id": i}, epoch=0, time=float(i))
            ss.write_snapshot({"upto": i}, epoch=0, time=float(i))
        ss.append("submit", {"job_id": 5}, epoch=0, time=5.0)
        assert ss.compact() == 4
        # a restore from snapshot 3 would need record 4, dropped above
        assert self._snapshots(tmp_path) == ["snapshot-000000000004.json"]


# ----------------------------------------------------------------------
# the replay invariant
# ----------------------------------------------------------------------

workload_strategy = st.lists(
    st.tuples(
        st.integers(1, 32),      # num_tasks
        st.integers(1, 20),      # time limit (minutes; 1 => TIMEOUT)
        st.booleans(),           # cancel shortly after submit?
        st.booleans(),           # afterok-depend on the previous job?
        st.booleans(),           # workflow member (enables auto-reschedule)?
    ),
    min_size=1,
    max_size=6,
)


def _run_journaled(tmpdir: str, jobs, horizon: float, snapshot_interval: int = 0, on_record=None):
    """Drive a journaled cluster; returns (digests-by-seq, final ctld).

    Workload elements can chain ``afterok`` dependencies on the previous
    submission and join the ``"prop"`` workflow; with a 1-minute time
    limit against the 120 s HPCG runtime a workflow member TIMEOUTs and
    exercises the automatic reschedule path (``RescheduleRetries=1``),
    so the replay invariant covers submit_dep / dep_release / reschedule
    records and never-satisfied cancel cascades, not just the legacy
    record types.  ``on_record`` sees the controller after every record.
    """
    ss = StateSave(tmpdir, fsync=False, snapshot_interval=snapshot_interval)
    cluster = SimCluster(
        n_nodes=2, statesave=ss, hpcg_duration_s=120,
        config=SlurmConfig(reschedule_retries=1),
    )
    digests: dict[int, str] = {}

    def appended(rec) -> None:
        digests[rec.seq] = cluster.ctld.state_digest()
        if on_record is not None:
            on_record(cluster.ctld)

    ss.on_append = appended
    # the genesis record was journaled during construction, before the
    # hook attached; its digest is simply the fresh controller's
    digests[ss.last_seq] = cluster.ctld.state_digest()
    submitted: list[int] = []
    for i, (tasks, limit_min, cancel, dep_prev, in_wf) in enumerate(jobs):
        def submit(tasks=tasks, limit=limit_min, cancel=cancel,
                   dep_prev=dep_prev, in_wf=in_wf, i=i):
            dependency = ()
            if dep_prev and submitted:
                dependency = (("afterok", submitted[-1]),)
            jid = cluster.ctld.submit(
                JobDescriptor(
                    name=f"prop-{i}",
                    num_tasks=tasks,
                    binary=HPCG_BINARY,
                    time_limit_s=limit * 60,
                    dependency=dependency,
                    workflow="prop" if in_wf else "",
                )
            )
            submitted.append(jid)
            if cancel:
                def maybe_cancel(jid=jid):
                    # a never-satisfied dependency may have cancelled it
                    if not cluster.ctld.jobs[jid].state.is_terminal:
                        cluster.ctld.cancel(jid)
                cluster.sim.call_in(5.0, maybe_cancel)

        cluster.sim.call_at(i * 7.0, submit)
    cluster.sim.run(until=horizon)
    return digests, cluster, ss


class TestReplayInvariant:
    @settings(max_examples=8, deadline=None)
    @given(jobs=workload_strategy)
    def test_restore_matches_live_digest_at_every_offset(self, jobs, tmp_path_factory):
        tmpdir = str(tmp_path_factory.mktemp("statesave"))
        digests, cluster, ss = _run_journaled(tmpdir, jobs, horizon=120.0)
        ss.close()
        with closing(StateSave(tmpdir, fsync=False)) as saved:
            records = saved.read_records()
        assert records, "the run journaled nothing"
        # crash at EVERY journal offset: replaying the prefix must land on
        # exactly the digest captured when that record was appended
        for k in range(1, len(records) + 1):
            prefix_dir = os.path.join(tmpdir, f"prefix-{k}")
            with closing(StateSave(prefix_dir, fsync=False)) as prefix:
                for rec in records[:k]:
                    prefix.append(rec.type, rec.data, epoch=rec.epoch, time=rec.time)
                fresh = SimCluster(n_nodes=2, hpcg_duration_s=120)
                restored = Slurmctld.restore(
                    fresh.sim, fresh.ctld.config, fresh.ctld.nodes, prefix,
                    attach=False,
                )
            assert restored.state_digest() == digests[records[k - 1].seq], (
                f"replay of {k}/{len(records)} records diverged "
                f"(last record: {records[k - 1].type})"
            )

    def test_snapshot_plus_suffix_equals_full_replay(self, tmp_path, open_statesave):
        jobs = [
            (8, 10, False, False, True),
            (16, 10, False, True, True),
            (4, 10, True, False, False),
            (32, 10, False, True, False),
        ]
        digests, cluster, ss = _run_journaled(
            str(tmp_path), jobs, horizon=150.0, snapshot_interval=5
        )
        assert ss.load_latest_snapshot() is not None, "no snapshot written"
        live_digest = cluster.ctld.state_digest()
        ss.close()
        again = open_statesave()
        fresh = SimCluster(n_nodes=2, hpcg_duration_s=120)
        restored = Slurmctld.restore(
            fresh.sim, fresh.ctld.config, fresh.ctld.nodes, again, attach=False,
        )
        assert restored.state_digest() == live_digest
        # and the restored controller runs the remaining work to completion
        fresh.sim.run(until=3600.0)
        assert all(j.state.is_terminal for j in restored.jobs.values())

    def test_restored_controller_finishes_the_workload(self, tmp_path, open_statesave):
        # prop-1 afterok-depends on prop-0: the crash happens while the
        # dependency is still held, so the restored controller must re-arm
        # the DAG and release prop-1 when prop-0 finishes post-restore
        jobs = [(8, 30, False, False, False), (16, 30, False, True, True)]
        digests, cluster, ss = _run_journaled(str(tmp_path), jobs, horizon=30.0)
        ss.close()
        again = open_statesave()
        fresh = SimCluster(n_nodes=2, hpcg_duration_s=120)
        restored = Slurmctld.restore(
            fresh.sim, fresh.ctld.config, fresh.ctld.nodes, again, attach=False,
        )
        fresh.sim.run(until=3600.0)
        states = {j.descriptor.name: j.state.name for j in restored.jobs.values()}
        assert states == {"prop-0": "COMPLETED", "prop-1": "COMPLETED"}
        assert len(restored.accounting) == 2


# ----------------------------------------------------------------------
# the journal and snapshot formats, frozen in a checked-in directory
# ----------------------------------------------------------------------

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "statesave_v1")

RECORD_TYPES = {
    "genesis", "submit", "submit_array", "submit_dep", "dep_release",
    "reschedule", "pass", "start", "start_failed", "finish", "cancel",
    "drain", "resume",
}


def _table(jobs) -> dict:
    """A job table, every field of every row."""
    return {job_id: job_to_dict(job) for job_id, job in jobs.items()}


class TestJournalFixture:
    """Restore what ``tests/fixtures/statesave_v1/make_fixture.py`` wrote.

    A format change consistent with itself passes the replay property
    test above; it fails here.
    """

    @pytest.fixture
    def saved(self, tmp_path):
        with open(os.path.join(FIXTURE, "expected.json"), encoding="utf-8") as fh:
            expected = json.load(fh)
        path = str(tmp_path / "state")
        shutil.copytree(os.path.join(FIXTURE, "state"), path)
        return path, expected

    @staticmethod
    def _restore(ss: StateSave) -> Slurmctld:
        # the cluster shape make_fixture.py wrote the directory with
        cluster = SimCluster(
            n_nodes=2, hpcg_duration_s=120.0,
            config=SlurmConfig(reschedule_retries=1),
        )
        return Slurmctld.restore(
            cluster.sim, cluster.ctld.config, cluster.ctld.nodes, ss,
            attach=False,
        )

    def test_fixture_holds_every_record_type_and_a_suffix(self, saved):
        path, expected = saved
        ss = StateSave(path, fsync=False)
        records = ss.read_records()
        assert {rec.type for rec in records} == RECORD_TYPES
        assert len(records) == expected["records"]
        assert 0 < ss.latest_snapshot_seq() == expected["snapshot_seq"] < len(records)
        ss.close()

    def test_snapshot_plus_suffix_restores_the_recorded_digest(self, saved):
        path, expected = saved
        ss = StateSave(path, fsync=False)
        restored = self._restore(ss)
        assert restored.last_restore_replayed == (
            expected["records"] - expected["snapshot_seq"]
        )
        assert restored.state_digest() == expected["state_digest"]
        ss.close()

    def test_journal_alone_restores_the_recorded_digest(self, saved):
        path, expected = saved
        for name in os.listdir(path):
            if name.startswith("snapshot-"):
                os.remove(os.path.join(path, name))
        ss = StateSave(path, fsync=False)
        restored = self._restore(ss)
        assert restored.last_restore_replayed == expected["records"]
        assert restored.state_digest() == expected["state_digest"]
        ss.close()

    def test_restore_refuses_a_hole_after_compaction(self, saved):
        path, expected = saved
        ss = StateSave(path, fsync=False)
        assert ss.compact() == expected["snapshot_seq"]
        newest = f"snapshot-{expected['snapshot_seq']:012d}.json"
        with open(os.path.join(path, newest), "a", encoding="utf-8") as fh:
            fh.write("garbage")
        # no readable snapshot covers the compacted records: replaying
        # the suffix alone would restore a controller missing them
        with pytest.raises(JournalCorruptError, match="hole"):
            self._restore(ss)
        ss.close()

    def test_restore_refuses_an_empty_journal_without_a_readable_snapshot(self, saved):
        path, expected = saved
        ss = StateSave(path, fsync=False)
        live = self._restore(ss)
        name = ss.write_snapshot(
            live.capture_state(), epoch=live.epoch, time=live.sim.now
        )
        assert ss.compact() == expected["records"]
        with open(os.path.join(path, name), "a", encoding="utf-8") as fh:
            fh.write("garbage")
        # every job lived only in that snapshot: the open state-save, a
        # slurmdbd on it and a reopened one all refuse, and no fresh
        # genesis lands in the journal
        with pytest.raises(JournalCorruptError):
            self._restore(ss)
        with pytest.raises(JournalCorruptError):
            SlurmDbd(ss).pump()
        ss.close()
        with pytest.raises(JournalCorruptError):
            self._restore(StateSave(path, fsync=False))
        assert os.path.getsize(os.path.join(path, "journal.log")) == 0

    def test_dbd_refuses_a_hole_after_compaction(self, saved):
        path, expected = saved
        ss = StateSave(path, fsync=False)
        assert ss.compact() == expected["snapshot_seq"]
        newest = f"snapshot-{expected['snapshot_seq']:012d}.json"
        with open(os.path.join(path, newest), "a", encoding="utf-8") as fh:
            fh.write("garbage")
        # applying the suffix alone would fold records onto jobs it lacks
        with pytest.raises(JournalCorruptError, match="hole"):
            SlurmDbd(ss).pump()
        ss.close()

    def test_fresh_dbd_bills_the_recorded_joules(self, saved):
        path, expected = saved
        ss = StateSave(path, fsync=False)
        dbd = SlurmDbd(ss)
        assert dbd.pump() == expected["records"]
        assert dbd.db.total_energy_j() == expected["dbd_total_energy_j"]
        # every job is terminal, so restore re-launches nothing and the
        # tables match field for field, workload handles included
        assert _table(dbd.jobs()) == _table(self._restore(ss).jobs)
        # a dbd that starts after compaction reads the snapshot format
        assert ss.compact() == expected["snapshot_seq"]
        late = SlurmDbd(ss)
        late.pump()
        assert late.bootstraps == 1
        assert late.db.total_energy_j() == expected["dbd_total_energy_j"]
        assert _table(late.jobs()) == _table(dbd.jobs())
        ss.close()


# ----------------------------------------------------------------------
# the dbd tail is a full scan, paid for by the new records only
# ----------------------------------------------------------------------

#: (operation, argument) pairs; the argument sizes a job or picks a cursor
dbd_ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["work", "pump", "compact", "torn", "rewind", "late"]),
        st.integers(0, 40),
    ),
    min_size=1,
    max_size=20,
)


def _dbd_view(dbd: SlurmDbd):
    """Cursor, rows, joules and the full shadow job table."""
    return (dbd.cursor, dbd.db.all(), dbd.db.total_energy_j(), _table(dbd.jobs()))


def _torn_append(ss: StateSave) -> None:
    """One append the crash tears in half (the record is not durable)."""
    faults.configure("journal.torn_write=1:1", seed=0)
    try:
        with pytest.raises(ControllerCrashError):
            ss.append("pass", {}, epoch=ss.epoch, time=0.0)
    finally:
        faults.reset()


class _TailHarness:
    """Tailing dbds beside a journaled cluster, checked against fresh ones."""

    def __init__(self, tmpdir: str) -> None:
        self.ss = StateSave(tmpdir, fsync=False)
        self.cluster = SimCluster(n_nodes=2, statesave=self.ss, hpcg_duration_s=30.0)
        self.dbds: list[SlurmDbd] = []
        #: per dbd: journal last_seq at its previous pump, or None when its
        #: next pump is not a steady-state one (first pump, compaction
        #: since, cursor moved, or no record to anchor on)
        self.steady_since: dict[int, "int | None"] = {}
        self.jobs = 0

    def late(self) -> None:
        self.dbds.append(SlurmDbd(self.ss))
        self.steady_since[len(self.dbds) - 1] = None

    def work(self, size: int) -> None:
        """A job, a throttled array and an ``afterok`` dependent, then
        20 s of simulation: every job record type but the failures."""
        self.jobs += 1
        ctld = self.cluster.ctld
        first = ctld.submit(
            JobDescriptor(
                name=f"tail-{self.jobs}", num_tasks=1 + size % 32,
                binary=HPCG_BINARY, time_limit_s=600,
            )
        )
        ctld.submit(
            JobDescriptor(
                name=f"tail-{self.jobs}-array", num_tasks=1 + size % 8,
                binary=HPCG_BINARY, time_limit_s=600,
                array=(0, 1, 2), array_limit=1,
            )
        )
        ctld.submit(
            JobDescriptor(
                name=f"tail-{self.jobs}-after", num_tasks=1 + size % 16,
                binary=HPCG_BINARY, time_limit_s=600,
                dependency=(("afterok", first),),
            )
        )
        self.cluster.sim.run(until=self.cluster.sim.now + 20.0)

    def compact(self) -> None:
        self.ss.write_snapshot(
            self.cluster.ctld.capture_state(), epoch=self.ss.epoch,
            time=self.cluster.sim.now,
        )
        if self.ss.compact():
            self.steady_since = dict.fromkeys(self.steady_since)

    def rewind(self, to: int) -> None:
        dbd = self.dbds[0]
        if to < dbd.cursor:
            dbd.cursor = to
            self.steady_since[0] = None

    def pump(self) -> None:
        fresh = SlurmDbd(self.ss)
        fresh.pump()
        want = _dbd_view(fresh)
        for i, dbd in enumerate(self.dbds):
            rescans = dbd.rescans
            with mock.patch.object(
                JournalRecord, "decode", side_effect=JournalRecord.decode
            ) as decode:
                dbd.pump()
            since = self.steady_since[i]
            if since is not None:
                assert decode.call_count == self.ss.last_seq - since
                assert dbd.rescans == rescans
            assert _dbd_view(dbd) == want
            anchored = bool(self.ss.read_records())
            self.steady_since[i] = self.ss.last_seq if anchored else None

    def torn(self) -> None:
        _torn_append(self.ss)
        self.pump()  # the half-record is no complete line: nothing to read
        assert self.ss.recover() == 1
        self.pump()  # the rewrite is byte-identical: every anchor holds


class TestDbdTail:
    @settings(max_examples=30, deadline=None)
    @given(ops=dbd_ops_strategy)
    @example(
        ops=[
            ("work", 8), ("pump", 0), ("work", 16), ("compact", 0),
            ("work", 4), ("compact", 0), ("work", 31), ("pump", 0),
            ("torn", 0), ("rewind", 2), ("late", 0), ("work", 2), ("pump", 0),
        ]
    )
    @example(ops=[("work", 8), ("work", 3), ("pump", 0), ("rewind", 0), ("pump", 0)])
    def test_tail_matches_a_fresh_full_scan(self, ops, tmp_path_factory):
        harness = _TailHarness(str(tmp_path_factory.mktemp("dbdtail")))
        try:
            harness.late()
            for op, arg in ops:
                if op == "rewind":
                    harness.rewind(arg)
                elif op == "work":
                    harness.work(arg)
                else:
                    getattr(harness, op)()
            harness.cluster.sim.run()
            harness.pump()
            dbd = harness.dbds[-1]
            assert dbd.db.total_energy_j() == (
                harness.cluster.accounting.total_energy_j()
            )
            assert _table(dbd.jobs()) == _table(harness.cluster.ctld.jobs)
        finally:
            harness.ss.close()

    def test_appends_after_an_unrecovered_tear_still_raise(self, tmp_path):
        harness = _TailHarness(str(tmp_path))
        harness.late()
        harness.work(8)
        harness.pump()
        ss, tailing = harness.ss, harness.dbds[0]
        _torn_append(ss)
        # the first append lands on the half-record: one damaged last line,
        # which the tail (falling back) and a full scan both drop as torn
        ss.append("pass", {}, epoch=ss.epoch, time=1.0)
        fresh = SlurmDbd(ss)
        fresh.pump()
        tailing.pump()
        assert _dbd_view(tailing) == _dbd_view(fresh)
        # a valid record after the damaged line is a hole in the middle
        ss.append("pass", {}, epoch=ss.epoch, time=2.0)
        for dbd in (tailing, SlurmDbd(ss)):
            with pytest.raises(JournalCorruptError):
                dbd.pump()
        ss.close()


# ----------------------------------------------------------------------
# the by-name index answers what a scan of the job table answers
# ----------------------------------------------------------------------

def _scan_by_name(ctld: Slurmctld, name: str):
    """The reference: the lowest id among the jobs named ``name``."""
    return min((j.job_id for j in ctld.jobs.values() if j.descriptor.name == name), default=None)


def _names(ctld: Slurmctld) -> "set[str]":
    return {job.descriptor.name for job in ctld.jobs.values()} | {"never-submitted"}


def _assert_names_indexed(ctld: Slurmctld) -> None:
    for name in _names(ctld):
        assert ctld.job_by_name(name) == _scan_by_name(ctld, name), name


def _restored(tmpdir: str) -> Slurmctld:
    again = StateSave(tmpdir, fsync=False)
    fresh = SimCluster(n_nodes=2, hpcg_duration_s=120)
    try:
        return Slurmctld.restore(fresh.sim, fresh.ctld.config, fresh.ctld.nodes, again, attach=False)
    finally:
        again.close()


class _RenameOnEveryRun(JobSubmitPlugin):
    name = "rename"

    def job_submit(self, job_desc: JobDescriptor, submit_uid: int) -> int:
        job_desc.name += "+"
        return SLURM_SUCCESS


class TestJobByName:
    @settings(max_examples=8, deadline=None)
    @given(jobs=workload_strategy)
    def test_index_equals_a_scan_through_reschedules(self, jobs, tmp_path_factory):
        tmpdir = str(tmp_path_factory.mktemp("byname"))
        _, cluster, ss = _run_journaled(
            tmpdir, jobs, horizon=400.0, snapshot_interval=4, on_record=_assert_names_indexed
        )
        ss.close()
        restored = _restored(tmpdir)
        _assert_names_indexed(restored)
        for name in _names(cluster.ctld):
            assert restored.job_by_name(name) == cluster.ctld.job_by_name(name)

    @settings(max_examples=10, deadline=None)
    @given(ops=dbd_ops_strategy)
    def test_index_equals_a_scan_through_arrays_and_compaction(self, ops, tmp_path_factory):
        tmpdir = str(tmp_path_factory.mktemp("bynamearrays"))
        harness = _TailHarness(tmpdir)
        harness.ss.on_append = lambda rec: _assert_names_indexed(harness.cluster.ctld)
        try:
            for op, arg in ops:
                if op == "work":
                    harness.work(arg)
                    # the same names again: a resubmitted job and array
                    harness.jobs -= 1
                    harness.work(arg)
                elif op == "compact":
                    harness.compact()
        finally:
            harness.ss.close()
        restored = _restored(tmpdir)
        _assert_names_indexed(restored)
        for name in _names(harness.cluster.ctld):
            assert restored.job_by_name(name) == harness.cluster.ctld.job_by_name(name)

    def test_a_plugin_rename_on_reschedule_moves_the_entry(self, tmp_path):
        ss = StateSave(str(tmp_path), fsync=False)
        cluster = SimCluster(
            n_nodes=2, statesave=ss, hpcg_duration_s=120,
            config=SlurmConfig(reschedule_retries=1, job_submit_plugins=("rename",)),
        )
        ctld = cluster.ctld
        ctld.register_plugin(_RenameOnEveryRun())
        jid = ctld.submit(
            JobDescriptor(name="wf", num_tasks=4, binary=HPCG_BINARY, time_limit_s=60, workflow="w")
        )
        assert ctld.job_by_name("wf+") == jid
        cluster.sim.run(until=600.0)
        ss.close()
        assert ctld.jobs[jid].descriptor.name == "wf++"  # re-predicted once
        assert ctld.job_by_name("wf++") == jid
        assert ctld.job_by_name("wf+") is None
        _assert_names_indexed(ctld)
