"""StateSave: journal durability, torn tails, epoch fencing, snapshots —
and the replay invariant.

The acceptance property lives in :class:`TestReplayInvariant`: for a
random workload driven through a journaled controller, the state a
restored controller rebuilds from any journal prefix is **byte-equal**
(state digest) to the live controller's state at the instant that prefix
ended.  The digests are captured via the ``on_append`` observer hook
during the uninterrupted run, so the comparison covers every crash
offset, not just the final one.

:class:`TestDbdTail` holds the reader's side: a slurmdbd that tails the
journal from its anchor ends every pump where a fresh full scan would.
"""

import json
import os
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import faults
from repro.api.types import JobInfo
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
    def test_append_and_read(self, tmp_path):
        ss = StateSave(str(tmp_path), fsync=False)
        ss.append("submit", {"job_id": 1}, epoch=0, time=1.0)
        ss.append("start", {"job_id": 1}, epoch=0, time=2.0)
        recs = ss.read_records()
        assert [(r.seq, r.type) for r in recs] == [(1, "submit"), (2, "start")]

    def test_last_seq_survives_reopen(self, tmp_path):
        ss = StateSave(str(tmp_path), fsync=False)
        for i in range(5):
            ss.append("submit", {"job_id": i}, epoch=0, time=float(i))
        ss.close()
        again = StateSave(str(tmp_path), fsync=False)
        assert again.last_seq == 5

    def test_torn_tail_dropped_and_repaired(self, tmp_path):
        ss = StateSave(str(tmp_path), fsync=False)
        ss.append("submit", {"job_id": 1}, epoch=0, time=1.0)
        ss.append("submit", {"job_id": 2}, epoch=0, time=2.0)
        ss.close()
        journal = os.path.join(str(tmp_path), "journal.log")
        with open(journal, "a") as fh:
            fh.write('{"seq": 3, "epoch": 0, "ti')  # the crash's half-line
        again = StateSave(str(tmp_path), fsync=False)
        assert again.torn_tail_records == 1
        assert again.last_seq == 2
        # the repaired journal accepts new appends on a clean boundary
        again.append("submit", {"job_id": 3}, epoch=0, time=3.0)
        assert [r.seq for r in again.read_records()] == [1, 2, 3]

    def test_mid_journal_damage_refuses_replay(self, tmp_path):
        ss = StateSave(str(tmp_path), fsync=False)
        for i in range(3):
            ss.append("submit", {"job_id": i}, epoch=0, time=float(i))
        ss.close()
        journal = os.path.join(str(tmp_path), "journal.log")
        lines = open(journal).read().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # damage the MIDDLE record
        with open(journal, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptError):
            StateSave(str(tmp_path), fsync=False)

    def test_recover_repairs_tail_on_open_instance(self, tmp_path):
        # an HA pair shares one StateSave; takeover re-opens via recover()
        ss = StateSave(str(tmp_path), fsync=False)
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
    def test_torn_write_is_not_durable(self, tmp_path):
        ss = StateSave(str(tmp_path), fsync=False)
        faults.configure("journal.torn_write=1:1", seed=0)
        try:
            with pytest.raises(ControllerCrashError):
                ss.append("submit", {"job_id": 1}, epoch=0, time=1.0)
        finally:
            faults.reset()
        ss.close()
        assert StateSave(str(tmp_path), fsync=False).read_records() == []

    def test_crash_after_append_is_durable(self, tmp_path):
        ss = StateSave(str(tmp_path), fsync=False)
        faults.configure("ctld.crash=1:1", seed=0)
        try:
            with pytest.raises(ControllerCrashError):
                ss.append("submit", {"job_id": 1}, epoch=0, time=1.0)
        finally:
            faults.reset()
        ss.close()
        recs = StateSave(str(tmp_path), fsync=False).read_records()
        assert [r.seq for r in recs] == [1]  # the record survived, ack didn't


class TestEpochFencing:
    def test_bump_epoch_fences_old_writers(self, tmp_path):
        ss = StateSave(str(tmp_path), fsync=False)
        ss.append("submit", {"job_id": 1}, epoch=0, time=1.0)
        assert ss.bump_epoch() == 1
        with pytest.raises(StaleEpochError):
            ss.append("submit", {"job_id": 2}, epoch=0, time=2.0)
        ss.append("submit", {"job_id": 2}, epoch=1, time=2.0)  # new leader ok

    def test_epoch_durable_across_reopen(self, tmp_path):
        ss = StateSave(str(tmp_path), fsync=False)
        ss.bump_epoch()
        ss.bump_epoch()
        ss.close()
        assert StateSave(str(tmp_path), fsync=False).epoch == 2

    def test_lease_write_checked_against_epoch(self, tmp_path):
        ss = StateSave(str(tmp_path), fsync=False)
        ss.write_lease("ctld-a", 0, expires_at=10.0)
        ss.bump_epoch()
        with pytest.raises(StaleEpochError):
            ss.write_lease("ctld-a", 0, expires_at=20.0)  # zombie renewal
        lease = ss.read_lease()
        assert (lease.leader, lease.epoch, lease.expires_at) == ("ctld-a", 0, 10.0)
        ss.write_lease("ctld-b", 1, expires_at=20.0)
        assert ss.read_lease().leader == "ctld-b"

    def test_lease_expiry(self, tmp_path):
        ss = StateSave(str(tmp_path), fsync=False)
        lease = ss.write_lease("ctld-a", 0, expires_at=10.0)
        assert not lease.expired(9.9)
        assert lease.expired(10.0)


class TestSnapshots:
    def test_write_and_load_digest_verified(self, tmp_path):
        ss = StateSave(str(tmp_path), fsync=False)
        ss.append("submit", {"job_id": 1}, epoch=0, time=1.0)
        state = {"jobs": {"1": {"name": "a"}}}
        ss.write_snapshot(state, epoch=0, time=1.0)
        snap = ss.load_latest_snapshot()
        assert snap["state"] == state
        assert snap["seq"] == 1
        assert snap["digest"] == state_sha256(state)

    def test_corrupt_snapshot_falls_back_to_older(self, tmp_path):
        ss = StateSave(str(tmp_path), fsync=False)
        ss.append("submit", {"job_id": 1}, epoch=0, time=1.0)
        name_old = ss.write_snapshot({"v": "old"}, epoch=0, time=1.0)
        ss.append("submit", {"job_id": 2}, epoch=0, time=2.0)
        name_new = ss.write_snapshot({"v": "new"}, epoch=0, time=2.0)
        assert name_new != name_old
        with open(os.path.join(str(tmp_path), name_new), "a") as fh:
            fh.write("garbage")
        assert ss.load_latest_snapshot()["state"] == {"v": "old"}

    def test_compact_drops_covered_records(self, tmp_path):
        ss = StateSave(str(tmp_path), fsync=False)
        for i in range(4):
            ss.append("submit", {"job_id": i}, epoch=0, time=float(i))
        ss.write_snapshot({"upto": 4}, epoch=0, time=4.0)
        ss.append("submit", {"job_id": 4}, epoch=0, time=5.0)
        assert ss.compact() == 4
        assert [r.seq for r in ss.read_records()] == [5]
        assert ss.last_seq == 5  # appends continue from the same sequence

    def test_reopen_after_compacting_everything_continues_the_sequence(self, tmp_path):
        ss = StateSave(str(tmp_path), fsync=False)
        for i in range(3):
            ss.append("submit", {"job_id": i}, epoch=0, time=float(i))
        ss.write_snapshot({"upto": 3}, epoch=0, time=3.0)
        assert ss.compact() == 3
        ss.close()
        again = StateSave(str(tmp_path), fsync=False)  # the journal is empty
        assert again.last_seq == 3
        again.append("submit", {"job_id": 3}, epoch=0, time=4.0)
        # numbered past the snapshot, so a restore's replay does not skip it
        assert [r.seq for r in again.read_records(after_seq=3)] == [4]
        again.close()

    def test_should_snapshot_interval(self, tmp_path):
        ss = StateSave(str(tmp_path), fsync=False, snapshot_interval=2)
        ss.append("submit", {"job_id": 1}, epoch=0, time=1.0)
        assert not ss.should_snapshot()
        ss.append("submit", {"job_id": 2}, epoch=0, time=2.0)
        assert ss.should_snapshot()
        ss.write_snapshot({}, epoch=0, time=2.0)
        assert not ss.should_snapshot()


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


def _run_journaled(tmpdir: str, jobs, horizon: float, snapshot_interval: int = 0):
    """Drive a journaled cluster; returns (digests-by-seq, final ctld).

    Workload elements can chain ``afterok`` dependencies on the previous
    submission and join the ``"prop"`` workflow; with a 1-minute time
    limit against the 120 s HPCG runtime a workflow member TIMEOUTs and
    exercises the automatic reschedule path (``RescheduleRetries=1``),
    so the replay invariant covers submit_dep / dep_release / reschedule
    records and never-satisfied cancel cascades, not just the legacy
    record types.
    """
    ss = StateSave(tmpdir, fsync=False, snapshot_interval=snapshot_interval)
    cluster = SimCluster(
        n_nodes=2, statesave=ss, hpcg_duration_s=120,
        config=SlurmConfig(reschedule_retries=1),
    )
    digests: dict[int, str] = {}
    ss.on_append = lambda rec: digests.__setitem__(
        rec.seq, cluster.ctld.state_digest()
    )
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
        records = StateSave(tmpdir, fsync=False).read_records()
        assert records, "the run journaled nothing"
        # crash at EVERY journal offset: replaying the prefix must land on
        # exactly the digest captured when that record was appended
        for k in range(1, len(records) + 1):
            prefix_dir = os.path.join(tmpdir, f"prefix-{k}")
            prefix = StateSave(prefix_dir, fsync=False)
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
            prefix.close()

    def test_snapshot_plus_suffix_equals_full_replay(self, tmp_path):
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
        again = StateSave(str(tmp_path), fsync=False)
        fresh = SimCluster(n_nodes=2, hpcg_duration_s=120)
        restored = Slurmctld.restore(
            fresh.sim, fresh.ctld.config, fresh.ctld.nodes, again, attach=False,
        )
        assert restored.state_digest() == live_digest
        # and the restored controller runs the remaining work to completion
        fresh.sim.run(until=3600.0)
        assert all(j.state.is_terminal for j in restored.jobs.values())

    def test_restored_controller_finishes_the_workload(self, tmp_path):
        # prop-1 afterok-depends on prop-0: the crash happens while the
        # dependency is still held, so the restored controller must re-arm
        # the DAG and release prop-1 when prop-0 finishes post-restore
        jobs = [(8, 30, False, False, False), (16, 30, False, True, True)]
        digests, cluster, ss = _run_journaled(str(tmp_path), jobs, horizon=30.0)
        ss.close()
        again = StateSave(str(tmp_path), fsync=False)
        fresh = SimCluster(n_nodes=2, hpcg_duration_s=120)
        restored = Slurmctld.restore(
            fresh.sim, fresh.ctld.config, fresh.ctld.nodes, again, attach=False,
        )
        fresh.sim.run(until=3600.0)
        states = {j.descriptor.name: j.state.name for j in restored.jobs.values()}
        assert states == {"prop-0": "COMPLETED", "prop-1": "COMPLETED"}
        assert len(restored.accounting) == 2


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
    """Cursor, rows, joules and the shadow job table as REST serves it.

    The table is compared through :class:`JobInfo`: a dbd that bootstraps
    from a snapshot also carries controller-only fields (workload handles,
    scheduler pending reasons) that the journal fold never sets.
    """
    return (
        dbd.cursor,
        dbd.db.all(),
        dbd.db.total_energy_j(),
        {job_id: JobInfo.from_job(job) for job_id, job in dbd.jobs().items()},
    )


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
        self.jobs += 1
        self.cluster.ctld.submit(
            JobDescriptor(
                name=f"tail-{self.jobs}", num_tasks=1 + size % 32,
                binary=HPCG_BINARY, time_limit_s=600,
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
            assert harness.dbds[-1].db.total_energy_j() == pytest.approx(
                harness.cluster.accounting.total_energy_j()
            )
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
