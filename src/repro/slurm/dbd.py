"""``slurmdbd`` split out of the controller: journal-fed accounting.

The controller's in-process :class:`AccountingDatabase` dies with it.
:class:`SlurmDbd` is the decomposition ROADMAP calls for: a separate
daemon that *tails the state-save journal* and materializes accounting
rows independently, so ``sacct`` history survives controller crashes and
failovers without talking to the (possibly dead) leader.

Delivery is **at-least-once**: the daemon keeps a cursor of the last
journal sequence it applied, but crashes or re-reads can re-deliver
records, and after a failover the new leader re-ships the suffix.  The
underlying :meth:`AccountingDatabase.apply` dedups by
``(job_id, epoch, seq)`` and refuses to regress terminal rows, which is
what makes the pump idempotent (``dbd_duplicates_dropped_total`` counts
the drops).

A pump costs time in proportion to the records appended since the last
one.  Besides the cursor the daemon keeps an *anchor*: the byte offset
just past the last record it read, plus that record's raw line.  While
the journal still holds that line at that offset, a pump reads and
decodes only the lines after it (:meth:`StateSave.read_after`).  Every
other case falls back to a full scan of the journal, which sets a new
anchor (``dbd_tail_rescans_total`` counts these): the cursor changed
from outside, the anchor line is gone (compaction, or a rewritten file),
or a line fails to decode.  A torn tail that :meth:`StateSave.recover`
drops leaves the surviving records byte-identical, so the anchor holds.

When the leader compacts the journal past the daemon's cursor, the full
scan bootstraps from the latest snapshot (which carries both the
accounting rows and the job table) and tailing resumes from the
snapshot's sequence number.
"""

from __future__ import annotations

from typing import Optional

from repro import telemetry
from repro.slurm.accounting import AccountingDatabase, record_from_job
from repro.slurm.controller import Slurmctld, _job_from_dict, descriptor_from_dict
from repro.slurm.job import Job, JobState
from repro.slurm.statesave import JournalAnchor, JournalRecord, StateSave
from repro.slurm.workflow import workflow_rollup

__all__ = ["SlurmDbd"]


class SlurmDbd:
    """Accounting daemon fed by the state-save journal."""

    def __init__(
        self, statesave: StateSave, db: Optional[AccountingDatabase] = None
    ) -> None:
        self.statesave = statesave
        self.db = db if db is not None else AccountingDatabase()
        #: last journal seq applied (exclusive lower bound for the tail)
        self.cursor = 0
        #: shadow job table rebuilt from the event stream
        self._jobs: dict[int, Job] = {}
        #: end of the last journal record read; None until a read finds one
        self._anchor: Optional[JournalAnchor] = None
        #: the cursor as the last pump left it (None before the first pump)
        self._pumped_cursor: Optional[int] = None
        self.bootstraps = 0
        self.rescans = 0
        self.events_applied = 0

    # ------------------------------------------------------------------
    def pump(self) -> int:
        """Apply every journal record newer than the cursor.

        Returns the number of records consumed.  Safe to call at any
        cadence (the drill runs it as a heartbeat) and safe to re-run —
        duplicates are dropped at the accounting layer.  Reads only the
        records after the anchor while it holds; otherwise re-scans the
        whole journal (see the module docstring).
        """
        tail = None
        if self._anchor is not None and self.cursor == self._pumped_cursor:
            tail = self.statesave.read_after(self._anchor)
        if tail is None:
            if self._pumped_cursor is not None:
                self.rescans += 1
                telemetry.counter("dbd_tail_rescans_total").inc()
            records, anchor = self._full_scan()
        else:
            records, anchor = tail
        applied = 0
        for rec in records:
            if rec.seq <= self.cursor:
                continue
            self.apply_event(rec)
            self.cursor = rec.seq
            applied += 1
        self._anchor = anchor
        self._pumped_cursor = self.cursor
        return applied

    def _full_scan(self) -> "tuple[list[JournalRecord], Optional[JournalAnchor]]":
        """Read the whole journal, bootstrapping when it was compacted
        past the cursor."""
        records, anchor = self.statesave.read_journal()
        if records:
            min_seq = records[0].seq
        else:
            # empty journal: everything may be behind the latest snapshot
            # (compaction right after a snapshot leaves no tail at all)
            min_seq = self.statesave.latest_snapshot_seq() + 1
        if min_seq > 1 and self.cursor < min_seq - 1:
            # the journal was compacted past our cursor; re-bootstrap
            self._bootstrap()
        return records, anchor

    def _bootstrap(self) -> None:
        snap = self.statesave.load_latest_snapshot()
        if snap is None:
            return
        state = snap["state"]
        self.db.load_capture(state["accounting"])
        self._jobs = {
            int(k): _job_from_dict(v) for k, v in state["jobs"].items()
        }
        self.cursor = int(snap["seq"])
        self.bootstraps += 1
        telemetry.counter("dbd_bootstraps_total").inc()

    def jobs(self) -> "dict[int, Job]":
        """The shadow job table, keyed by job id.

        This is what the REST gateway's paginated list endpoints read:
        job ids are totally ordered and the table survives both journal
        compaction (re-bootstrap from the snapshot) and leader failover
        (the journal is shared), so a cursor keyed by the last job id
        served stays stable across either event.  Callers should
        :meth:`pump` first for a fresh view.
        """
        return self._jobs

    # ------------------------------------------------------------------
    def apply_event(self, rec: JournalRecord) -> None:
        """Fold one journal record into the shadow state + accounting."""
        data = rec.data
        rtype = rec.type
        self.events_applied += 1
        telemetry.counter("dbd_events_total").inc()
        if rtype == "submit":
            job_id = int(data["job_id"])
            self._jobs[job_id] = Job(
                job_id=job_id,
                descriptor=descriptor_from_dict(data["descriptor"]),
                submit_time=data["submit_time"],
            )
        elif rtype == "submit_array":
            master_id = int(data["master_id"])
            desc = descriptor_from_dict(data["descriptor"])
            for offset, index in enumerate(data["indices"]):
                job_id = master_id + offset
                self._jobs[job_id] = Job(
                    job_id=job_id,
                    descriptor=desc,
                    submit_time=data["submit_time"],
                    array_job_id=master_id,
                    array_task_id=int(index),
                )
        elif rtype == "submit_dep":
            job_id = int(data["job_id"])
            job = Job(
                job_id=job_id,
                descriptor=descriptor_from_dict(data["descriptor"]),
                submit_time=data["submit_time"],
            )
            self._append_attempt(job, data["attempt"])
            if data["deps"]:
                job.pending_reason = "Dependency"
            self._jobs[job_id] = job
        elif rtype == "dep_release":
            job = self._jobs.get(int(data["job_id"]))
            if job is None:
                return
            job.descriptor = descriptor_from_dict(data["descriptor"])
            self._append_attempt(job, data["attempt"])
            job.pending_reason = "None"
        elif rtype == "reschedule":
            job = self._jobs.get(int(data["job_id"]))
            if job is None:
                return
            job.descriptor = descriptor_from_dict(data["descriptor"])
            self._append_attempt(job, data["attempt"])
            Slurmctld._reset_for_requeue(job)
        elif rtype == "start":
            job = self._jobs.get(int(data["job_id"]))
            if job is None:
                return
            job.state = JobState.RUNNING
            job.start_time = data["start_time"]
            job.node_list = tuple(data["node_list"])
            job.node = job.node_list[0]
            job.energy_start_j = data["energy_start_j"]
        elif rtype == "start_failed":
            job = self._jobs.get(int(data["job_id"]))
            if job is None:
                return
            job.state = JobState.FAILED
            job.exit_code = int(data["exit_code"])
            job.end_time = data["end_time"]
            job.stdout = data["stdout"]
            self._upsert(job, rec)
        elif rtype == "finish":
            job = self._jobs.get(int(data["job_id"]))
            if job is None:
                return
            job.end_time = data["end_time"]
            job.energy_end_j = data["energy_end_j"]
            job.state = JobState(data["state"])
            job.exit_code = int(data["exit_code"])
            job.stdout = data["stdout"]
            self._upsert(job, rec)
        elif rtype == "cancel":
            job = self._jobs.get(int(data["job_id"]))
            if job is None:
                return
            if data["was_running"]:
                job.energy_end_j = data["energy_end_j"]
            job.state = JobState.CANCELLED
            job.end_time = data["end_time"]
            if "reason" in data:
                job.pending_reason = data["reason"]
            self._upsert(job, rec)
        # genesis / pass / drain / resume carry no accounting content

    def _upsert(self, job: Job, rec: JournalRecord) -> None:
        self.db.apply(record_from_job(job), epoch=rec.epoch, seq=rec.seq)

    @staticmethod
    def _append_attempt(job: Job, attempt: "Optional[dict]") -> None:
        """Record one scheduling attempt, idempotent by attempt index.

        The journal is at-least-once: a re-shipped suffix re-delivers
        dep_release/reschedule records, and appending blindly would
        inflate per-workflow attempt counts.  The attempt's ``n`` is the
        lifecycle ordinal, so equality there means "already recorded".
        """
        if attempt is None:
            return
        if any(a.get("n") == attempt.get("n") for a in job.attempts):
            return
        job.attempts.append(dict(attempt))

    # ------------------------------------------------------------------
    def workflows(self) -> "dict[str, dict]":
        """Per-workflow provenance rollups over the shadow job table.

        The same :func:`repro.slurm.workflow.workflow_rollup` fold the
        controller and CLI use — a pure function of absolute per-job
        values, so re-delivered journal records cannot double-count
        joules or attempts.  Callers should :meth:`pump` first.
        """
        return workflow_rollup(self._jobs.values())

    # ------------------------------------------------------------------
    @property
    def duplicates_dropped(self) -> int:
        return self.db.duplicates_dropped

    def __len__(self) -> int:
        return len(self.db)
