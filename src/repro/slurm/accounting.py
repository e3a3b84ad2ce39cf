"""``slurmdbd`` — job accounting.

Stores one :class:`JobRecord` per job with timing, configuration and
whole-node energy attribution (Slurm's ``AcctGatherEnergy`` role).  The
energy column is what lets ``sacct`` answer "how many joules did this job
burn", which the energy-market extension and Table-2 benches consume.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from repro import telemetry
from repro.slurm.job import Job, JobState

__all__ = ["JobRecord", "AccountingDatabase", "record_from_job"]

#: job states that must never be regressed by a stale re-delivery
_TERMINAL_STATES = frozenset(
    s.value for s in JobState if s.is_terminal
)


def record_from_job(job: Job) -> JobRecord:
    """Build the accounting row for a job's current state."""
    return JobRecord(
        job_id=job.job_id,
        name=job.descriptor.name,
        state=job.state.value,
        submit_time=job.submit_time,
        start_time=job.start_time,
        end_time=job.end_time,
        node=job.node,
        num_tasks=job.descriptor.num_tasks,
        threads_per_core=job.descriptor.threads_per_core,
        cpu_freq_min=job.descriptor.cpu_freq_min,
        cpu_freq_max=job.descriptor.cpu_freq_max,
        energy_j=job.consumed_energy_j,
        exit_code=job.exit_code,
        uid=job.descriptor.uid,
        workflow=job.descriptor.workflow,
        attempts=len(job.attempts),
        models=_model_lineage(job.attempts),
    )


def _model_lineage(attempts: "list[dict]") -> "tuple[str, ...]":
    """Ordered unique ``"id:vN"`` labels across a job's attempts.

    ``model_id == 0`` means no prediction was served for that attempt
    (provider down, plugin deactivated, legacy provider) and is omitted.
    """
    labels: list[str] = []
    for attempt in attempts:
        model_id = attempt.get("model_id", 0)
        if not model_id:
            continue
        label = f"{model_id}:v{attempt.get('model_version', 0)}"
        if label not in labels:
            labels.append(label)
    return tuple(labels)


@dataclass(frozen=True)
class JobRecord:
    """One finished (or running) job's accounting row."""

    job_id: int
    name: str
    state: str
    submit_time: float
    start_time: Optional[float]
    end_time: Optional[float]
    node: str
    num_tasks: int
    threads_per_core: int
    cpu_freq_min: int
    cpu_freq_max: int
    energy_j: float
    exit_code: int
    uid: int = 1000
    #: workflow membership + provenance (PR10); attempts counts every
    #: scheduling attempt (submit / dep_release / reschedule) so a
    #: re-delivered row from an earlier lifecycle is detectably stale
    workflow: str = ""
    attempts: int = 0
    models: tuple[str, ...] = ()

    @property
    def elapsed_s(self) -> Optional[float]:
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time

    @property
    def wait_s(self) -> Optional[float]:
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time


class AccountingDatabase:
    """In-memory slurmdbd.

    Writes go through :meth:`apply`, which is **idempotent** under the
    at-least-once delivery the journaled control plane produces: a
    re-delivered ``(job_id, epoch, seq)`` event is dropped, and a stale
    non-terminal update can never regress a terminal record (a replayed
    RUNNING upsert after COMPLETED would otherwise reset the job's
    energy total to its partial value and double-count on the re-finish).
    """

    def __init__(self) -> None:
        self._records: dict[int, JobRecord] = {}
        #: (job_id, epoch, seq) of every event already applied
        self._applied: set[tuple[int, int, int]] = set()
        self.duplicates_dropped = 0

    def apply(
        self, rec: JobRecord, *, epoch: int = 0, seq: Optional[int] = None
    ) -> bool:
        """Upsert one accounting row; returns False for dropped duplicates.

        ``seq``-tagged events (the journal stream) dedup exactly on
        ``(job_id, epoch, seq)``.  Untagged writes (the legacy in-process
        path) still get the terminal guard, which is what makes a
        re-delivered finish after replay a no-op for energy totals.
        """
        if seq is not None:
            key = (rec.job_id, epoch, seq)
            if key in self._applied:
                self.duplicates_dropped += 1
                telemetry.counter("dbd_duplicates_dropped_total").inc()
                return False
            self._applied.add(key)
        current = self._records.get(rec.job_id)
        if current is not None and current.state in _TERMINAL_STATES:
            if rec.attempts < current.attempts or (
                rec.attempts == current.attempts
                and (rec.state not in _TERMINAL_STATES or rec == current)
            ):
                # a row from an earlier lifecycle of a rescheduled job,
                # a stale RUNNING re-delivery, or the finish replayed
                # verbatim — none may clobber the newer terminal row
                self.duplicates_dropped += 1
                telemetry.counter("dbd_duplicates_dropped_total").inc()
                return False
        self._records[rec.job_id] = rec
        return True

    def upsert(self, job: Job) -> JobRecord:
        rec = record_from_job(job)
        self.apply(rec)
        return self._records[job.job_id]

    # ------------------------------------------------------------------
    # snapshot capture/restore (crash recovery)
    # ------------------------------------------------------------------
    def capture(self) -> list[dict]:
        """JSON-serializable rows, in job-id order."""
        return [asdict(r) for r in self.all()]

    def load_capture(self, rows: list[dict]) -> None:
        """Replace contents with snapshot rows (bootstrap after compaction).

        The applied-event keys go too: they named events whose rows the
        snapshot just replaced, and a re-bootstrap re-delivers the suffix
        after it, which must land again.
        """
        self._records = {}
        self._applied = set()
        for row in rows:
            row = dict(row)
            row["models"] = tuple(row.get("models", ()))
            self._records[int(row["job_id"])] = JobRecord(**row)

    def get(self, job_id: int) -> JobRecord:
        if job_id not in self._records:
            raise KeyError(f"no accounting record for job {job_id}")
        return self._records[job_id]

    def all(self) -> list[JobRecord]:
        return [self._records[k] for k in sorted(self._records)]

    def by_state(self, state: JobState | str) -> list[JobRecord]:
        wanted = state.value if isinstance(state, JobState) else state
        return [r for r in self.all() if r.state == wanted]

    def total_energy_j(self) -> float:
        return sum(r.energy_j for r in self.all())

    def usage_by_uid(self) -> dict[int, float]:
        """Core-seconds consumed per user (the fair-share usage input)."""
        usage: dict[int, float] = {}
        for rec in self.all():
            if rec.elapsed_s is None:
                continue
            usage[rec.uid] = usage.get(rec.uid, 0.0) + rec.elapsed_s * rec.num_tasks
        return usage

    def __len__(self) -> int:
        return len(self._records)
