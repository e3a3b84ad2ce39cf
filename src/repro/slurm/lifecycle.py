"""The job lifecycle as one fold over journal records.

Every change to a :class:`~repro.slurm.job.Job`'s fields is one journal
record, and :func:`apply` is the only code that turns a record into field
values.  :class:`~repro.slurm.controller.Slurmctld` applies each record it
builds through this fold before it journals it, and applies the same
records again on restore; :class:`~repro.slurm.dbd.SlurmDbd` folds the
records it tails, so its shadow job table equals the controller's row for
row.  Two writes stay outside: the scheduler sets ``pending_reason``
during a pass (the ``pass`` record then carries the diff), and a cold
restart re-launches running steps with fresh workload handles.

The fold is pure bookkeeping on a ``{job_id: Job}`` table: it starts no
workload, arms no timer and runs no scheduler pass.  Each record sets
fields to the values it carries and an attempt is recorded once per
ordinal, so slurmdbd's at-least-once delivery, which can apply a suffix
of the journal a second time, lands on the same table.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields, replace
from typing import Optional

from repro.slurm.job import Job, JobDescriptor, JobState

__all__ = [
    "SETTLING",
    "apply",
    "descriptor_from_dict",
    "descriptor_to_dict",
    "job_from_dict",
    "job_to_dict",
    "reset_for_requeue",
]

#: records that settle a job; each one (re)writes its accounting row
SETTLING = frozenset({"start_failed", "finish", "cancel"})


# ----------------------------------------------------------------------
# (de)serialization, shared by journal records and snapshots
# ----------------------------------------------------------------------
#: every field is an immutable scalar or a (nested) tuple of scalars, so
#: a flat read equals ``dataclasses.asdict`` without its recursive copy
_DESCRIPTOR_FIELDS = tuple(f.name for f in dataclass_fields(JobDescriptor))


def descriptor_to_dict(desc: JobDescriptor) -> dict:
    return {name: getattr(desc, name) for name in _DESCRIPTOR_FIELDS}


def descriptor_from_dict(data: dict) -> JobDescriptor:
    fields = dict(data)
    fields["srun_args"] = tuple(fields.get("srun_args", ()))
    fields["array"] = tuple(fields.get("array", ()))
    fields["dependency"] = tuple(
        (kind, int(pred)) for kind, pred in fields.get("dependency", ())
    )
    return JobDescriptor(**fields)


def job_to_dict(job: Job) -> dict:
    return {
        "job_id": job.job_id,
        "descriptor": descriptor_to_dict(job.descriptor),
        "submit_time": job.submit_time,
        "state": job.state.value,
        "start_time": job.start_time,
        "end_time": job.end_time,
        "node": job.node,
        "node_list": list(job.node_list),
        "allocated_cores": list(job.allocated_cores),
        "workload_handle": job.workload_handle,
        "workload_handles": dict(job.workload_handles),
        "exit_code": job.exit_code,
        "stdout": job.stdout,
        "energy_start_j": job.energy_start_j,
        "energy_end_j": job.energy_end_j,
        "pending_reason": job.pending_reason,
        "array_job_id": job.array_job_id,
        "array_task_id": job.array_task_id,
        "attempts": [dict(a) for a in job.attempts],
    }


def job_from_dict(data: dict) -> Job:
    return Job(
        job_id=int(data["job_id"]),
        descriptor=descriptor_from_dict(data["descriptor"]),
        submit_time=data["submit_time"],
        state=JobState(data["state"]),
        start_time=data["start_time"],
        end_time=data["end_time"],
        node=data["node"],
        node_list=tuple(data["node_list"]),
        allocated_cores=tuple(data["allocated_cores"]),
        workload_handle=data["workload_handle"],
        workload_handles={k: v for k, v in data["workload_handles"].items()},
        exit_code=data["exit_code"],
        stdout=data["stdout"],
        energy_start_j=data["energy_start_j"],
        energy_end_j=data["energy_end_j"],
        pending_reason=data["pending_reason"],
        array_job_id=data["array_job_id"],
        array_task_id=data["array_task_id"],
        attempts=[dict(a) for a in data.get("attempts", ())],
    )


def reset_for_requeue(job: Job) -> None:
    """Clear one lifecycle's runtime state; attempts are kept."""
    job.state = JobState.PENDING
    job.start_time = None
    job.end_time = None
    job.node = ""
    job.node_list = ()
    job.allocated_cores = ()
    job.workload_handle = None
    job.workload_handles = {}
    job.exit_code = 0
    job.stdout = ""
    job.energy_start_j = 0.0
    job.energy_end_j = 0.0
    job.pending_reason = "None"


def _add_attempt(job: Job, attempt: Optional[dict]) -> None:
    """Record one scheduling attempt unless its ordinal ``n`` is there."""
    if attempt is None:
        return
    if any(a.get("n") == attempt.get("n") for a in job.attempts):
        return
    job.attempts.append(dict(attempt))


# ----------------------------------------------------------------------
# one function per record type
# ----------------------------------------------------------------------
def _submit(jobs: dict, data: dict) -> "list[Job]":
    job = Job(
        job_id=int(data["job_id"]),
        descriptor=descriptor_from_dict(data["descriptor"]),
        submit_time=data["submit_time"],
    )
    jobs[job.job_id] = job
    return [job]


def _submit_array(jobs: dict, data: dict) -> "list[Job]":
    """One task per index, ids counting up from the master's; every task
    gets its own descriptor copy without the ``array`` field."""
    master_id = int(data["master_id"])
    desc = descriptor_from_dict(data["descriptor"])
    tasks = []
    for offset, index in enumerate(data["indices"]):
        job = Job(
            job_id=master_id + offset,
            descriptor=replace(desc, array=()),
            submit_time=data["submit_time"],
            array_job_id=master_id,
            array_task_id=int(index),
        )
        jobs[job.job_id] = job
        tasks.append(job)
    return tasks


def _submit_dep(jobs: dict, data: dict) -> "list[Job]":
    [job] = _submit(jobs, data)
    _add_attempt(job, data["attempt"])
    if data["deps"]:
        job.pending_reason = "Dependency"
    return [job]


def _dep_release(jobs: dict, data: dict) -> "list[Job]":
    job = jobs[int(data["job_id"])]
    job.descriptor = descriptor_from_dict(data["descriptor"])
    _add_attempt(job, data["attempt"])
    job.pending_reason = "None"
    return [job]


def _reschedule(jobs: dict, data: dict) -> "list[Job]":
    job = jobs[int(data["job_id"])]
    job.descriptor = descriptor_from_dict(data["descriptor"])
    _add_attempt(job, data["attempt"])
    reset_for_requeue(job)
    return [job]


def _pass(jobs: dict, data: dict) -> "list[Job]":
    touched = []
    for job_id, reason in data["reasons"].items():
        job = jobs[int(job_id)]
        job.pending_reason = reason
        touched.append(job)
    return touched


def _start(jobs: dict, data: dict) -> "list[Job]":
    job = jobs[int(data["job_id"])]
    job.state = JobState.RUNNING
    job.start_time = data["start_time"]
    job.node_list = tuple(data["node_list"])
    job.node = job.node_list[0]
    job.workload_handles = dict(data["handles"])
    job.workload_handle = data["handles"][job.node]
    job.energy_start_j = data["energy_start_j"]
    return [job]


def _start_failed(jobs: dict, data: dict) -> "list[Job]":
    job = jobs[int(data["job_id"])]
    job.state = JobState.FAILED
    job.exit_code = int(data["exit_code"])
    job.end_time = data["end_time"]
    job.stdout = data["stdout"]
    return [job]


def _finish(jobs: dict, data: dict) -> "list[Job]":
    job = jobs[int(data["job_id"])]
    job.state = JobState(data["state"])
    job.end_time = data["end_time"]
    job.energy_end_j = data["energy_end_j"]
    job.exit_code = int(data["exit_code"])
    job.stdout = data["stdout"]
    return [job]


def _cancel(jobs: dict, data: dict) -> "list[Job]":
    job = jobs[int(data["job_id"])]
    if data["was_running"]:
        job.energy_end_j = data["energy_end_j"]
    job.state = JobState.CANCELLED
    job.end_time = data["end_time"]
    if "reason" in data:
        job.pending_reason = data["reason"]
    return [job]


def _no_job(jobs: dict, data: dict) -> "list[Job]":
    """Controller-only records (topology, node drain/resume)."""
    return []


#: the fold of each record type
_FOLDS = {
    "genesis": _no_job,
    "submit": _submit,
    "submit_array": _submit_array,
    "submit_dep": _submit_dep,
    "dep_release": _dep_release,
    "reschedule": _reschedule,
    "pass": _pass,
    "start": _start,
    "start_failed": _start_failed,
    "finish": _finish,
    "cancel": _cancel,
    "drain": _no_job,
    "resume": _no_job,
}


def apply(jobs: "dict[int, Job]", rtype: str, data: dict) -> "list[Job]":
    """Fold one record into ``jobs``; returns the jobs it wrote, in order.

    Raises ValueError for an unknown record type and KeyError for a
    record naming a job the table does not hold.
    """
    try:
        fold = _FOLDS[rtype]
    except KeyError:
        raise ValueError(f"unknown journal record type {rtype!r}") from None
    return fold(jobs, data)
