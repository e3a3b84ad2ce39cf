"""Regenerate the checked-in state-save fixture.

The fixture freezes the journal and snapshot formats a journaled
controller writes.  ``state/`` is the StateSaveLocation a short,
deterministic run on a 2-node :class:`SimCluster` leaves behind: a full
journal plus periodic snapshots, the newest of which is followed by a
journal suffix.  ``expected.json`` records what that run ended with: the
controller's ``state_digest()`` and the joules a fresh slurmdbd bills
from the directory.  ``tests/test_statesave.py::TestJournalFixture``
restores it.  A format change that is consistent with itself passes the
replay property test (writer and reader change together) but fails
there.

The workload writes every journal record type: a plain job, an array
with a ``%limit`` throttle, an ``afterok`` chain, a workflow job whose
time limit makes it TIMEOUT and auto-reschedule (its ``afterok``
dependent is cancelled as never satisfied when the retry times out
too), a job whose binary does not exist, a cancel of a running job, and
a drain/resume.

Run from the repository root to refresh it.  That is only needed if the
formats change on purpose, which orphans every existing state-save
directory::

    PYTHONPATH=src python tests/fixtures/statesave_v1/make_fixture.py
"""

from __future__ import annotations

import json
import os
import shutil

from repro.slurm.cluster import HPCG_BINARY, SimCluster
from repro.slurm.config import SlurmConfig
from repro.slurm.dbd import SlurmDbd
from repro.slurm.job import JobDescriptor
from repro.slurm.statesave import StateSave

HERE = os.path.dirname(os.path.abspath(__file__))
STATE_DIR = os.path.join(HERE, "state")
EXPECTED = os.path.join(HERE, "expected.json")

#: cluster shape the fixture was written with; restores must match it
N_NODES = 2
HPCG_DURATION_S = 120.0
RESCHEDULE_RETRIES = 1
SNAPSHOT_INTERVAL = 16


def make_cluster(statesave=None) -> SimCluster:
    return SimCluster(
        n_nodes=N_NODES,
        hpcg_duration_s=HPCG_DURATION_S,
        config=SlurmConfig(reschedule_retries=RESCHEDULE_RETRIES),
        statesave=statesave,
    )


def _job(name: str, tasks: int, minutes: int, **fields) -> JobDescriptor:
    fields.setdefault("binary", HPCG_BINARY)
    return JobDescriptor(
        name=name, num_tasks=tasks, time_limit_s=minutes * 60, **fields
    )


def run(path: str) -> SimCluster:
    """Drive the fixture workload to idle with its journal in ``path``."""
    ss = StateSave(path, fsync=False, snapshot_interval=SNAPSHOT_INTERVAL)
    cluster = make_cluster(ss)
    ctld, sim = cluster.ctld, cluster.sim

    def submit_all() -> None:
        plain = ctld.submit(_job("plain", 8, 10))
        ctld.submit(_job("array", 8, 10, array=(0, 1, 2, 3), array_limit=2))
        chain = ctld.submit(_job("chain-0", 24, 10))
        ctld.submit(_job("chain-1", 24, 10, dependency=(("afterok", chain),)))
        retried = ctld.submit(_job("wf-timeout", 8, 1, workflow="wf"))
        ctld.submit(
            _job("wf-after", 8, 10, workflow="wf",
                 dependency=(("afterok", retried),))
        )
        ctld.submit(_job("missing-binary", 4, 10, binary="/opt/none/bin/xnone"))
        doomed = ctld.submit(_job("cancelled", 4, 10))
        sim.call_in(30.0, lambda: ctld.cancel(doomed))
        sim.call_in(45.0, lambda: ctld.drain_node("node002"))
        sim.call_in(200.0, lambda: ctld.resume_node("node002"))
        assert plain == 1

    sim.call_at(0.0, submit_all)
    sim.run_until_idle()
    assert all(job.state.is_terminal for job in ctld.jobs.values())
    return cluster


def main() -> None:
    shutil.rmtree(STATE_DIR, ignore_errors=True)
    cluster = run(STATE_DIR)
    ss = cluster.ctld.statesave
    records = ss.read_records()
    snapshot_seq = ss.latest_snapshot_seq()
    assert 0 < snapshot_seq < records[-1].seq, "need a snapshot and a suffix"
    dbd = SlurmDbd(ss)
    dbd.pump()
    expected = {
        "state_digest": cluster.ctld.state_digest(),
        "dbd_total_energy_j": dbd.db.total_energy_j(),
        "records": len(records),
        "snapshot_seq": snapshot_seq,
        "record_types": sorted({rec.type for rec in records}),
    }
    ss.close()
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(expected, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
