#!/usr/bin/env python
"""Run the workflow DAG storm and write the outcome as JSON.

The storm (driving ``repro.slurm.workflow`` + ``repro.slurm.ha``):
250 diamond DAGs (A -> B,C -> D; 1000 jobs, one workflow
``wf-NNNN`` per diamond) are submitted against a two-peer slurmctld
control plane running the eco plugin over a *live* stub prediction
provider.  A 30-second time limit against the drill workload's 5-35 s
deterministic runtimes makes a predictable fraction of jobs TIMEOUT
mid-DAG: the retry policy requeues each once (re-running the prediction
through the live provider, which is promoted to a new model version
mid-storm), the second TIMEOUT is final, and ``afterok`` dependents
drain through ``DependencyNeverSatisfied``.  At half the storm the
leader is SIGKILL'd; the backup's takeover re-arms held dependencies
and pending requeues off the journal.

Three variants run:

* ``kill`` — the headline 1000-job storm with the leader kill;
* ``kill+chaos`` — a smaller storm with the ``workflow-chaos`` fault
  profile layered on (controller crashes right after dependency-release
  and reschedule journal records, flaky heartbeats);
* ``compaction`` — the kill with snapshot+compaction enabled, proving
  per-workflow joules are not double-counted across a compacted journal.

The companion ``check_workflow_gate.py`` asserts the invariants; this
script only runs and records, so a failing storm still leaves an
artifact to inspect.

Usage::

    PYTHONPATH=src python scripts/run_workflow_smoke.py --output wf.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from typing import Optional

from repro import faults
from repro.core.domain.errors import (
    ControllerCrashError,
    NoLeaderError,
    StaleEpochError,
)
from repro.faults.profiles import PROFILES
from repro.serving.protocol import PredictRequest, PredictResponse
from repro.slurm.config import SlurmConfig
from repro.slurm.controller import Slurmctld
from repro.slurm.ha import DRILL_BINARY, build_drill_plane
from repro.slurm.job import JobDescriptor
from repro.slurm.plugins.eco import JobSubmitEco, PluginState
from repro.slurm.workflow import workflow_rollup

SCHEMA = "chronus-bench-pr10/1"

#: job wall limit; drill runtimes are 5-35 s, so ~1/6 of jobs TIMEOUT
TIME_LIMIT_S = 30

#: the diamond: role -> afterok predecessors
DIAMOND = (("a", ()), ("b", ("a",)), ("c", ("a",)), ("d", ("b", "c")))


class LiveProvider:
    """A stub Chronus whose registry identity is promoted mid-storm."""

    def __init__(self) -> None:
        self.version = 1
        self.calls = 0

    def predict(self, request: PredictRequest) -> PredictResponse:
        self.calls += 1
        return PredictResponse(
            cores=2,
            threads_per_core=1,
            frequency=2_200_000,
            model_id=7,
            model_version=self.version,
        )


def run_storm(
    *,
    diamonds: int,
    statesave_path: str,
    seed: int = 0,
    kill_at_fraction: float = 0.5,
    fault_profile: Optional[str] = None,
    snapshot_interval: int = 0,
    submit_interval_s: float = 0.5,
    heartbeat_s: float = 1.0,
    lease_s: float = 3.0,
) -> dict:
    """Drive one DAG storm; returns the raw observation record."""
    if fault_profile:
        faults.configure(fault_profile, seed=seed)
    provider = LiveProvider()

    def setup(ctld: Slurmctld) -> None:
        # re-run on every (re)start including takeover, like slurm.conf
        plugin = JobSubmitEco(
            ctld.nodes[0].node, provider=provider,
            state=PluginState("activated"),
        )
        ctld.register_plugin(plugin)

    drill = build_drill_plane(
        statesave_path,
        heartbeat_s=heartbeat_s,
        lease_s=lease_s,
        snapshot_interval=snapshot_interval,
        config=SlurmConfig(
            sched_defer=True,
            job_submit_plugins=("eco",),
            reschedule_retries=1,
        ),
        setup=setup,
    )
    sim, plane, statesave = drill.sim, drill.plane, drill.statesave
    submitted: dict[str, int] = {}  # job name -> id on the final leader
    stats = {"retries": 0, "crashes": 0}

    def find_by_name(ctld: Slurmctld, name: str) -> Optional[int]:
        for job in ctld.jobs.values():
            if job.descriptor.name == name:
                return job.job_id
        return None

    def submit_diamond(i: int, retry: bool) -> None:
        if retry:
            stats["retries"] += 1
        try:
            ctld = plane.leader()
        except NoLeaderError:
            sim.call_in(heartbeat_s, lambda: submit_diamond(i, retry=True))
            return
        try:
            ids: dict[str, int] = {}
            for role, preds in DIAMOND:
                name = f"wf-{i:04d}-{role}"
                existing = find_by_name(ctld, name) if retry else None
                if existing is not None:
                    ids[role] = existing
                    submitted[name] = existing
                    continue
                ids[role] = ctld.submit(
                    JobDescriptor(
                        name=name,
                        num_tasks=1,
                        binary=DRILL_BINARY,
                        time_limit_s=TIME_LIMIT_S,
                        workflow=f"wf-{i:04d}",
                        dependency=tuple(
                            ("afterok", ids[p]) for p in preds
                        ),
                    )
                )
                submitted[name] = ids[role]
        except (ControllerCrashError, StaleEpochError):
            stats["crashes"] += 1
            sim.call_in(heartbeat_s, lambda: submit_diamond(i, retry=True))

    for i in range(diamonds):
        sim.call_at(
            i * submit_interval_s,
            lambda i=i: submit_diamond(i, retry=False),
            name=f"diamond-{i}",
        )
    kill_t = diamonds * submit_interval_s * kill_at_fraction

    def kill_leader() -> None:
        stats["crashes"] += 1
        drill.leader_peer().kill()

    sim.call_at(kill_t, kill_leader, name="sigkill-leader")
    # promote the model mid-storm so reschedules pick up the new version
    sim.call_at(kill_t + 1.0, lambda: setattr(provider, "version", 2))

    jobs_total = diamonds * len(DIAMOND)

    def all_done() -> bool:
        if len(submitted) < jobs_total:
            return False
        try:
            ctld = plane.leader()
        except NoLeaderError:
            return False
        return all(
            ctld.jobs[jid].state.is_terminal
            for jid in submitted.values()
            if jid in ctld.jobs
        )

    horizon = max(lease_s, heartbeat_s * 2)
    for _ in range(int(diamonds * submit_interval_s / horizon) + 10_000):
        try:
            sim.run(until=sim.now + horizon)
        except (ControllerCrashError, StaleEpochError):
            stats["crashes"] += 1
        drill.restart_dead_peers()
        if all_done():
            break

    try:
        final = plane.leader()
    finally:
        if fault_profile:
            faults.reset()
    drill.dbd.pump()

    jobs = list(final.jobs.values())
    names = [j.descriptor.name for j in jobs]
    terminal = [j for j in jobs if j.state.is_terminal]
    resched_attempts = [
        a for j in jobs for a in j.attempts if a["reason"] == "reschedule"
    ]
    mine = workflow_rollup(jobs)
    theirs = drill.dbd.workflows()
    energy_ctld = sum(r["total_energy_j"] for r in mine.values())
    energy_dbd = sum(r["total_energy_j"] for r in theirs.values())
    workflow_mismatches = sum(
        1
        for wid, roll in mine.items()
        if wid not in theirs
        or abs(theirs[wid]["total_energy_j"] - roll["total_energy_j"]) > 1e-6
        or theirs[wid]["attempts"] != roll["attempts"]
        or theirs[wid]["models"] != roll["models"]
    )
    return {
        "diamonds": diamonds,
        "jobs_total": jobs_total,
        "submitted": len(submitted),
        "terminal": len(terminal),
        "stuck": len(submitted) - len(terminal),
        "duplicated": len(names) - len(set(names)),
        "timeouts": sum(1 for j in jobs if j.state.value == "TIMEOUT"),
        "cancelled_never": sum(
            1 for j in jobs
            if j.pending_reason == "DependencyNeverSatisfied"
        ),
        "dep_releases": sum(
            1 for j in jobs for a in j.attempts
            if a["reason"] == "dep_release"
        ),
        "reschedule_attempts": len(resched_attempts),
        "reschedules_with_model": sum(
            1 for a in resched_attempts if a["model_id"]
        ),
        "model_versions_served": sorted(
            {a["model_version"] for j in jobs for a in j.attempts
             if a["model_id"]}
        ),
        "provider_calls": provider.calls,
        "workflows": len(mine),
        "dbd_workflows": len(theirs),
        "workflow_mismatches": workflow_mismatches,
        "energy_ctld_j": energy_ctld,
        "energy_dbd_j": energy_dbd,
        "energy_diff_j": abs(energy_ctld - energy_dbd),
        "takeovers": sum(p.takeovers for p in drill.peers),
        "replayed_records": final.last_restore_replayed,
        "journal_appends": statesave.last_seq,
        "retries": stats["retries"],
        "crashes_observed": stats["crashes"],
        "sim_time": sim.now,
    }


def _storm(name: str, **kwargs) -> dict:
    with tempfile.TemporaryDirectory(prefix=f"wf-smoke-{name}-") as path:
        record = run_storm(statesave_path=path, **kwargs)
    record["variant"] = name
    print(
        f"--- {name} ---\n"
        f"  {record['terminal']}/{record['jobs_total']} jobs terminal "
        f"({record['stuck']} stuck, {record['duplicated']} duplicated), "
        f"{record['takeovers']} takeover(s)\n"
        f"  {record['timeouts']} timeouts, "
        f"{record['reschedule_attempts']} reschedules "
        f"({record['reschedules_with_model']} with model identity, "
        f"versions {record['model_versions_served']}), "
        f"{record['cancelled_never']} never-satisfied cancellations\n"
        f"  workflows: ctld={record['workflows']} "
        f"dbd={record['dbd_workflows']} "
        f"({record['workflow_mismatches']} mismatched), "
        f"energy diff {record['energy_diff_j']:.2e} J"
    )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="workflow-smoke.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--diamonds", type=int, default=250,
        help="diamond DAGs in the headline storm (4 jobs each) "
        "[default: 250]",
    )
    args = parser.parse_args(argv)

    results = [
        _storm("kill", diamonds=args.diamonds, seed=args.seed),
        _storm(
            "kill+chaos",
            diamonds=max(20, args.diamonds // 5),
            seed=args.seed,
            fault_profile=PROFILES["workflow-chaos"],
            snapshot_interval=100,
        ),
        _storm(
            "compaction",
            diamonds=max(20, args.diamonds // 5),
            seed=args.seed,
            snapshot_interval=50,
        ),
    ]

    payload = {"schema": SCHEMA, "seed": args.seed, "results": results}
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
