"""``slurmctld`` — the controller: queue, plugin chain, lifecycle, events.

The controller is a discrete-event process: job completions are events on
the shared simulator, and every submission or completion triggers a
scheduling pass.  Job-submit plugins run synchronously inside
:meth:`Slurmctld.submit`, exactly where the paper's plugin executes.

The controller is event-sourced.  Each mutation is one journal record,
and :meth:`Slurmctld._apply` is the one place a record changes state: the
job fold of :mod:`repro.slurm.lifecycle` plus the controller's own
indexes (pending/running lists, the incremental scheduler view, the
completion schedule, the dependency graph, drained nodes, accounting).
A live mutation runs its effects first (the plugin chain, starting or
stopping workloads, reading node energy), builds the record from what
they produced, applies it, journals it, and only then runs its follow-on
effects (arm or cancel the completion event, resolve dependents, request
a pass).  Submit records carry the post-plugin-chain descriptor and the
workflow records ``submit_dep``/``dep_release``/``reschedule`` carry the
already-decided release-time predictions, so replay reproduces eco
decisions instead of re-deciding them.  :meth:`Slurmctld.restore` applies
the journaled records through the same ``_apply``, which makes the
replay invariant crash recovery rests on hold by construction: the state
at the moment record ``k`` is appended equals the state produced by
replaying records ``1..k`` into a fresh controller
(``tests/test_statesave.py`` checks it byte-for-byte over random event
streams).  Journal appends are epoch-fenced: when a peer has taken over
(bumped the statesave epoch), this controller's next write raises
``StaleEpochError`` and the controller halts instead of corrupting the
new leader's journal.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Iterable, Optional

from repro import faults, telemetry
from repro.core.domain.errors import (
    ControllerCrashError,
    DependencyError,
    JournalCorruptError,
    StaleEpochError,
)
from repro.simkernel.engine import Simulator
from repro.slurm import lifecycle
from repro.slurm.accounting import AccountingDatabase
from repro.slurm.config import SlurmConfig
from repro.slurm.job import Job, JobDescriptor, JobState
from repro.slurm.lifecycle import descriptor_to_dict, job_from_dict, job_to_dict
from repro.slurm.nodemgr import Slurmd, UnknownBinaryError
from repro.slurm.plugins.base import SLURM_SUCCESS, JobSubmitPlugin, PluginChain
from repro.slurm.priority import PriorityWeights, order_by_priority
from repro.slurm.sched_index import ClusterState
from repro.slurm.scheduler import NodeView, backfill_schedule, fifo_schedule
from repro.slurm.statesave import StateSave, state_sha256
from repro.slurm.workflow import DependencyGraph, dependency_status

__all__ = ["SubmitError", "Slurmctld"]


class SubmitError(RuntimeError):
    """Submission rejected (validation failure or plugin veto)."""


class Slurmctld:
    """The cluster controller."""

    def __init__(
        self,
        sim: Simulator,
        config: SlurmConfig,
        nodes: list[Slurmd],
        accounting: Optional[AccountingDatabase] = None,
        *,
        statesave: Optional[StateSave] = None,
        epoch: Optional[int] = None,
        name: str = "slurmctld",
    ) -> None:
        if not nodes:
            raise ValueError("a cluster needs at least one node")
        self.sim = sim
        self.config = config
        self.nodes = nodes
        self.name = name
        # explicit None check: an empty AccountingDatabase is falsy (__len__)
        self.accounting = accounting if accounting is not None else AccountingDatabase()
        self.plugin_chain = PluginChain(time_budget_s=config.plugin_time_budget_s)
        self.jobs: dict[int, Job] = {}
        #: job name -> the lowest id of a job with that name (job_by_name)
        self._by_name: dict[str, int] = {}
        self._pending: list[int] = []
        self._running: list[int] = []
        self._next_job_id = 1
        self._completion_events: dict[int, object] = {}
        #: journaled completion schedule: job_id -> (completion_time,
        #: timed_out).  Unlike the live Event objects this survives capture
        #: and replay, so a restored controller can re-arm every running
        #: job's completion at the exact pre-crash time.
        self._completion_at: dict[int, tuple[float, bool]] = {}
        #: incremental scheduler state, maintained across passes on job
        #: start/finish/cancel and drain/resume (see repro.slurm.sched_index)
        self.cluster_state = ClusterState(
            (n.hostname, n.node.total_cores, n.node.free_cores()) for n in nodes
        )
        self._drained: set[str] = set()
        #: unsatisfied dependency edges; jobs in here sit in
        #: PENDING(Dependency) and are invisible to the scheduler passes
        self.depgraph = DependencyGraph()
        #: pending deferred-pass event (SchedulerParameters=defer coalescing)
        self._sched_event: "object | None" = None
        #: re-entrancy guard for _schedule_pass (see its docstring)
        self._in_pass = False
        self._repass_needed = False
        #: crash-recovery state (see module docstring)
        self.statesave = statesave
        self.epoch = (
            epoch if epoch is not None
            else (statesave.epoch if statesave is not None else 0)
        )
        self._halted = False
        #: journal records replayed by the most recent restore()
        self.last_restore_replayed = 0
        if (
            statesave is not None
            and statesave.last_seq == 0
            and statesave.load_latest_snapshot() is None
        ):
            self._commit(
                "genesis",
                {"nodes": self._topology(), "cluster_name": config.cluster_name},
            )

    # ------------------------------------------------------------------
    # plugins
    # ------------------------------------------------------------------
    def register_plugin(self, plugin: JobSubmitPlugin) -> None:
        """Load a plugin if slurm.conf's JobSubmitPlugins names it."""
        if plugin.name not in self.config.job_submit_plugins:
            raise ValueError(
                f"plugin {plugin.name!r} is not enabled in slurm.conf "
                f"(JobSubmitPlugins={','.join(self.config.job_submit_plugins) or '<empty>'})"
            )
        self.plugin_chain.register(plugin)

    # ------------------------------------------------------------------
    # crash safety: journaling, fencing, halt
    # ------------------------------------------------------------------
    def _commit(self, rtype: str, data: dict) -> None:
        """One live mutation: apply its record, then durably journal it.

        The append comes *after* :meth:`_apply` (the replay invariant).  A
        crash fault or a fence rejection halts this controller: either the
        process "died" mid-write or a newer epoch owns the state.
        """
        self._apply(rtype, data)
        if self.statesave is None:
            return
        try:
            self.statesave.append(rtype, data, epoch=self.epoch, time=self.sim.now)
        except (ControllerCrashError, StaleEpochError):
            self.halt()
            raise
        if self.statesave.should_snapshot():
            self.statesave.write_snapshot(
                self.capture_state(), epoch=self.epoch, time=self.sim.now
            )

    def _fence_check(self) -> None:
        """Reject work on a dead or fenced (zombie) controller."""
        if self._halted:
            raise ControllerCrashError(f"{self.name} is halted")
        if self.statesave is not None and self.epoch < self.statesave.epoch:
            self.halt()
            telemetry.counter("ha_fenced_writes_total").inc()
            raise StaleEpochError(
                f"{self.name} (epoch {self.epoch}) fenced by epoch "
                f"{self.statesave.epoch}; a peer has taken over"
            )

    @property
    def halted(self) -> bool:
        return self._halted

    def halt(self) -> None:
        """Simulated SIGKILL: stop processing without any cleanup.

        Pending completion and scheduling events are torn off the shared
        simulator (the dead process fires no callbacks); workloads keep
        running on the nodes exactly like real orphaned job steps, until
        a restored controller reconciles them.
        """
        if self._halted:
            return
        self._halted = True
        for ev in self._completion_events.values():
            ev.cancel()  # type: ignore[attr-defined]
        self._completion_events.clear()
        if self._sched_event is not None:
            self._sched_event.cancel()  # type: ignore[attr-defined]
            self._sched_event = None
        telemetry.log_event("ctld.halted", name=self.name, sim_time=self.sim.now)

    # ------------------------------------------------------------------
    # crash safety: capture, replay, restore
    # ------------------------------------------------------------------
    def capture_state(self) -> dict:
        """JSON-serializable snapshot of all journaled controller state."""
        return {
            "next_job_id": self._next_job_id,
            "pending": list(self._pending),
            "running": list(self._running),
            "drained": sorted(self._drained),
            "jobs": {str(jid): job_to_dict(j) for jid, j in self.jobs.items()},
            "completion": {
                str(jid): [t, timed_out]
                for jid, (t, timed_out) in self._completion_at.items()
            },
            "cluster": self.cluster_state.capture(),
            "accounting": self.accounting.capture(),
            "depgraph": self.depgraph.capture(),
        }

    def state_digest(self) -> str:
        """SHA-256 over the captured state, minus workload handles.

        Handles are per-node sequence numbers: a cold restart re-launches
        the surviving steps and gets fresh ones, so they are excluded
        from the equality the replay property test asserts.
        """
        state = self.capture_state()
        for job in state["jobs"].values():
            job.pop("workload_handle", None)
            job.pop("workload_handles", None)
        return state_sha256(state)

    def _load_state(self, state: dict) -> None:
        self._next_job_id = int(state["next_job_id"])
        self._pending = [int(j) for j in state["pending"]]
        self._running = [int(j) for j in state["running"]]
        self._drained = set(state["drained"])
        self.jobs = {int(k): job_from_dict(v) for k, v in state["jobs"].items()}
        self._by_name = {}
        self._index_names(self.jobs.values())
        self._completion_at = {
            int(k): (float(v[0]), bool(v[1]))
            for k, v in state["completion"].items()
        }
        self.cluster_state = ClusterState.from_capture(state["cluster"])
        self.accounting.load_capture(state["accounting"])
        self.depgraph = DependencyGraph.from_capture(state.get("depgraph", {}))

    def _index_names(self, jobs: Iterable[Job]) -> None:
        for job in jobs:
            known = self._by_name.get(job.descriptor.name)
            if known is None or job.job_id < known:
                self._by_name[job.descriptor.name] = job.job_id

    def _topology(self) -> "list[list]":
        return [[n.hostname, n.node.total_cores] for n in self.nodes]

    def _apply(self, rtype: str, data: dict) -> None:
        """Apply one record: the job fold, then this controller's indexes.

        The controller's only state transition.  Live mutations call it
        before journaling a record and :meth:`restore` calls it for each
        replayed one.  Pure bookkeeping: no workload is started or
        stopped and no event is armed, because the record already holds
        every decision's outcome.
        """
        if rtype == "genesis":
            if data["nodes"] != self._topology():
                raise ValueError(
                    "journal genesis topology does not match this cluster: "
                    f"{data['nodes']!r} != {self._topology()!r}"
                )
            return
        if rtype == "submit_dep":
            # first, so a rejected cycle leaves no trace (fail fast, see
            # DESIGN.md)
            self.depgraph.add(int(data["job_id"]), data["deps"])
        old_name = None
        if rtype in ("dep_release", "reschedule"):
            old_name = self.jobs[int(data["job_id"])].descriptor.name
        jobs = lifecycle.apply(self.jobs, rtype, data)
        if rtype in ("submit", "submit_array", "submit_dep"):
            self._index_names(jobs)
        elif old_name is not None and jobs[0].descriptor.name != old_name:
            # a plugin renamed the job on re-predict (none in-tree does):
            # rare enough to rebuild the index from the table
            self._by_name = {}
            self._index_names(self.jobs.values())
        if rtype in ("submit", "submit_array", "submit_dep", "reschedule"):
            self._pending.extend(job.job_id for job in jobs)
            self._next_job_id = max(self._next_job_id, jobs[-1].job_id + 1)
        elif rtype == "start":
            [job] = jobs
            self._pending.remove(job.job_id)
            self._running.append(job.job_id)
            self.cluster_state.on_job_start(
                job.node_list,
                job.descriptor.tasks_per_node,
                job.start_time + job.descriptor.time_limit_s,
            )
            self._completion_at[job.job_id] = (
                float(data["completion_time"]),
                bool(data["timed_out"]),
            )
        elif rtype in lifecycle.SETTLING:
            [job] = jobs
            if rtype == "finish" or data.get("was_running"):
                self._running.remove(job.job_id)
                self.cluster_state.on_job_finish(
                    job.node_list,
                    job.descriptor.tasks_per_node,
                    job.start_time + job.descriptor.time_limit_s,
                )
                self._completion_at.pop(job.job_id, None)
            else:
                self._pending.remove(job.job_id)
            self.depgraph.remove(job.job_id)
            self.accounting.upsert(job)
        elif rtype == "dep_release":
            self.depgraph.remove(int(data["job_id"]))
        elif rtype == "drain":
            self._drained.add(data["hostname"])
            self.cluster_state.drain(data["hostname"])
        elif rtype == "resume":
            self._drained.discard(data["hostname"])
            self.cluster_state.resume(data["hostname"])

    @classmethod
    def restore(
        cls,
        sim: Simulator,
        config: SlurmConfig,
        nodes: list[Slurmd],
        statesave: StateSave,
        *,
        accounting: Optional[AccountingDatabase] = None,
        epoch: Optional[int] = None,
        attach: bool = False,
        name: str = "slurmctld",
    ) -> "Slurmctld":
        """Rebuild the exact pre-crash controller from a StateSave.

        Loads the newest digest-valid snapshot, replays the journal suffix,
        then re-arms every running job's completion event at its journaled
        time.  The suffix must continue the snapshot's sequence without a
        hole: a compacted journal whose snapshot is unreadable raises
        :class:`~repro.core.domain.errors.JournalCorruptError` instead of
        restoring a controller that lost the compacted records.

        ``attach=True`` means the nodes survived (peer takeover on
        shared hardware): journaled workload handles are still live and
        orphan steps no restored job owns are stopped.  ``attach=False``
        is a cold restart: nodes came back empty and every surviving
        RUNNING job's steps are re-launched.

        Dependency-held jobs are re-armed too: the graph is rebuilt from
        the replayed ``submit_dep`` records, and the first simulation
        event after restore re-evaluates every held job against its
        predecessors' states — a crash between a predecessor's ``finish``
        record and the dependent's ``dep_release`` (or an interrupted
        auto-reschedule) is healed there instead of leaving the job held
        forever (see :meth:`_rearm`).

        The caller re-registers plugins afterwards, like slurmctld
        re-reading slurm.conf on restart.
        """
        ctld = cls(
            sim, config, nodes, accounting,
            statesave=statesave, epoch=epoch, name=name,
        )
        # replay re-derives occupancy from the journal; start from an
        # empty cluster view even when the physical nodes still hold live
        # steps (attach takeover), or starts would double-count
        ctld.cluster_state = ClusterState(
            (n.hostname, n.node.total_cores, n.node.total_cores)
            for n in nodes
        )
        snap = statesave.load_latest_snapshot()
        after = 0
        if snap is not None:
            ctld._load_state(snap["state"])
            after = int(snap["seq"])
        replayed = 0
        for rec in statesave.replay(after):
            if rec.seq != after + replayed + 1:
                raise JournalCorruptError(
                    f"replay expected journal record {after + replayed + 1} "
                    f"but read {rec.seq} (newest readable snapshot: seq "
                    f"{after}); refusing to restore across a hole"
                )
            ctld._apply(rec.type, rec.data)
            replayed += 1
        ctld.last_restore_replayed = replayed
        ctld._rearm(attach)
        telemetry.log_event(
            "ctld.restored", name=name, replayed=replayed,
            snapshot_seq=after, attach=attach, sim_time=sim.now,
        )
        return ctld

    def _rearm(self, attach: bool) -> None:
        """Re-arm completions, workloads, held dependents; reschedule.

        Running jobs get their completion events back at the journaled
        times and their workloads reconciled (attach) or re-launched
        (cold restart).  Everything queue-shaped — re-resolving
        dependency-held jobs whose release record was lost in the crash,
        resuming interrupted automatic reschedules, and the scheduling
        pass itself — is deferred to a zero-delay event so the restored
        state stays byte-identical to the pre-crash capture until the
        simulation moves again (the replay property test digests right
        after restore returns).
        """
        live: dict[str, set[int]] = {
            s.hostname: set(s.node.running_handles()) for s in self.nodes
        }
        if attach:
            # Stop orphaned steps: a workload whose start record was torn
            # off the journal tail belongs to no restored job (the client
            # will resubmit), and a dead job's step the old leader never
            # recorded stopping is just burning cores.
            owned: dict[str, set[int]] = {}
            for jid in self._running:
                for host, handle in self.jobs[jid].workload_handles.items():
                    owned.setdefault(host, set()).add(handle)
            for slurmd in self.nodes:
                for handle in slurmd.node.running_handles():
                    if handle not in owned.get(slurmd.hostname, set()):
                        slurmd.node.stop_workload(handle)
                        live[slurmd.hostname].discard(handle)
        for jid in list(self._running):
            job = self.jobs[jid]
            comp_t, timed_out = self._completion_at[jid]
            attached = attach and all(
                handle in live.get(host, ())
                for host, handle in job.workload_handles.items()
            )
            if not attached:
                # cold restart, or the step already stopped but its finish
                # record was lost in the crash: re-launch, and let the
                # re-armed completion (possibly already due) finish it
                slurmds = [self._slurmd(h) for h in job.node_list]
                steps = [(s, s.start_job(job)) for s in slurmds]
                job.workload_handles = {
                    s.hostname: st.handle for s, st in steps
                }
                job.workload_handle = steps[0][1].handle
            ev = self.sim.call_at(
                max(self.sim.now, comp_t),
                lambda j=jid, to=timed_out: self._complete_job(j, to),
                name=f"job{jid}-done",
            )
            self._completion_events[jid] = ev
        needs_requeue = any(
            job.state in (JobState.FAILED, JobState.TIMEOUT)
            and self._should_auto_reschedule(job)
            for job in self.jobs.values()
        )
        if self._pending or needs_requeue:
            if self._sched_event is None:

                def fire() -> None:
                    self._sched_event = None
                    self._resume_auto_reschedules()
                    self._resolve_all_held()
                    self._schedule_pass()

                self._sched_event = self.sim.call_at(
                    self.sim.now, fire, name="sched-pass-restore"
                )

    def _resume_auto_reschedules(self) -> None:
        """Catch up reschedules a crash interrupted mid-policy.

        A job that is terminal-failed with retry budget left means the
        old leader died between journaling ``finish`` and the follow-up
        ``reschedule`` record; re-run the policy exactly as it would have.
        """
        for job_id in sorted(self.jobs):
            job = self.jobs[job_id]
            if job.state in (JobState.FAILED, JobState.TIMEOUT):
                if self._should_auto_reschedule(job):
                    self.reschedule(job_id)

    def _resolve_all_held(self) -> None:
        """Re-evaluate every dependency-held job against current state."""
        for job_id in sorted(self.depgraph.waiting):
            if job_id in self.depgraph:  # a cascade may have removed it
                self._resolve_job_deps(job_id, repredict=True)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, descriptor: JobDescriptor, submit_uid: int = 1000) -> int:
        """Submit a job: plugin chain, validation, enqueue, schedule."""
        self._fence_check()
        rc, msg = self.plugin_chain.run(descriptor, submit_uid)
        if rc != SLURM_SUCCESS:
            raise SubmitError(msg)
        max_cores = max(n.node.total_cores for n in self.nodes)
        try:
            descriptor.validate(max_cores, cluster_nodes=len(self.nodes))
        except ValueError as exc:
            raise SubmitError(str(exc)) from exc
        if descriptor.time_limit_s == 0:
            descriptor.time_limit_s = self.config.default_time_limit_s
        if descriptor.array:
            if descriptor.dependency:
                raise SubmitError(
                    "--array with --dependency is not supported; submit the "
                    "array first and make dependents wait on its master id"
                )
            return self._submit_array(descriptor)
        if descriptor.dependency or descriptor.workflow:
            return self._submit_dep(descriptor)
        job_id = self._next_job_id
        # the post-plugin-chain descriptor, so replay reproduces eco decisions
        self._commit(
            "submit",
            {
                "job_id": job_id,
                "descriptor": descriptor_to_dict(descriptor),
                "submit_time": self.sim.now,
            },
        )
        self._request_schedule()
        return job_id

    def _submit_dep(self, descriptor: JobDescriptor) -> int:
        """Submit a workflow member: dependency DAG + attempt provenance.

        The job enters the queue in ``PENDING(Dependency)`` when it has
        unsatisfied edges; edges against already-terminal predecessors are
        evaluated immediately through the same resolution path every
        ``finish``/``cancel`` uses, so an ``afterok`` on a job that
        already failed cancels this one right away
        (``DependencyNeverSatisfied``) instead of holding it forever.
        """
        deps = self._expand_deps(descriptor.dependency)
        job_id = self._next_job_id
        # _apply rejects a cycle before any state changes
        self._commit(
            "submit_dep",
            {
                "job_id": job_id,
                "descriptor": descriptor_to_dict(descriptor),
                "submit_time": self.sim.now,
                "deps": [[kind, pred] for kind, pred in deps],
                "attempt": self._attempt_entry(1, "submit"),
            },
        )
        if deps:
            # predecessors may already be terminal: resolve now, but skip
            # re-prediction — the plugin chain ran a moment ago
            self._resolve_job_deps(job_id, repredict=False)
        self._request_schedule()
        return job_id

    def _expand_deps(self, edges) -> "list[tuple[str, int]]":
        """Validate edges and expand array masters to the whole array.

        A dependency naming an array's master id means "after the whole
        array": the edge fans out to every task, so ``afterok`` waits for
        all of them and ``afternotok`` fires if any task failed.
        """
        expanded: list[tuple[str, int]] = []
        for kind, pred in edges:
            pred_job = self.jobs.get(pred)
            if pred_job is None:
                raise DependencyError(
                    f"dependency on unknown job {pred} (never submitted)"
                )
            if pred_job.array_job_id == pred:
                targets = [t.job_id for t in self.array_tasks(pred)]
            else:
                targets = [pred]
            for target in targets:
                if (kind, target) not in expanded:
                    expanded.append((kind, target))
        return expanded

    def _plugin_attribution(self) -> "tuple[int, int]":
        """Registry identity of the model behind the latest chain run.

        Plugins that serve predictions expose ``last_served`` (the eco
        plugin sets it on every ``job_submit`` call); ``(0, 0)`` means no
        model was consulted — the plugin skipped the job or fell back.
        """
        for plugin in self.plugin_chain.plugins:
            served = getattr(plugin, "last_served", None)
            if served is not None:
                return int(served.model_id), int(served.model_version)
        return 0, 0

    def _attempt_entry(self, n: int, reason: str) -> dict:
        model_id, model_version = self._plugin_attribution()
        return {
            "n": n,
            "time": self.sim.now,
            "reason": reason,
            "model_id": model_id,
            "model_version": model_version,
        }

    def _submit_array(self, descriptor: JobDescriptor) -> int:
        """Expand a ``--array`` submission into one task per index.

        The plugin chain already ran once on the master descriptor (like
        slurmctld, which calls job_submit once per array submission); the
        fold gives each task its own descriptor copy, so runtime mutation
        of one cannot leak into siblings.
        """
        master_id = self._next_job_id
        self._commit(
            "submit_array",
            {
                "master_id": master_id,
                "indices": list(descriptor.array),
                "descriptor": descriptor_to_dict(descriptor),
                "submit_time": self.sim.now,
            },
        )
        self._request_schedule()
        return master_id

    def array_tasks(self, master_id: int) -> list[Job]:
        """All tasks of one array submission, by task index."""
        tasks = [
            j for j in self.jobs.values() if j.array_job_id == master_id
        ]
        if not tasks:
            raise KeyError(f"no array job with master id {master_id}")
        return sorted(tasks, key=lambda j: j.array_task_id or 0)

    def wait_for_array(self, master_id: int) -> list[Job]:
        """Advance the simulation until every array task is terminal."""
        tasks = self.array_tasks(master_id)
        for task in tasks:
            if not task.state.is_terminal:
                self.wait_for_job(task.job_id)
        return self.array_tasks(master_id)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _node_views(self) -> list[NodeView]:
        views = []
        for slurmd in self.nodes:
            if slurmd.hostname in self._drained:
                continue
            running = []
            for jid in self._running:
                job = self.jobs[jid]
                if slurmd.hostname in job.node_list and job.start_time is not None:
                    expected_end = job.start_time + job.descriptor.time_limit_s
                    running.append((expected_end, job.descriptor.tasks_per_node))
            views.append(slurmd.view(running))
        return views

    def _request_schedule(self) -> None:
        """Run a scheduling pass now, or coalesce under ``defer``.

        With ``SchedulerParameters=defer`` every trigger inside one
        simulated instant collapses into a single pass event — a
        million-job submit burst costs one pass, not a million.
        """
        if not self.config.sched_defer:
            self._schedule_pass()
            return
        if self._sched_event is not None:
            return

        def fire() -> None:
            self._sched_event = None
            self._schedule_pass()

        self._sched_event = self.sim.call_at(self.sim.now, fire, name="sched-pass")

    def _schedule_pass(self) -> None:
        """One scheduling pass, re-entrancy-safe.

        Dependency resolution inside a pass (a start failure releasing or
        cancelling dependents) requests another pass; without ``defer``
        that request would recurse into the pass mid-iteration, so it is
        flagged and run after the current placements finish instead.
        """
        if self._in_pass:
            self._repass_needed = True
            return
        self._in_pass = True
        try:
            self._repass_needed = True
            while self._repass_needed:
                self._repass_needed = False
                self._schedule_pass_once()
        finally:
            self._in_pass = False

    def _schedule_pass_once(self) -> None:
        if self._halted:
            return
        try:
            self._fence_check()
        except StaleEpochError:
            # a deferred pass firing on a fenced zombie: die quietly, the
            # new leader owns the queue now
            return
        telemetry.gauge("sched_queue_depth").set(len(self._pending))
        if not self._pending:
            return
        cycle_started = time.perf_counter()
        all_pending = [self.jobs[j] for j in self._pending]
        reasons_before = {j.job_id: j.pending_reason for j in all_pending}
        # dependency-held jobs and over-limit array tasks are filtered out
        # *before* either scheduler path, so the incremental and reference
        # schedulers see the same queue and dependency-free workloads stay
        # placement-identical to the executable spec
        pending_jobs = [j for j in all_pending if j.job_id not in self.depgraph]
        pending_jobs = self._throttle_arrays(pending_jobs)
        if self.config.priority_type == "priority/multifactor":
            weights = PriorityWeights(
                age=self.config.priority_weight_age,
                job_size=self.config.priority_weight_job_size,
                fair_share=self.config.priority_weight_fair_share,
            )
            pending_jobs = order_by_priority(
                pending_jobs,
                self.sim.now,
                total_cores=max(n.node.total_cores for n in self.nodes),
                usage_by_uid=self.accounting.usage_by_uid(),
                weights=weights,
            )
        depth = self.config.sched_queue_depth
        if depth:
            pending_jobs = pending_jobs[:depth]
        backfill = self.config.scheduler_type == "sched/backfill"
        if self.config.sched_incremental:
            if backfill:
                placements = self.cluster_state.backfill_pass(
                    pending_jobs,
                    self.sim.now,
                    default_limit_s=self.config.default_time_limit_s,
                )
            else:
                placements = self.cluster_state.fifo_pass(pending_jobs)
        else:
            views = self._node_views()
            if backfill:
                placements = backfill_schedule(
                    pending_jobs,
                    views,
                    self.sim.now,
                    default_limit_s=self.config.default_time_limit_s,
                )
            else:
                placements = fifo_schedule(pending_jobs, views)
        # pending_reason mutations happen while computing the pass (and in
        # the array throttle above); journal them before the start records
        # so replay applies them in order
        reason_diff = {
            str(j.job_id): j.pending_reason
            for j in all_pending
            if j.pending_reason != reasons_before[j.job_id]
        }
        if reason_diff:
            self._commit("pass", {"reasons": reason_diff})
        for placement in placements:
            self._start_job(placement.job, placement.node_names)
        telemetry.histogram("sched_cycle_seconds").observe(
            time.perf_counter() - cycle_started
        )
        telemetry.gauge("sched_queue_depth").set(len(self._pending))

    def _throttle_arrays(self, jobs: "list[Job]") -> "list[Job]":
        """Enforce ``--array`` ``%limit``: cap concurrent tasks per array.

        Each array gets a per-pass budget of ``limit - running`` slots, so
        even if every candidate placed this pass the running count never
        exceeds the limit.  Tasks over budget wait with the
        ``JobArrayTaskLimit`` reason (squeue's name for it).
        """
        budget: dict[int, int] = {}
        eligible: list[Job] = []
        for job in jobs:
            limit = job.descriptor.array_limit
            master = job.array_job_id
            if not limit or master is None:
                eligible.append(job)
                continue
            if master not in budget:
                running = sum(
                    1 for jid in self._running
                    if self.jobs[jid].array_job_id == master
                )
                budget[master] = limit - running
            if budget[master] > 0:
                budget[master] -= 1
                eligible.append(job)
            else:
                job.pending_reason = "JobArrayTaskLimit"
        return eligible

    def _slurmd(self, hostname: str) -> Slurmd:
        for n in self.nodes:
            if n.hostname == hostname:
                return n
        raise KeyError(f"unknown node {hostname!r}")

    def _start_job(self, job: Job, node_names: tuple[str, ...]) -> None:
        slurmds = [self._slurmd(name) for name in node_names]
        steps = []
        try:
            for slurmd in slurmds:
                steps.append((slurmd, slurmd.start_job(job)))
        except UnknownBinaryError as exc:
            for slurmd, step in steps:  # roll back shards already launched
                slurmd.node.stop_workload(step.handle)
            self._commit(
                "start_failed",
                {
                    "job_id": job.job_id,
                    "exit_code": 127,  # command not found
                    "end_time": self.sim.now,
                    "stdout": f"slurmstepd: error: {exc}\n",
                },
            )
            telemetry.counter("sched_jobs_failed_total").inc()
            # exit 127 is permanent (no binary to retry), so the retry
            # policy never applies — dependents settle immediately
            self._resolve_dependents_of(job.job_id)
            return
        step_runtime = max(step.runtime_s for _, step in steps)
        runtime = min(step_runtime, job.descriptor.time_limit_s)
        timed_out = step_runtime > job.descriptor.time_limit_s
        self._commit(
            "start",
            {
                "job_id": job.job_id,
                "node_list": list(node_names),
                "start_time": self.sim.now,
                "completion_time": self.sim.now + runtime,
                "timed_out": timed_out,
                "energy_start_j": sum(
                    slurmd.node.true_energy_joules for slurmd, _ in steps
                ),
                "handles": {slurmd.hostname: step.handle for slurmd, step in steps},
            },
        )
        self._completion_events[job.job_id] = self.sim.call_in(
            runtime,
            lambda jid=job.job_id, to=timed_out: self._complete_job(jid, to),
            name=f"job{job.job_id}-done",
        )
        telemetry.counter("sched_jobs_started_total").inc()
        telemetry.log_event(
            "job.started", job_id=job.job_id, nodes=",".join(node_names),
            tasks=job.descriptor.num_tasks, sim_time=self.sim.now,
        )

    def _complete_job(self, job_id: int, timed_out: bool) -> None:
        if self._halted:
            return
        job = self.jobs[job_id]
        if job.state is not JobState.RUNNING:
            return
        workload = None
        energy_end = 0.0
        for hostname in job.node_list:
            slurmd = self._slurmd(hostname)
            stopped = slurmd.node.stop_workload(job.workload_handles[hostname])
            if hostname == job.node:
                workload = stopped
            energy_end += slurmd.node.true_energy_joules
        if timed_out:
            state, exit_code = JobState.TIMEOUT, 1
            stdout = "slurmstepd: error: *** JOB CANCELLED DUE TO TIME LIMIT ***\n"
        else:
            state, exit_code = JobState.COMPLETED, 0
            render = getattr(workload, "render_output", None)
            stdout = render() if callable(render) else ""
        self._commit(
            "finish",
            {
                "job_id": job_id,
                "end_time": self.sim.now,
                "timed_out": timed_out,
                "energy_end_j": energy_end,
                "state": state.value,
                "exit_code": exit_code,
                "stdout": stdout,
            },
        )
        self._completion_events.pop(job_id, None)
        telemetry.counter(
            "sched_jobs_timeout_total" if timed_out else "sched_jobs_completed_total"
        ).inc()
        # retry-on-failure runs before dependent resolution: a job about
        # to be requeued is not a settled outcome, so its afterok
        # dependents keep waiting and its afternotok dependents do not
        # fire until the final attempt fails
        if job.state is not JobState.COMPLETED and self._should_auto_reschedule(job):
            self.reschedule(job_id)
        else:
            self._resolve_dependents_of(job_id)
        self._request_schedule()

    # ------------------------------------------------------------------
    # dependencies: resolution, release, never-satisfied propagation
    # ------------------------------------------------------------------
    def _resolve_dependents_of(self, pred_id: int) -> None:
        """A job settled terminally: re-evaluate everything waiting on it."""
        for job_id in self.depgraph.dependents_of(pred_id):
            if job_id in self.depgraph:  # a cascade may have settled it
                self._resolve_job_deps(job_id, repredict=True)

    def _resolve_job_deps(self, job_id: int, *, repredict: bool) -> None:
        """Evaluate one held job's full edge set against predecessor state.

        Edges are never dropped one at a time — the graph only mutates at
        journaled records (release or cancel), which is what keeps the
        crash-replay digest invariant intact.
        """
        job = self.jobs[job_id]
        if job.state is not JobState.PENDING:
            return
        statuses = [
            dependency_status(kind, self.jobs[pred].state)
            for kind, pred in self.depgraph.edges_of(job_id)
        ]
        if any(s == "never" for s in statuses):
            self._cancel_never_satisfied(job_id)
        elif all(s == "ok" for s in statuses):
            self._release_job(job_id, repredict=repredict)

    def _release_job(self, job_id: int, *, repredict: bool) -> None:
        """Every dependency satisfied: let the scheduler see the job.

        When released by a predecessor finishing (``repredict=True``) the
        energy-optimal prediction is re-run through the *live* provider —
        models promoted and nodes drained since submit time are picked up
        — and the attempt's ``(model_id, model_version)`` is recorded.
        At submit-time release the chain ran a moment ago, so attempt 1
        already covers it.
        """
        job = self.jobs[job_id]
        descriptor, attempt = job.descriptor, None
        if repredict:
            descriptor = self._repredict(job)
            attempt = self._attempt_entry(len(job.attempts) + 1, "dep_release")
        self._commit(
            "dep_release",
            {
                "job_id": job_id,
                "descriptor": descriptor_to_dict(descriptor),
                "attempt": attempt,
            },
        )
        telemetry.counter("sched_dep_releases_total").inc()
        if faults.fire("dep.release_crash"):
            self.halt()
            raise ControllerCrashError(
                f"{self.name} crashed after releasing job {job_id} "
                "(injected fault dep.release_crash)"
            )
        self._request_schedule()

    def _cancel_never_satisfied(self, job_id: int) -> None:
        """An edge can never be satisfied: cancel and cascade.

        The dependent's own dependents then see a CANCELLED predecessor
        and settle through the same path (afterany releases, afterok
        cancels onward), so a failed DAG drains instead of deadlocking.
        """
        self._commit(
            "cancel",
            {
                "job_id": job_id,
                "end_time": self.sim.now,
                "was_running": False,
                "energy_end_j": self.jobs[job_id].energy_end_j,
                "reason": "DependencyNeverSatisfied",
            },
        )
        telemetry.counter("sched_dep_never_satisfied_total").inc()
        self._resolve_dependents_of(job_id)

    def _repredict(self, job: Job) -> JobDescriptor:
        """Re-run the plugin chain on a copy of the job's descriptor.

        The live chain sees current conditions (promoted models, drained
        hardware).  Returns the rewritten copy for the caller's record; a
        veto or an invalid rewrite returns the old descriptor — an energy
        optimizer must never block a release or a requeue.
        """
        desc = replace(job.descriptor)
        rc, _ = self.plugin_chain.run(desc, job.descriptor.uid)
        if rc != SLURM_SUCCESS:
            return job.descriptor
        max_cores = max(n.node.total_cores for n in self.nodes)
        try:
            desc.validate(max_cores, cluster_nodes=len(self.nodes))
        except ValueError:
            return job.descriptor
        return desc

    def _should_auto_reschedule(self, job: Job) -> bool:
        """Retry-on-failure policy: workflow members, bounded attempts.

        Only runtime failures qualify — exit 127 (the binary does not
        exist) would fail identically forever.
        """
        if self.config.reschedule_retries <= 0 or not job.descriptor.workflow:
            return False
        if job.exit_code == 127:
            return False
        done = sum(1 for a in job.attempts if a.get("reason") == "reschedule")
        return done < self.config.reschedule_retries

    def reschedule(self, job_id: int) -> int:
        """Requeue a terminally-failed job for another attempt.

        The job returns to PENDING with its runtime state cleared, the
        energy-optimal prediction re-runs through the live provider and
        the new attempt (with its ``model_id``/``model_version``) is
        journaled, so replay reproduces the requeue exactly.  Returns the
        new attempt number.  Used both by ``scontrol``-style operators
        (``chronus workflow reschedule``) and the automatic
        retry-on-failure policy.
        """
        self._fence_check()
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id}")
        if job.state in (JobState.PENDING, JobState.RUNNING):
            raise SubmitError(
                f"job {job_id} is {job.state.value}; only terminal jobs "
                "can be rescheduled"
            )
        if job.state is JobState.COMPLETED:
            raise SubmitError(
                f"job {job_id} completed successfully; nothing to reschedule"
            )
        descriptor = self._repredict(job)
        attempt = self._attempt_entry(len(job.attempts) + 1, "reschedule")
        self._commit(
            "reschedule",
            {
                "job_id": job_id,
                "descriptor": descriptor_to_dict(descriptor),
                "attempt": attempt,
            },
        )
        telemetry.counter("sched_reschedules_total").inc()
        if faults.fire("reschedule.storm"):
            self.halt()
            raise ControllerCrashError(
                f"{self.name} crashed mid-reschedule of job {job_id} "
                "(injected fault reschedule.storm)"
            )
        self._request_schedule()
        return int(attempt["n"])

    # ------------------------------------------------------------------
    # control operations
    # ------------------------------------------------------------------
    def drain_node(self, hostname: str) -> None:
        """Take a node out of scheduling (running jobs keep their cores)."""
        self._fence_check()
        self._slurmd(hostname)  # KeyError on unknown node
        if hostname in self._drained:
            return
        self._commit("drain", {"hostname": hostname})

    def resume_node(self, hostname: str) -> None:
        """Return a drained node to service and re-run the scheduler."""
        self._fence_check()
        self._slurmd(hostname)  # KeyError on unknown node
        if hostname not in self._drained:
            return
        self._commit("resume", {"hostname": hostname})
        self._request_schedule()

    def cancel(self, job_id: int) -> None:
        """scancel: cancel a pending or running job."""
        self._fence_check()
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id}")
        if job.state.is_terminal:
            return
        was_running = job.state is JobState.RUNNING
        energy_end = job.energy_end_j
        if was_running:
            energy_end = 0.0
            for hostname in job.node_list:
                slurmd = self._slurmd(hostname)
                slurmd.node.stop_workload(job.workload_handles[hostname])
                energy_end += slurmd.node.true_energy_joules
        self._commit(
            "cancel",
            {
                "job_id": job_id,
                "end_time": self.sim.now,
                "was_running": was_running,
                "energy_end_j": energy_end,
            },
        )
        ev = self._completion_events.pop(job_id, None)
        if ev is not None:
            ev.cancel()  # type: ignore[attr-defined]
        # anything waiting on the cancelled job settles now: afterany /
        # afternotok dependents release, afterok dependents cascade-cancel
        self._resolve_dependents_of(job_id)
        self._request_schedule()

    def get_job(self, job_id: int) -> Job:
        if job_id not in self.jobs:
            raise KeyError(f"unknown job {job_id}")
        return self.jobs[job_id]

    def job_by_name(self, name: str) -> Optional[int]:
        """The lowest id of a job named ``name``, or None.

        Lowest id, not the first in ``self.jobs``: a restore rebuilds the
        table from a snapshot in key-string order (1, 10, 11, 2, ...), so
        the first match there can be an array task instead of its master.
        An index kept by :meth:`_apply` answers in O(1); no job ever
        leaves ``self.jobs``, so an entry never goes stale.
        """
        return self._by_name.get(name)

    def pending_jobs(self) -> list[Job]:
        return [self.jobs[j] for j in self._pending]

    def running_jobs(self) -> list[Job]:
        return [self.jobs[j] for j in self._running]

    def active_jobs(self) -> list[Job]:
        return self.pending_jobs() + self.running_jobs()

    def wait_for_job(self, job_id: int, *, max_events: int = 1_000_000) -> Job:
        """Advance the simulation until ``job_id`` reaches a terminal state."""
        job = self.get_job(job_id)
        while not job.state.is_terminal:
            executed = self.sim.run(max_events=1)
            if executed == 0:
                raise RuntimeError(
                    f"simulation went idle while job {job_id} is {job.state.value}"
                )
            max_events -= 1
            if max_events <= 0:
                raise RuntimeError(f"wait_for_job({job_id}) exceeded event budget")
        return job
