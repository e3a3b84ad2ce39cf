"""Workflow-aware scheduling: dependency DAGs, reschedule, provenance.

Covers the four layers end to end — the ``--dependency``/``--workflow``
wire syntax, the controller's DAG hold/release/cancel machinery, the
array ``%limit`` throttle, energy-aware reschedule with model lineage,
and the per-workflow rollup agreement between the controller and the
journal-fed slurmdbd (including across a leader failover).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domain.errors import (
    ControllerCrashError,
    DependencyCycleError,
    DependencyError,
    NoLeaderError,
    StaleEpochError,
)
from repro.serving.protocol import PredictResponse
from repro.slurm.batch_script import (
    BatchScriptError,
    build_script,
    parse_batch_script,
)
from repro.slurm.cluster import HPCG_BINARY, SimCluster
from repro.slurm.config import SlurmConfig
from repro.slurm.controller import SubmitError
from repro.slurm.dbd import SlurmDbd
from repro.slurm.ha import DRILL_BINARY, build_drill_plane
from repro.slurm.job import JobDescriptor, JobState
from repro.slurm.plugins.eco import JobSubmitEco, PluginState
from repro.slurm.workflow import (
    DEPENDENCY_KINDS,
    DependencyGraph,
    dependency_status,
    format_dependency_spec,
    parse_dependency_spec,
    workflow_rollup,
)

FAIL_SCRIPT = "#!/bin/bash\n#SBATCH --ntasks=1\nsrun /bin/unknown-app\n"


# ----------------------------------------------------------------------
# wire syntax
# ----------------------------------------------------------------------
edge_lists = st.lists(
    st.tuples(
        st.sampled_from(DEPENDENCY_KINDS),
        st.integers(min_value=1, max_value=99_999),
    ),
    max_size=8,
)


class TestDependencySpec:
    @given(edge_lists)
    def test_format_parse_round_trip(self, edges):
        deduped = []
        for edge in edges:
            if edge not in deduped:
                deduped.append(edge)
        assert parse_dependency_spec(format_dependency_spec(edges)) == tuple(deduped)

    def test_multi_id_clauses_and_dedup(self):
        assert parse_dependency_spec("afterok:3:5,afterany:7,afterok:3") == (
            ("afterok", 3),
            ("afterok", 5),
            ("afterany", 7),
        )

    def test_empty_spec_is_no_edges(self):
        assert parse_dependency_spec("") == ()
        assert parse_dependency_spec("   ") == ()

    @pytest.mark.parametrize(
        "spec",
        ["after:3", "afterok", "afterok:", "afterok:nope", "afterok:0",
         "afterok:3,,afterany:4", "before:2"],
    )
    def test_malformed_specs_are_typed_errors(self, spec):
        with pytest.raises(DependencyError):
            parse_dependency_spec(spec)

    def test_batch_script_carries_deps_and_workflow(self):
        script = build_script(
            8, 2_200_000, 1, HPCG_BINARY,
            dependency="afterok:3:5,afternotok:9", workflow="etl",
        )
        desc = parse_batch_script(script)
        assert desc.dependency == (
            ("afterok", 3), ("afterok", 5), ("afternotok", 9),
        )
        assert desc.workflow == "etl"

    def test_short_dash_d_alias(self):
        script = (
            "#!/bin/bash\n#SBATCH -d afterany:4\n#SBATCH --ntasks=2\n"
            f"srun {HPCG_BINARY}\n"
        )
        assert parse_batch_script(script).dependency == (("afterany", 4),)

    @pytest.mark.parametrize(
        "directive",
        ["#SBATCH --dependency=", "#SBATCH --dependency=after:oops",
         "#SBATCH --workflow="],
    )
    def test_malformed_directives_fail_the_script(self, directive):
        script = f"#!/bin/bash\n{directive}\n#SBATCH --ntasks=2\nsrun {HPCG_BINARY}\n"
        with pytest.raises(BatchScriptError):
            parse_batch_script(script)


# ----------------------------------------------------------------------
# the DAG itself
# ----------------------------------------------------------------------
class TestDependencyGraph:
    def test_cycle_rejected_at_add_time(self):
        graph = DependencyGraph()
        graph.add(2, [("afterok", 1)])
        graph.add(3, [("afterok", 2)])
        with pytest.raises(DependencyCycleError):
            graph.add(1, [("afterany", 3)])
        # the rejected add left no trace
        assert 1 not in graph

    def test_self_edge_rejected(self):
        graph = DependencyGraph()
        with pytest.raises(DependencyCycleError):
            graph.add(4, [("afterok", 4)])

    def test_capture_round_trip(self):
        graph = DependencyGraph()
        graph.add(5, [("afterok", 1), ("afternotok", 2)])
        restored = DependencyGraph.from_capture(graph.capture())
        assert restored.edges_of(5) == graph.edges_of(5)
        assert restored.dependents_of(1) == (5,)

    def test_dependency_status_matrix(self):
        assert dependency_status("afterok", JobState.RUNNING) == "wait"
        assert dependency_status("afterok", JobState.COMPLETED) == "ok"
        assert dependency_status("afterok", JobState.FAILED) == "never"
        assert dependency_status("afterany", JobState.CANCELLED) == "ok"
        assert dependency_status("afternotok", JobState.COMPLETED) == "never"
        assert dependency_status("afternotok", JobState.TIMEOUT) == "ok"


# ----------------------------------------------------------------------
# controller hold / release / cancel
# ----------------------------------------------------------------------
def _hpcg(cores: int, **kwargs) -> JobDescriptor:
    return JobDescriptor(num_tasks=cores, binary=HPCG_BINARY, **kwargs)


class TestControllerDependencies:
    def test_unknown_predecessor_is_rejected(self, cluster):
        with pytest.raises(DependencyError, match="unknown job 42"):
            cluster.ctld.submit(_hpcg(4, dependency=(("afterok", 42),)))

    def test_array_with_dependency_is_rejected(self, cluster):
        with pytest.raises(SubmitError, match="array"):
            cluster.ctld.submit(
                _hpcg(4, array=(0, 1), dependency=(("afterok", 1),))
            )

    def test_held_then_released_in_order(self):
        cluster = SimCluster(seed=7, hpcg_duration_s=60.0)
        j1 = cluster.ctld.submit(_hpcg(32, workflow="chain"))
        j2 = cluster.ctld.submit(
            _hpcg(32, workflow="chain", dependency=(("afterok", j1),))
        )
        job2 = cluster.ctld.get_job(j2)
        assert job2.state is JobState.PENDING
        assert job2.pending_reason == "Dependency"
        cluster.ctld.wait_for_job(j2)
        job1 = cluster.ctld.get_job(j1)
        assert job2.state is JobState.COMPLETED
        assert job2.start_time >= job1.end_time
        # the release re-ran the prediction chain and recorded an attempt
        assert [a["reason"] for a in job2.attempts] == ["submit", "dep_release"]

    def test_afterok_on_failed_pred_cancels_immediately(self, cluster):
        j1 = cluster.ctld.submit(JobDescriptor(num_tasks=1, binary="/bin/nope"))
        assert cluster.ctld.get_job(j1).state is JobState.FAILED
        j2 = cluster.ctld.submit(_hpcg(4, dependency=(("afterok", j1),)))
        job2 = cluster.ctld.get_job(j2)
        assert job2.state is JobState.CANCELLED
        assert job2.pending_reason == "DependencyNeverSatisfied"

    def test_afternotok_and_afterany_semantics(self, cluster):
        j1 = cluster.ctld.submit(JobDescriptor(num_tasks=1, binary="/bin/nope"))
        j_notok = cluster.ctld.submit(_hpcg(4, dependency=(("afternotok", j1),)))
        j_any = cluster.ctld.submit(_hpcg(4, dependency=(("afterany", j1),)))
        cluster.ctld.wait_for_job(j_notok)
        cluster.ctld.wait_for_job(j_any)
        assert cluster.ctld.get_job(j_notok).state is JobState.COMPLETED
        assert cluster.ctld.get_job(j_any).state is JobState.COMPLETED
        # and afternotok on a *successful* predecessor never fires
        ok = cluster.ctld.submit(_hpcg(4))
        cluster.ctld.wait_for_job(ok)
        j_never = cluster.ctld.submit(_hpcg(4, dependency=(("afternotok", ok),)))
        assert cluster.ctld.get_job(j_never).state is JobState.CANCELLED

    def test_never_satisfied_cascades_through_held_dag(self):
        cluster = SimCluster(seed=7, hpcg_duration_s=30.0)
        blocker = cluster.ctld.submit(_hpcg(32))  # owns the whole node
        doomed = cluster.ctld.submit(
            JobDescriptor(num_tasks=32, binary="/bin/nope")
        )
        mid = cluster.ctld.submit(_hpcg(4, dependency=(("afterok", doomed),)))
        leaf = cluster.ctld.submit(_hpcg(4, dependency=(("afterok", mid),)))
        assert cluster.ctld.get_job(mid).pending_reason == "Dependency"
        cluster.ctld.wait_for_job(blocker)
        cluster.sim.run(until=cluster.sim.now + 1.0)
        for jid in (mid, leaf):
            job = cluster.ctld.get_job(jid)
            assert job.state is JobState.CANCELLED
            assert job.pending_reason == "DependencyNeverSatisfied"

    def test_dependency_on_array_master_waits_for_all_tasks(self):
        cluster = SimCluster(seed=7, hpcg_duration_s=30.0)
        master = cluster.ctld.submit(_hpcg(32, array=(0, 1, 2)))
        dep = cluster.ctld.submit(
            _hpcg(4, workflow="arr", dependency=(("afterok", master),))
        )
        cluster.ctld.wait_for_job(dep)
        tasks = cluster.ctld.array_tasks(master)
        assert all(t.state is JobState.COMPLETED for t in tasks)
        dep_job = cluster.ctld.get_job(dep)
        assert dep_job.start_time >= max(t.end_time for t in tasks)

    @settings(max_examples=8, deadline=None)
    @given(st.data())
    def test_release_order_invariant(self, data):
        """No job ever starts before an afterok/afterany pred ended."""
        n = data.draw(st.integers(min_value=2, max_value=5), label="n_jobs")
        cluster = SimCluster(seed=7, hpcg_duration_s=45.0)
        ids: list[int] = []
        edges: list[tuple[int, str, int]] = []  # (job, kind, pred)
        for i in range(n):
            deps = ()
            if ids and data.draw(st.booleans(), label=f"dep_{i}"):
                pred = data.draw(st.sampled_from(ids), label=f"pred_{i}")
                kind = data.draw(
                    st.sampled_from(("afterok", "afterany")), label=f"kind_{i}"
                )
                deps = ((kind, pred),)
            cores = data.draw(
                st.sampled_from((8, 16, 32)), label=f"cores_{i}"
            )
            jid = cluster.ctld.submit(
                _hpcg(cores, workflow="dag", dependency=deps)
            )
            ids.append(jid)
            edges.extend((jid, kind, pred) for kind, pred in deps)
        for jid in ids:
            cluster.ctld.wait_for_job(jid)
        for jid, _, pred in edges:
            job, pred_job = cluster.ctld.get_job(jid), cluster.ctld.get_job(pred)
            assert job.state is JobState.COMPLETED
            assert job.start_time >= pred_job.end_time


# ----------------------------------------------------------------------
# the --array %limit throttle
# ----------------------------------------------------------------------
class TestArrayThrottle:
    def test_limit_caps_concurrency_through_the_storm(self):
        cluster = SimCluster(seed=7, hpcg_duration_s=30.0)
        master = cluster.ctld.submit(
            _hpcg(4, array=tuple(range(12)), array_limit=2)
        )
        tasks = cluster.ctld.array_tasks(master)
        running = [t for t in tasks if t.state is JobState.RUNNING]
        assert len(running) == 2  # node could fit 8, the limit says 2
        throttled = [
            t for t in tasks if t.pending_reason == "JobArrayTaskLimit"
        ]
        assert throttled
        done = cluster.ctld.wait_for_array(master)
        assert all(t.state is JobState.COMPLETED for t in done)
        intervals = [(t.start_time, t.end_time) for t in done]
        for start, _ in intervals:
            overlapping = sum(1 for s, e in intervals if s <= start < e)
            assert overlapping <= 2

    def test_unlimited_array_fills_the_node(self):
        cluster = SimCluster(seed=7, hpcg_duration_s=30.0)
        master = cluster.ctld.submit(_hpcg(4, array=tuple(range(12))))
        tasks = cluster.ctld.array_tasks(master)
        assert sum(1 for t in tasks if t.state is JobState.RUNNING) == 8


# ----------------------------------------------------------------------
# energy-aware reschedule with model lineage
# ----------------------------------------------------------------------
class _StubProvider:
    """A live prediction provider whose registry identity can be bumped."""

    def __init__(self, cores: int = 8) -> None:
        self.cores = cores
        self.version = 1
        self.calls = 0

    def predict(self, request) -> PredictResponse:
        self.calls += 1
        return PredictResponse(
            cores=self.cores,
            threads_per_core=1,
            frequency=2_200_000,
            model_id=7,
            model_version=self.version,
        )


def _eco_cluster(retries: int = 2) -> "tuple[SimCluster, _StubProvider]":
    cluster = SimCluster(
        seed=7,
        hpcg_duration_s=600.0,
        config=SlurmConfig(
            job_submit_plugins=("eco",), reschedule_retries=retries
        ),
    )
    provider = _StubProvider()
    plugin = JobSubmitEco(
        cluster.node, provider=provider, state=PluginState("activated")
    )
    cluster.ctld.register_plugin(plugin)
    return cluster, provider


class TestReschedule:
    def test_auto_retry_repredicts_through_live_provider(self):
        cluster, provider = _eco_cluster(retries=2)
        jid = cluster.ctld.submit(
            _hpcg(32, workflow="retry", time_limit_s=60)
        )
        assert provider.calls == 1
        provider.version = 2  # a model promotion lands mid-workflow
        job = cluster.ctld.wait_for_job(jid)
        assert job.state is JobState.TIMEOUT
        reasons = [a["reason"] for a in job.attempts]
        assert reasons == ["submit", "reschedule", "reschedule"]
        lineage = [(a["model_id"], a["model_version"]) for a in job.attempts]
        assert lineage == [(7, 1), (7, 2), (7, 2)]
        assert provider.calls == 3  # every requeue re-ran the prediction

    def test_exit_127_is_never_retried(self):
        cluster, _ = _eco_cluster(retries=3)
        jid = cluster.ctld.submit(
            JobDescriptor(num_tasks=1, binary="/bin/nope", workflow="w")
        )
        job = cluster.ctld.get_job(jid)
        assert job.state is JobState.FAILED
        assert [a["reason"] for a in job.attempts] == ["submit"]

    def test_manual_reschedule_guards(self, cluster):
        done = cluster.submit_and_wait(
            build_script(4, 2_200_000, 1, HPCG_BINARY)
        )
        with pytest.raises(SubmitError, match="completed"):
            cluster.ctld.reschedule(done.job_id)
        running = cluster.ctld.submit(_hpcg(32))
        with pytest.raises(SubmitError, match="terminal"):
            cluster.ctld.reschedule(running)
        with pytest.raises(KeyError):
            cluster.ctld.reschedule(4242)

    def test_rollup_counts_each_lifecycle_once(self):
        cluster, provider = _eco_cluster(retries=1)
        jid = cluster.ctld.submit(
            _hpcg(32, workflow="retry", time_limit_s=60)
        )
        provider.version = 3
        job = cluster.ctld.wait_for_job(jid)
        roll = workflow_rollup(cluster.ctld.jobs.values())["retry"]
        assert roll["jobs"] == 1
        assert roll["attempts"] == len(job.attempts) == 2
        assert roll["models"] == ["7:v1", "7:v3"]
        # the latest lifecycle's joules, exactly once — not the sum of
        # every attempt's energy
        assert roll["total_energy_j"] == pytest.approx(job.consumed_energy_j)


# ----------------------------------------------------------------------
# slurmdbd agreement off the shared journal
# ----------------------------------------------------------------------
class TestDbdRollup:
    def test_dbd_workflows_match_controller_rollup(self, tmp_path, open_statesave):
        statesave = open_statesave(tmp_path / "ss", fsync=True)
        cluster = SimCluster(
            seed=7, hpcg_duration_s=60.0, statesave=statesave
        )
        j1 = cluster.ctld.submit(_hpcg(16, workflow="wf"))
        j2 = cluster.ctld.submit(
            _hpcg(16, workflow="wf", dependency=(("afterany", j1),))
        )
        cluster.ctld.wait_for_job(j2)
        dbd = SlurmDbd(statesave)
        dbd.pump()
        mine = workflow_rollup(cluster.ctld.jobs.values())["wf"]
        theirs = dbd.workflows()["wf"]
        assert theirs["job_ids"] == mine["job_ids"]
        assert theirs["attempts"] == mine["attempts"]
        assert theirs["models"] == mine["models"]
        assert theirs["total_energy_j"] == pytest.approx(
            mine["total_energy_j"]
        )
        # at-least-once delivery: pumping the same journal again must
        # not double anything
        dbd.pump()
        again = dbd.workflows()["wf"]
        assert again["total_energy_j"] == pytest.approx(
            mine["total_energy_j"]
        )
        assert again["attempts"] == mine["attempts"]


# ----------------------------------------------------------------------
# failover: held dependencies survive a leader kill
# ----------------------------------------------------------------------
class TestFailover:
    def test_backup_releases_dependencies_held_at_the_kill(self, tmp_path, request):
        drill = build_drill_plane(str(tmp_path / "ss"))
        request.addfinalizer(drill.close)
        sim = drill.sim
        leader = drill.plane.leader()
        j1 = leader.submit(
            JobDescriptor(
                name="wf-a", num_tasks=1, binary=DRILL_BINARY,
                time_limit_s=120, workflow="wf",
            )
        )
        j2 = leader.submit(
            JobDescriptor(
                name="wf-b", num_tasks=1, binary=DRILL_BINARY,
                time_limit_s=120, workflow="wf",
                dependency=(("afterok", j1),),
            )
        )
        sim.run(until=2.0)
        assert leader.jobs[j1].state is JobState.RUNNING
        assert leader.jobs[j2].pending_reason == "Dependency"
        drill.leader_peer().kill()

        ctld = None
        for _ in range(120):
            try:
                sim.run(until=sim.now + 2.0)
            except (ControllerCrashError, StaleEpochError):
                pass
            drill.restart_dead_peers()
            try:
                ctld = drill.plane.leader()
            except NoLeaderError:
                continue
            if all(ctld.jobs[j].state.is_terminal for j in (j1, j2)):
                break
        assert ctld is not None
        assert sum(p.takeovers for p in drill.peers) >= 1
        job1, job2 = ctld.jobs[j1], ctld.jobs[j2]
        assert job1.state is JobState.COMPLETED
        assert job2.state is JobState.COMPLETED
        assert job2.start_time >= job1.end_time
        assert [a["reason"] for a in job2.attempts] == [
            "submit", "dep_release",
        ]
        drill.dbd.pump()
        theirs = drill.dbd.workflows()["wf"]
        mine = workflow_rollup(ctld.jobs.values())["wf"]
        assert theirs["total_energy_j"] == pytest.approx(
            mine["total_energy_j"]
        )
        assert theirs["attempts"] == mine["attempts"]
