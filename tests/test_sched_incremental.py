"""The incremental scheduler must be placement-identical to the reference.

``repro.slurm.scheduler`` stays the executable specification; the
fleet-scale fast path in ``repro.slurm.sched_index`` must produce the
same placements, in the same order, with the same pending reasons — over
randomized clusters and queues (Hypothesis), including drain/resume
mid-storm — while leaving its incremental state exactly as it found it.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.slurm.cluster import HPCG_BINARY, SimCluster
from repro.slurm.config import SlurmConfig
from repro.slurm.job import Job, JobDescriptor, JobState
from repro.slurm.sched_index import ClusterState, FreeCoreIndex
from repro.slurm.scheduler import NodeView, backfill_schedule, fifo_schedule


def make_job(job_id: int, tasks: int, limit_s: int = 600, nodes: int = 1) -> Job:
    return Job(
        job_id=job_id,
        descriptor=JobDescriptor(
            name=f"j{job_id}", num_tasks=tasks, time_limit_s=limit_s, nodes=nodes
        ),
        submit_time=0.0,
    )


# ---------------------------------------------------------------------------
# FreeCoreIndex unit behaviour
# ---------------------------------------------------------------------------
class TestFreeCoreIndex:
    def test_basic_queries(self):
        idx = FreeCoreIndex([4, 0, 8, 2])
        assert idx.max_free() == 8
        assert idx.find_first(3) == 0
        assert idx.find_first(5) == 2
        assert idx.find_first(3, start=1) == 2
        assert idx.find_first(9) is None
        assert idx.count_ge(2) == 3
        assert idx.find_k(2, 3) == [0, 2, 3]
        assert idx.find_k(2, 4) is None

    def test_set_and_add_update_queries(self):
        idx = FreeCoreIndex([4, 4, 4])
        idx.add(1, -4)
        assert idx.find_k(4, 3) is None
        assert idx.find_k(4, 2) == [0, 2]
        idx.set(1, 6)
        assert idx.max_free() == 6
        assert idx.find_first(5) == 1

    def test_single_node(self):
        idx = FreeCoreIndex([32])
        assert idx.find_first(32) == 0
        assert idx.find_first(33) is None
        idx.add(0, -32)
        assert idx.find_first(1) is None

    @settings(max_examples=80, deadline=None)
    @given(
        values=st.lists(st.integers(0, 64), min_size=1, max_size=33),
        need=st.integers(1, 64),
        start=st.integers(0, 32),
        updates=st.lists(
            st.tuples(st.integers(0, 32), st.integers(0, 64)), max_size=8
        ),
    )
    def test_matches_brute_force(self, values, need, start, updates):
        idx = FreeCoreIndex(values)
        for i, v in updates:
            if i < len(values):
                values[i] = v
                idx.set(i, v)
        expect_first = next(
            (i for i in range(start, len(values)) if values[i] >= need), None
        )
        assert idx.find_first(need, start) == expect_first
        assert idx.count_ge(need) == sum(1 for v in values if v >= need)
        want = [i for i, v in enumerate(values) if v >= need]
        for k in (1, 2, len(want) or 1, len(want) + 1):
            got = idx.find_k(need, k)
            assert got == (want[:k] if len(want) >= k else None)


# ---------------------------------------------------------------------------
# pass-level parity with the reference schedulers
# ---------------------------------------------------------------------------
node_strategy = st.lists(
    st.tuples(
        st.integers(1, 32),  # total cores
        st.lists(  # running steps: (cores, remaining seconds)
            st.tuples(st.integers(1, 8), st.integers(1, 5000)), max_size=3
        ),
    ),
    min_size=1,
    max_size=6,
)

job_strategy = st.lists(
    st.tuples(
        st.integers(1, 40),  # num_tasks
        st.integers(60, 7200),  # time limit
        st.integers(1, 3),  # nodes requested
    ),
    min_size=1,
    max_size=12,
)


def build_state(nodes_spec, drained=()):
    """A ClusterState and matching reference NodeViews from one spec."""
    state = ClusterState(
        (f"node{i + 1:03d}", total, total) for i, (total, _) in enumerate(nodes_spec)
    )
    for i, (total, running) in enumerate(nodes_spec):
        name = f"node{i + 1:03d}"
        free = total
        for cores, remaining in running:
            cores = min(cores, free)
            if cores < 1:
                break
            state.on_job_start([name], cores, float(remaining))
            free -= cores
    for name in drained:
        state.drain(name)
    return state


def reference_views(state: ClusterState) -> list[NodeView]:
    """Fresh reference-shaped views (the reference mutates its views)."""
    return state.node_views()


def make_queue(jobs_spec, node_count):
    jobs = []
    for i, (tasks, limit, nodes) in enumerate(jobs_spec):
        nodes = min(nodes, node_count, tasks)
        jobs.append(make_job(i + 1, tasks, limit, nodes))
    return jobs


def assert_parity(placements_ref, placements_inc, jobs_ref, jobs_inc):
    assert [
        (p.job.job_id, p.node_names) for p in placements_ref
    ] == [(p.job.job_id, p.node_names) for p in placements_inc]
    assert [j.pending_reason for j in jobs_ref] == [
        j.pending_reason for j in jobs_inc
    ]


class TestPassParity:
    @settings(max_examples=120, deadline=None)
    @given(nodes_spec=node_strategy, jobs_spec=job_strategy)
    def test_fifo_identical(self, nodes_spec, jobs_spec):
        state = build_state(nodes_spec)
        jobs_ref = make_queue(jobs_spec, len(nodes_spec))
        jobs_inc = make_queue(jobs_spec, len(nodes_spec))
        before = state.node_views()
        ref = fifo_schedule(jobs_ref, reference_views(state))
        inc = state.fifo_pass(jobs_inc)
        assert_parity(ref, inc, jobs_ref, jobs_inc)
        assert state.node_views() == before  # pass leaves no residue

    @settings(max_examples=120, deadline=None)
    @given(nodes_spec=node_strategy, jobs_spec=job_strategy)
    # the head's spare cores at its shadow time are spent by job 2, so
    # job 3 must not backfill onto the same node past the shadow
    @example(
        nodes_spec=[(32, [(8, 1000), (8, 1000)])],
        jobs_spec=[(24, 600, 1), (4, 7200, 1), (8, 7200, 1)],
    )
    def test_backfill_identical(self, nodes_spec, jobs_spec):
        state = build_state(nodes_spec)
        jobs_ref = make_queue(jobs_spec, len(nodes_spec))
        jobs_inc = make_queue(jobs_spec, len(nodes_spec))
        before = state.node_views()
        ref = backfill_schedule(
            jobs_ref, reference_views(state), 0.0, default_limit_s=600
        )
        inc = state.backfill_pass(jobs_inc, 0.0, default_limit_s=600)
        assert_parity(ref, inc, jobs_ref, jobs_inc)
        assert state.node_views() == before

    @settings(max_examples=80, deadline=None)
    @given(
        nodes_spec=node_strategy,
        jobs_spec=job_strategy,
        drain_mask=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    def test_backfill_identical_with_drained_nodes(
        self, nodes_spec, jobs_spec, drain_mask
    ):
        drained = [
            f"node{i + 1:03d}"
            for i in range(len(nodes_spec))
            if drain_mask[i % len(drain_mask)]
        ]
        state = build_state(nodes_spec, drained=drained)
        jobs_ref = make_queue(jobs_spec, len(nodes_spec))
        jobs_inc = make_queue(jobs_spec, len(nodes_spec))
        # the reference sees only the non-drained views (what the
        # controller hands it); node_views() already excludes drained
        ref = backfill_schedule(
            jobs_ref, reference_views(state), 0.0, default_limit_s=600
        )
        inc = state.backfill_pass(jobs_inc, 0.0, default_limit_s=600)
        assert_parity(ref, inc, jobs_ref, jobs_inc)

    def test_drain_resume_roundtrip(self):
        state = build_state([(8, []), (8, [])])
        state.drain("node001")
        assert state.is_drained("node001")
        jobs = [make_job(1, 8)]
        inc = state.fifo_pass(jobs)
        assert inc[0].node_names == ("node002",)
        state.resume("node001")
        jobs2 = [make_job(2, 8)]
        inc2 = state.fifo_pass(jobs2)
        assert inc2[0].node_names == ("node001",)


# ---------------------------------------------------------------------------
# controller-level parity: incremental vs SchedulerParameters=reference
# ---------------------------------------------------------------------------
def _storm_outcomes(ctld):
    return {
        j.job_id: (j.state, j.node_list, j.start_time, j.end_time)
        for j in ctld.jobs.values()
    }


def _run_storm(config_text, ops):
    cluster = SimCluster(
        seed=11, n_nodes=4, config=SlurmConfig.parse(config_text),
        hpcg_duration_s=300.0,
    )
    for op, payload in ops:
        if op == "submit":
            tasks, limit, nodes = payload
            cluster.ctld.submit(
                JobDescriptor(
                    name=f"s{tasks}", num_tasks=tasks, time_limit_s=limit,
                    nodes=nodes, binary=HPCG_BINARY,
                )
            )
        elif op == "drain":
            cluster.ctld.drain_node(payload)
        elif op == "resume":
            cluster.ctld.resume_node(payload)
        elif op == "step":
            cluster.sim.run(max_events=payload)
    cluster.sim.run_until_idle()
    return _storm_outcomes(cluster.ctld)


STORM_OPS = [
    ("submit", (64, 1200, 2)),
    ("submit", (32, 600, 1)),
    ("submit", (8, 300, 1)),
    ("step", 2),
    ("drain", "node003"),
    ("submit", (16, 900, 1)),
    ("submit", (128, 2400, 4)),
    ("step", 4),
    ("resume", "node003"),
    ("submit", (4, 120, 1)),
    ("submit", (32, 600, 1)),
]


class TestControllerParity:
    @pytest.mark.parametrize("sched", ["sched/backfill", "sched/builtin"])
    def test_storm_identical_to_reference(self, sched):
        base = f"SchedulerType={sched}\n"
        fast = _run_storm(base, STORM_OPS)
        ref = _run_storm(base + "SchedulerParameters=reference\n", STORM_OPS)
        assert fast == ref

    def test_defer_coalesces_but_matches(self):
        plain = _run_storm("SchedulerType=sched/backfill\n", STORM_OPS)
        deferred = _run_storm(
            "SchedulerType=sched/backfill\nSchedulerParameters=defer\n",
            STORM_OPS,
        )
        assert plain == deferred

    def test_queue_depth_bounds_one_pass(self):
        cluster = SimCluster(
            seed=3, n_nodes=1,
            config=SlurmConfig.parse(
                "SchedulerType=sched/builtin\n"
                "SchedulerParameters=default_queue_depth=1\n"
            ),
            hpcg_duration_s=60.0,
        )
        for _ in range(3):
            cluster.ctld.submit(
                JobDescriptor(
                    name="d", num_tasks=8, time_limit_s=120,
                    binary=HPCG_BINARY,
                )
            )
        # depth=1: each pass examines only the queue head, but completions
        # retrigger passes, so the whole queue still drains eventually
        cluster.sim.run_until_idle()
        assert all(
            j.state is JobState.COMPLETED for j in cluster.ctld.jobs.values()
        )

    def test_drain_unknown_node_raises(self, cluster):
        with pytest.raises(KeyError):
            cluster.ctld.drain_node("node999")
        with pytest.raises(KeyError):
            cluster.ctld.resume_node("node999")

    def test_drained_node_gets_no_new_jobs(self):
        cluster = SimCluster(seed=5, n_nodes=2, hpcg_duration_s=60.0)
        cluster.ctld.drain_node("node001")
        jid = cluster.ctld.submit(
            JobDescriptor(
                name="d", num_tasks=8, time_limit_s=120,
                binary=HPCG_BINARY,
            )
        )
        job = cluster.ctld.get_job(jid)
        assert job.node_list == ("node002",)
        cluster.sim.run_until_idle()

    def test_cluster_state_mirrors_nodes_after_storm(self):
        cluster = SimCluster(seed=8, n_nodes=2, hpcg_duration_s=120.0)
        for tasks in (16, 32, 8, 24):
            cluster.ctld.submit(
                JobDescriptor(
                    name="m", num_tasks=tasks, time_limit_s=600,
                    binary=HPCG_BINARY,
                )
            )
        cluster.sim.run_until_idle()
        for slurmd in cluster.slurmds:
            assert (
                cluster.ctld.cluster_state.free_cores(slurmd.hostname)
                == slurmd.node.free_cores()
            )
