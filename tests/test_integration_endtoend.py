"""Integration tests: the paper's full workflow on one simulated cluster.

The sequence of the paper's Figure 4: benchmark -> init-model ->
load-model -> (user sbatch with --comment "chronus") -> job_submit_eco
asks Chronus -> the job runs with the energy-efficient configuration.
"""

import json

import pytest

from repro.core.domain.configuration import Configuration
from repro.core.factory import ChronusApp
from repro.slurm.batch_script import build_script
from repro.slurm.cluster import HPCG_BINARY, SimCluster
from repro.slurm.commands import parse_sbatch_output
from repro.slurm.config import SlurmConfig
from repro.slurm.job import JobState

SWEEP = [
    Configuration(c, t, f)
    for c in (8, 16, 28, 32)
    for f in (1_500_000, 2_200_000, 2_500_000)
    for t in (1, 2)
]


@pytest.fixture
def eco_cluster(tmp_path):
    """Cluster with the eco plugin enabled + a fully-prepared ChronusApp."""
    cluster = SimCluster(
        seed=11,
        config=SlurmConfig.parse("JobSubmitPlugins=eco\n"),
        hpcg_duration_s=300.0,
    )
    app = ChronusApp(cluster, str(tmp_path / "ws"))
    app.benchmark_service.run_benchmarks(SWEEP, clock=app.clock)
    meta = app.init_model_service.run("brute-force", 1, created_at=app.clock())
    app.load_model_service.run(meta.model_id)
    app.enable_eco_plugin()
    # switch back to completion-mode jobs for the "user" submissions
    cluster.hpcg_duration_s = None
    return cluster, app


class TestPaperWorkflow:
    def test_benchmarks_persisted(self, eco_cluster):
        _, app = eco_cluster
        rows = app.repository.benchmarks_for_system(1, "hpcg")
        assert len(rows) == len(SWEEP)

    def test_opted_in_job_gets_rewritten(self, eco_cluster):
        cluster, _ = eco_cluster
        script = build_script(
            8, 2_500_000, 2, HPCG_BINARY, comment="chronus", job_name="user-job"
        )
        job_id = parse_sbatch_output(cluster.commands.sbatch(script))
        job = cluster.ctld.get_job(job_id)
        # the plugin must have overridden the user's wasteful request with
        # the benchmark winner: 32 cores @ 2.2 GHz.  The HT/no-HT gap at 32
        # cores is <1% in the paper — inside measurement noise — so either
        # threads_per_core is an acceptable outcome of a noisy sweep.
        assert job.descriptor.num_tasks == 32
        assert job.descriptor.threads_per_core in (1, 2)
        assert job.descriptor.cpu_freq_min == 2_200_000
        assert job.descriptor.cpu_freq_max == 2_200_000

    def test_non_opted_job_untouched(self, eco_cluster):
        cluster, _ = eco_cluster
        script = build_script(8, 2_500_000, 2, HPCG_BINARY, job_name="plain")
        job_id = parse_sbatch_output(cluster.commands.sbatch(script))
        job = cluster.ctld.get_job(job_id)
        assert job.descriptor.num_tasks == 8
        assert job.descriptor.cpu_freq_min == 2_500_000

    def test_rewritten_job_actually_runs_at_config(self, eco_cluster):
        cluster, _ = eco_cluster
        script = build_script(8, 2_500_000, 2, HPCG_BINARY, comment="chronus")
        job_id = parse_sbatch_output(cluster.commands.sbatch(script))
        job = cluster.ctld.get_job(job_id)
        assert job.state is JobState.RUNNING
        core = job.descriptor and next(iter(cluster.node.allocated_core_ids()))
        freq = cluster.node.read_file(
            f"/sys/devices/system/cpu/cpu{core}/cpufreq/scaling_cur_freq"
        )
        assert freq.strip() == "2200000"
        finished = cluster.ctld.wait_for_job(job_id)
        assert finished.state is JobState.COMPLETED

    def test_eco_job_saves_energy_vs_standard(self, eco_cluster):
        """The headline: the eco-scheduled run consumes ~10% less energy."""
        cluster, _ = eco_cluster
        eco_job = cluster.submit_and_wait(
            build_script(32, 2_500_000, 1, HPCG_BINARY, comment="chronus")
        )
        std_job = cluster.submit_and_wait(
            build_script(32, 2_500_000, 1, HPCG_BINARY)
        )
        saving = 1.0 - eco_job.consumed_energy_j / std_job.consumed_energy_j
        assert 0.07 < saving < 0.14
        # and it costs only a little time (paper: ~2%)
        slowdown = eco_job.elapsed_s / std_job.elapsed_s - 1.0
        assert 0.0 < slowdown < 0.06

    def test_plugin_state_deactivated_via_settings(self, eco_cluster):
        cluster, app = eco_cluster
        app.settings_service.set_state("deactivated")
        app.sync_plugin_state()
        script = build_script(8, 2_500_000, 2, HPCG_BINARY, comment="chronus")
        job_id = parse_sbatch_output(cluster.commands.sbatch(script))
        assert cluster.ctld.get_job(job_id).descriptor.num_tasks == 8

    def test_plugin_state_activated_applies_to_all(self, eco_cluster):
        cluster, app = eco_cluster
        app.settings_service.set_state("activated")
        app.sync_plugin_state()
        script = build_script(8, 2_500_000, 2, HPCG_BINARY, job_name="no-comment")
        job_id = parse_sbatch_output(cluster.commands.sbatch(script))
        assert cluster.ctld.get_job(job_id).descriptor.num_tasks == 32

    def test_perf_floor_comment_picks_faster_config(self, eco_cluster):
        """'chronus perf=0.99' must refuse the 2% slowdown of 2.2 GHz and
        fall back to the fastest family (2.5 GHz)."""
        cluster, _ = eco_cluster
        script = build_script(
            8, 1_500_000, 2, HPCG_BINARY, comment="chronus perf=0.99"
        )
        job_id = parse_sbatch_output(cluster.commands.sbatch(script))
        job = cluster.ctld.get_job(job_id)
        assert job.descriptor.cpu_freq_max == 2_500_000
        assert job.descriptor.num_tasks == 32

    def test_loose_perf_floor_keeps_efficiency_winner(self, eco_cluster):
        cluster, _ = eco_cluster
        script = build_script(
            8, 1_500_000, 2, HPCG_BINARY, comment="chronus perf=0.90"
        )
        job_id = parse_sbatch_output(cluster.commands.sbatch(script))
        job = cluster.ctld.get_job(job_id)
        assert job.descriptor.cpu_freq_max == 2_200_000

    def test_plugin_latency_within_budget(self, eco_cluster):
        """Predictions must fit Slurm's plugin time budget (pre-loaded
        model, no repository access)."""
        cluster, _ = eco_cluster
        script = build_script(8, 2_500_000, 2, HPCG_BINARY, comment="chronus")
        cluster.commands.sbatch(script)
        invocations = cluster.ctld.plugin_chain.invocations
        assert invocations
        assert all(not inv.over_budget for inv in invocations)
        assert all(inv.wall_seconds < 0.5 for inv in invocations)


class TestChronusDownResilience:
    def test_submission_survives_missing_model(self, tmp_path):
        """eco plugin enabled but no model loaded: jobs pass through."""
        cluster = SimCluster(seed=2, config=SlurmConfig.parse("JobSubmitPlugins=eco\n"))
        app = ChronusApp(cluster, str(tmp_path / "ws"))
        app.enable_eco_plugin()
        script = build_script(8, 2_500_000, 1, HPCG_BINARY, comment="chronus")
        job_id = parse_sbatch_output(cluster.commands.sbatch(script))
        job = cluster.ctld.get_job(job_id)
        assert job.descriptor.num_tasks == 8  # unmodified
        assert job.state is JobState.RUNNING


class TestSqlitePersistenceAcrossApps:
    def test_second_app_sees_first_apps_data(self, tmp_path):
        """Each CLI invocation is a fresh process; state must persist in
        the workspace (database + blob + settings)."""
        ws = str(tmp_path / "ws")
        c1 = SimCluster(seed=1, hpcg_duration_s=300.0)
        app1 = ChronusApp(c1, ws)
        app1.benchmark_service.run_benchmarks(SWEEP[:4], clock=app1.clock)
        meta = app1.init_model_service.run("linear-regression", 1)
        app1.load_model_service.run(meta.model_id)

        c2 = SimCluster(seed=2)
        app2 = ChronusApp(c2, ws)
        assert len(app2.repository.benchmarks_for_system(1, "hpcg")) == 4
        cfg = json.loads(app2.slurm_config_service.run_json(1, 0))
        assert set(cfg) == {"cores", "threads_per_core", "frequency"}
