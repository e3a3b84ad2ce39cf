"""Tests for HPL and per-binary model dispatch (paper limitations
6.1.2/6.1.3 fixed).

HPL is compute-bound: its energy-optimal configuration (max frequency,
TDP-capped) differs from HPCG's (2.2 GHz).  With both applications
benchmarked and their models loaded, the eco plugin must rewrite each
job according to *its own* binary.
"""

import pytest

from repro.core.application.benchmark_service import BenchmarkService
from repro.core.domain.configuration import Configuration
from repro.core.factory import ChronusApp
from repro.core.runners.hpl_runner import HplRunner
from repro.hpl import HPL_BINARY
from repro.hpl.model import HplPerformanceModel
from repro.hpl.workload import HplWorkload
from repro.slurm.batch_script import build_script
from repro.slurm.cluster import HPCG_BINARY, SimCluster
from repro.slurm.commands import parse_sbatch_output
from repro.slurm.config import SlurmConfig

SWEEP = [
    Configuration(c, t, f)
    for c in (16, 32)
    for f in (1_500_000, 2_200_000, 2_500_000)
    for t in (1, 2)
]


class TestHplModel:
    def test_compute_bound_scaling(self):
        m = HplPerformanceModel()
        g22 = m.gflops(32, 2_200_000, 1)
        g25 = m.gflops(32, 2_500_000, 1)
        # near-linear in frequency (unlike HPCG's 2% gain)
        assert g25 / g22 == pytest.approx(2.5 / 2.2, rel=0.01)

    def test_plausible_peak_fraction(self):
        m = HplPerformanceModel()
        g = m.gflops(32, 2_500_000, 1)
        peak = 32 * 2.5 * 16  # AVX2 FMA peak of the part
        assert 0.6 < g / peak < 0.85

    def test_ht_does_not_help(self):
        m = HplPerformanceModel()
        assert m.gflops(32, 2_500_000, 2) < m.gflops(32, 2_500_000, 1)

    def test_validation(self):
        m = HplPerformanceModel()
        with pytest.raises(ValueError):
            m.gflops(0, 2_500_000)
        with pytest.raises(ValueError):
            m.gflops(4, 2_500_000, 4)


class TestHplWorkloadOnNode:
    def test_tdp_cap_engages(self, cluster):
        """Full-tilt HPL drives the package into its 180 W limit."""
        wl = HplWorkload(32, 1, 2_500_000)
        cluster.node.start_workload(wl, freq_min_khz=2_500_000, freq_max_khz=2_500_000)
        cluster.sim.call_at(300.0, lambda: None)
        cluster.sim.run()
        bd = cluster.node.instantaneous_power()
        assert bd.cpu_w == pytest.approx(cluster.node.spec.tdp_watts, abs=1.0)

    def test_capped_power_equal_across_top_freqs(self, cluster):
        """2.2 and 2.5 GHz both saturate the cap -> same package power,
        which is why max frequency wins for HPL."""
        powers = {}
        for freq in (2_200_000, 2_500_000):
            h = cluster.node.start_workload(
                HplWorkload(32, 1, freq), freq_min_khz=freq, freq_max_khz=freq
            )
            powers[freq] = cluster.node.instantaneous_power().cpu_w
            cluster.node.stop_workload(h)
        assert powers[2_200_000] == pytest.approx(powers[2_500_000], rel=0.01)

    def test_output_parsable_by_runner(self):
        from repro.core.runners.hpcg_runner import parse_hpcg_rating

        wl = HplWorkload(32, 1, 2_500_000)
        assert parse_hpcg_rating(wl.render_output()) == pytest.approx(
            wl.rating_gflops, abs=1e-4
        )


@pytest.fixture
def dual_app(tmp_path):
    """Cluster + ChronusApp with models for BOTH applications loaded."""
    cluster = SimCluster(
        seed=15,
        config=SlurmConfig.parse("JobSubmitPlugins=eco\n"),
        hpcg_duration_s=300.0,
    )
    app = ChronusApp(cluster, str(tmp_path / "ws"))
    app.register_binary(HPL_BINARY, "hpl")

    # benchmark HPCG
    app.benchmark_service.run_benchmarks(SWEEP, clock=app.clock)
    # benchmark HPL through the second runner implementation
    hpl_bench = BenchmarkService(
        app.repository,
        HplRunner(cluster),
        app.system_service,
        app.system_info,
        sample_interval_s=3.0,
    )
    hpl_bench.run_benchmarks(SWEEP, clock=app.clock)

    hpcg_model = app.init_model_service.run("brute-force", 1, application="hpcg")
    hpl_model = app.init_model_service.run("brute-force", 1, application="hpl")
    app.load_model_service.run(hpcg_model.model_id)
    app.load_model_service.run(hpl_model.model_id)
    app.enable_eco_plugin()
    cluster.hpcg_duration_s = None
    return cluster, app


class TestPerBinaryDispatch:
    def test_different_optimal_configs(self, dual_app):
        _, app = dual_app
        hpcg_rows = app.repository.benchmarks_for_system(1, "hpcg")
        hpl_rows = app.repository.benchmarks_for_system(1, "hpl")
        hpcg_best = max(hpcg_rows, key=lambda r: r.gflops_per_watt).configuration
        hpl_best = max(hpl_rows, key=lambda r: r.gflops_per_watt).configuration
        assert hpcg_best.frequency == 2_200_000
        assert hpl_best.frequency == 2_500_000

    def test_plugin_rewrites_per_binary(self, dual_app):
        cluster, _ = dual_app
        hpcg_id = parse_sbatch_output(cluster.commands.sbatch(
            build_script(8, 1_500_000, 2, HPCG_BINARY, comment="chronus")
        ))
        hpcg_job = cluster.ctld.get_job(hpcg_id)
        cluster.ctld.cancel(hpcg_id)
        hpl_id = parse_sbatch_output(cluster.commands.sbatch(
            build_script(8, 1_500_000, 2, HPL_BINARY, comment="chronus")
        ))
        hpl_job = cluster.ctld.get_job(hpl_id)

        assert hpcg_job.descriptor.cpu_freq_max == 2_200_000
        assert hpl_job.descriptor.cpu_freq_max == 2_500_000
        assert hpcg_job.descriptor.num_tasks == 32
        assert hpl_job.descriptor.num_tasks == 32

    def test_sacct_shows_both_applications(self, dual_app):
        cluster, _ = dual_app
        assert len(cluster.accounting.all()) == 2 * len(SWEEP)

    def test_settings_hold_both_models(self, dual_app):
        _, app = dual_app
        settings = app.local_storage.load()
        assert settings.loaded_model_for(1, "hpcg") is not None
        assert settings.loaded_model_for(1, "hpl") is not None
        assert (
            settings.loaded_model_for(1, "hpcg")["path"]
            != settings.loaded_model_for(1, "hpl")["path"]
        )

    def test_binary_alias_roundtrip(self, dual_app):
        from repro.core.domain.settings import ChronusSettings
        from repro.core.domain.chash import simple_hash

        _, app = dual_app
        settings = app.local_storage.load()
        again = ChronusSettings.from_json(settings.to_json())
        assert again.application_for_binary(simple_hash(HPL_BINARY)) == "hpl"
        assert again.application_for_binary(simple_hash(HPCG_BINARY)) == "hpcg"
        assert again.application_for_binary("unknown") is None

    def test_alias_validation(self):
        from repro.core.domain.settings import ChronusSettings

        with pytest.raises(ValueError):
            ChronusSettings().with_binary_alias(123, "")
