"""Shared fixtures.

``steady_rows``/``paper_rows`` build benchmark data analytically through
the calibrated steady-state models (milliseconds) instead of driving the
full discrete-event pipeline, so optimizer/service tests stay fast; the
integration tests exercise the real pipeline separately.
"""

from __future__ import annotations

import pytest

from repro.analysis.calibration import steady_state_point
from repro.core.domain.benchmark import BenchmarkResult
from repro.core.domain.configuration import Configuration
from repro.hardware.cpu import AMD_EPYC_7502P
from repro.hardware.node import SimulatedNode
from repro.hardware.power import PowerModel
from repro.hardware.thermal import ThermalParams
from repro.hpcg import reference
from repro.hpcg.performance_model import HpcgPerformanceModel, PAPER_TOTAL_FLOPS
from repro.simkernel.engine import Simulator
from repro.simkernel.random import RandomStreams
from repro.slurm.cluster import SimCluster
from repro.slurm.statesave import StateSave


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def node(sim: Simulator) -> SimulatedNode:
    return SimulatedNode(sim)


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(12345)


@pytest.fixture
def cluster() -> SimCluster:
    """Completion-mode cluster (jobs run the full 104^3 workload)."""
    return SimCluster(seed=7)


@pytest.fixture
def sweep_cluster() -> SimCluster:
    """Time-bounded cluster (10-minute HPCG jobs, for sweep tests)."""
    return SimCluster(seed=7, hpcg_duration_s=600.0)


@pytest.fixture
def open_statesave(tmp_path):
    """Opens a :class:`StateSave` (in ``tmp_path`` unless given a
    directory, without fsync unless asked); each one it opened is closed
    when the test ends."""
    opened: list[StateSave] = []

    def open_(path=None, *, fsync: bool = False, **kwargs) -> StateSave:
        ss = StateSave(str(tmp_path if path is None else path), fsync=fsync, **kwargs)
        opened.append(ss)
        return ss

    yield open_
    for ss in opened:
        ss.close()


def _steady_benchmark_rows(configs: list[Configuration]) -> list[BenchmarkResult]:
    perf = HpcgPerformanceModel()
    power = PowerModel(AMD_EPYC_7502P)
    thermal = ThermalParams()
    rows = []
    for cfg in configs:
        sp = steady_state_point(
            cfg.cores, cfg.frequency_ghz, cfg.hyperthread, perf, power, thermal
        )
        runtime = PAPER_TOTAL_FLOPS / (sp.gflops * 1e9)
        rows.append(
            BenchmarkResult(
                system_id=1,
                application="hpcg",
                configuration=cfg,
                gflops=sp.gflops,
                avg_system_w=sp.sys_w,
                avg_cpu_w=sp.cpu_w,
                avg_cpu_temp_c=sp.temp_c,
                system_energy_j=sp.sys_w * runtime,
                cpu_energy_j=sp.cpu_w * runtime,
                runtime_s=runtime,
            )
        )
    return rows


@pytest.fixture(scope="session")
def steady_rows() -> list[BenchmarkResult]:
    """A 24-point sweep of analytic benchmark rows (fast optimizer food)."""
    configs = Configuration.sweep(
        core_counts=[4, 16, 28, 32],
        frequencies=[1_500_000, 2_200_000, 2_500_000],
    )
    return _steady_benchmark_rows(configs)


@pytest.fixture(scope="session")
def paper_rows() -> list[BenchmarkResult]:
    """All 138 paper configurations as analytic benchmark rows."""
    configs = [
        Configuration(
            cores=p.cores,
            threads_per_core=2 if p.hyperthread else 1,
            frequency=p.freq_khz,
        )
        for p in reference.GFLOPS_PER_WATT
    ]
    return _steady_benchmark_rows(configs)
