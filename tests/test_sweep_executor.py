"""Determinism and resilience tests for the parallel sweep executor.

The contract under test: parallel and serial executions of the same sweep
produce *identical* ``BenchmarkResult`` sequences (ordering and values),
including when workers die and points are retried serially, and when the
process pool cannot be created at all.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.application import sweep_executor as sweep_executor_module
from repro.core.application.sweep_executor import (
    SweepExecutor,
    resolve_worker_count,
)
from repro.core.domain.configuration import Configuration
from repro.core.domain.errors import ChronusError
from repro.core.repositories.memory_repository import MemoryRepository
from repro.core.runners.sweep_worker import (
    SweepPoint,
    build_sweep_points,
    point_seed,
    run_sweep_point,
)
from repro.core.services.lscpu_info import LscpuSystemInfo
from repro.slurm.cluster import SimCluster

SMALL_SWEEP = [
    Configuration(cores, threads, freq)
    for cores in (4, 8)
    for threads in (1, 2)
    for freq in (1_500_000, 2_200_000)
]


def small_points(duration_s: float = 90.0) -> list[SweepPoint]:
    return build_sweep_points(SMALL_SWEEP, base_seed=11, duration_s=duration_s)


def make_executor(point_runner=run_sweep_point, **kwargs) -> SweepExecutor:
    cluster = SimCluster(seed=11)
    return SweepExecutor(
        MemoryRepository(),
        LscpuSystemInfo(cluster.node),
        point_runner,
        **kwargs,
    )


def worker_only_failure(point: SweepPoint):
    """Raises inside pool workers, succeeds in the parent (retry path)."""
    if multiprocessing.parent_process() is not None:
        raise RuntimeError("injected worker failure")
    return run_sweep_point(point)


def failing_config_runner(point: SweepPoint):
    """Marks every 8-core point as a failed run (skip path)."""
    run = run_sweep_point(point)
    if point.configuration.cores == 8:
        run.success = False
    return run


class TestDeterminism:
    def test_parallel_matches_serial_exactly(self):
        points = small_points()
        serial = make_executor(workers=1).run_sweep(points)
        parallel = make_executor(workers=2).run_sweep(points)
        assert serial == parallel
        assert [r.configuration for r in serial] == SMALL_SWEEP

    def test_pool_is_joined_before_run_sweep_returns(self):
        # a worker still alive at interpreter exit races the pool's exit
        # hook ("OSError: [Errno 9] Bad file descriptor")
        make_executor(workers=2).run_sweep(small_points())
        assert multiprocessing.active_children() == []

    def test_point_seed_depends_only_on_configuration(self):
        a = point_seed(11, SMALL_SWEEP[0])
        assert a == point_seed(11, SMALL_SWEEP[0])
        assert a != point_seed(11, SMALL_SWEEP[1])
        assert a != point_seed(12, SMALL_SWEEP[0])

    def test_worker_failure_retried_serially_same_results(self):
        points = small_points()
        serial = make_executor(workers=1).run_sweep(points)
        flaky = make_executor(worker_only_failure, workers=2).run_sweep(points)
        assert serial == flaky

    def test_pool_unavailable_falls_back_to_serial(self, monkeypatch):
        points = small_points()
        serial = make_executor(workers=1).run_sweep(points)

        def broken_pool(*args, **kwargs):
            raise OSError("no process pool in this sandbox")

        monkeypatch.setattr(
            sweep_executor_module.concurrent.futures,
            "ProcessPoolExecutor",
            broken_pool,
        )
        fallback = make_executor(workers=4).run_sweep(points)
        assert serial == fallback


class TestPersistence:
    def test_batched_repository_writes(self):
        class CountingRepository(MemoryRepository):
            def __init__(self):
                super().__init__()
                self.flushes: list[int] = []

            def save_benchmarks(self, results):
                self.flushes.append(len(list(results)))
                return super().save_benchmarks(results)

        cluster = SimCluster(seed=11)
        repo = CountingRepository()
        executor = SweepExecutor(
            repo,
            LscpuSystemInfo(cluster.node),
            run_sweep_point,
            workers=1,
            batch_size=3,
        )
        rows = executor.run_sweep(small_points())
        assert repo.flushes == [3, 3, 2]
        assert repo.benchmarks_for_system(rows[0].system_id) == rows

    def test_failed_points_skipped(self):
        rows = make_executor(failing_config_runner, workers=1).run_sweep(small_points())
        assert len(rows) == 4
        assert all(r.configuration.cores == 4 for r in rows)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ChronusError, match="no sweep points"):
            make_executor(workers=1).run_sweep([])


class TestWorkerResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("CHRONUS_SWEEP_WORKERS", "7")
        assert resolve_worker_count(3) == 3

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("CHRONUS_SWEEP_WORKERS", "5")
        assert resolve_worker_count(None) == 5

    def test_env_knob_invalid(self, monkeypatch):
        monkeypatch.setenv("CHRONUS_SWEEP_WORKERS", "lots")
        with pytest.raises(ChronusError, match="CHRONUS_SWEEP_WORKERS"):
            resolve_worker_count(None)

    def test_defaults_to_cpu_count_and_floors_at_one(self, monkeypatch):
        monkeypatch.delenv("CHRONUS_SWEEP_WORKERS", raising=False)
        assert resolve_worker_count(None) >= 1
        assert resolve_worker_count(0) == 1
        assert resolve_worker_count(-3) == 1
