"""Sweep executor — serial vs process-pool execution of a config sweep.

Times a reduced (deterministically seeded) sweep through
:class:`~repro.core.application.sweep_executor.SweepExecutor` on one worker
and on ``min(4, os.cpu_count())`` workers, and asserts the two produce
identical rows.  The wall-clock ratio depends on the host's core count —
``python scripts/gate.py kernels`` prints both walls of the full 138-point
sweep; near-linear scaling needs a multi-core host.
"""

import os
import time

import pytest

from benchmarks.conftest import paper_configurations
from repro.analysis.tables import TextTable
from repro.core.application.sweep_executor import SweepExecutor
from repro.core.repositories.memory_repository import MemoryRepository
from repro.core.runners.sweep_worker import build_sweep_points, run_sweep_point
from repro.core.services.lscpu_info import LscpuSystemInfo
from repro.slurm.cluster import SimCluster

PARALLEL_WORKERS = min(4, os.cpu_count() or 1)


def make_executor(workers: int) -> SweepExecutor:
    cluster = SimCluster(seed=33)
    return SweepExecutor(
        MemoryRepository(),
        LscpuSystemInfo(cluster.node),
        run_sweep_point,
        workers=workers,
    )


@pytest.fixture(scope="module")
def bench_points():
    # every 6th paper configuration: 23 points, same spread of cores/freqs
    return build_sweep_points(
        paper_configurations()[::6], base_seed=33, duration_s=1200.0
    )


def test_sweep_serial(benchmark, bench_points):
    rows = benchmark.pedantic(
        lambda: make_executor(workers=1).run_sweep(bench_points),
        rounds=2,
        warmup_rounds=0,
    )
    assert len(rows) == len(bench_points)


def test_sweep_parallel_matches_serial(benchmark, bench_points):
    serial_started = time.perf_counter()
    serial = make_executor(workers=1).run_sweep(bench_points)
    serial_wall = time.perf_counter() - serial_started

    parallel = benchmark.pedantic(
        lambda: make_executor(workers=PARALLEL_WORKERS).run_sweep(bench_points),
        rounds=2,
        warmup_rounds=0,
    )
    assert parallel == serial

    table = TextTable(
        ["Path", "Workers", "Wall (s)"],
        title=f"\nSweep executor ({len(bench_points)} points, cpu_count={os.cpu_count()})",
    )
    table.add_row("serial", 1, f"{serial_wall:.3f}")
    table.add_row("parallel", PARALLEL_WORKERS, "(see benchmark stats)")
    print(table.render())
