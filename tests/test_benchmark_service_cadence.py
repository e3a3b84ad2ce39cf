"""Regression tests for the benchmark sampling cadence.

The sampling loop must hit *absolute* deadlines (start + k·interval).  The
old loop advanced a fixed ``sample_interval_s`` past wherever the previous
sample finished, so a slow system service (an IPMI read taking a second)
stretched the effective cadence by the read time on every sample.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.core.application.benchmark_service import BenchmarkService
from repro.core.application.interfaces import (
    ApplicationRunnerInterface,
    RunnerResult,
    SystemServiceInterface,
)
from repro.core.domain.configuration import Configuration
from repro.core.domain.run import EnergySample
from repro.core.repositories.memory_repository import MemoryRepository

CONFIG = Configuration(4, 1, 1_500_000)


class FakeClock:
    """A manually-advanced clock shared by runner and system service."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class FakeRunner(ApplicationRunnerInterface):
    """A job that completes after ``duration`` seconds of clock time."""

    application = "fake"

    def __init__(self, clock: FakeClock, duration: float) -> None:
        self.clock = clock
        self.duration = duration
        self._t0 = 0.0

    def submit(self, configuration: Configuration) -> int:
        self._t0 = self.clock.now
        return 1

    def is_done(self, handle: int) -> bool:
        return self.clock.now - self._t0 >= self.duration

    def advance(self, seconds: float) -> None:
        if seconds <= 0:
            raise ValueError("advance expects a positive duration")
        self.clock.now += seconds

    def result(self, handle: int) -> RunnerResult:
        return RunnerResult(gflops=1.0, runtime_s=self.duration, success=True)


class SlowSystemService(SystemServiceInterface):
    """A sampler whose read consumes ``read_time`` seconds of clock time."""

    def __init__(self, clock: FakeClock, read_time: float) -> None:
        self.clock = clock
        self.read_time = read_time

    def sample(self) -> EnergySample:
        self.clock.now += self.read_time
        return EnergySample(
            time=self.clock.now, system_w=100.0, cpu_w=50.0, cpu_temp_c=40.0
        )


def make_service(clock: FakeClock, *, read_time: float, duration: float,
                 interval: float = 3.0) -> BenchmarkService:
    class _Info:
        def fetch(self):  # pragma: no cover - not used by run_one
            raise AssertionError("not needed")

    return BenchmarkService(
        MemoryRepository(),
        FakeRunner(clock, duration),
        SlowSystemService(clock, read_time),
        _Info(),
        sample_interval_s=interval,
    )


class TestSamplingCadence:
    def test_instant_reads_sample_on_the_interval(self):
        clock = FakeClock()
        service = make_service(clock, read_time=0.0, duration=12.0)
        run = service.run_one(CONFIG, clock=clock)
        assert run.sample_times == [3.0, 6.0, 9.0, 12.0]

    def test_slow_reads_do_not_stretch_the_cadence(self):
        """With 0.5 s IPMI reads the old loop sampled every 3.5 s; the
        deadline loop keeps consecutive samples exactly interval apart."""
        clock = FakeClock()
        service = make_service(clock, read_time=0.5, duration=30.0)
        run = service.run_one(CONFIG, clock=clock)
        diffs = np.diff(run.sample_times)
        assert len(run.samples) >= 8
        np.testing.assert_allclose(diffs, 3.0)
        # samples land just after the absolute deadlines 3, 6, 9, ...
        np.testing.assert_allclose(
            run.sample_times, [3.5 + 3.0 * k for k in range(len(run.samples))]
        )

    def test_overrunning_read_skips_missed_deadlines(self):
        """A read slower than the interval must skip deadlines (counted in
        telemetry) instead of firing a burst of catch-up samples."""
        misses = telemetry.counter("bench_sample_deadline_misses_total")
        before = misses.value
        clock = FakeClock()
        service = make_service(clock, read_time=4.0, duration=40.0)
        run = service.run_one(CONFIG, clock=clock)
        diffs = np.diff(run.sample_times)
        assert np.all(diffs >= 3.0)  # never bunched closer than the interval
        assert misses.value > before
