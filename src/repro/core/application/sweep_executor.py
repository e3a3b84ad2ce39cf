"""Parallel configuration-sweep execution.

The paper's evaluation sweeps HPCG over 138 configurations (23 core counts
× 3 frequencies × HT on/off).  Every point is independent once it has a
deterministic seed, so the sweep fans out over a ``concurrent.futures``
process pool:

* **Deterministic:** each point's seed depends only on ``(base_seed,
  configuration)`` (see :mod:`repro.core.runners.sweep_worker`), so the
  parallel and serial paths produce identical result sequences.
* **Ordered:** results are collected in submission order regardless of
  worker completion order.
* **Resilient:** a point whose worker raises is retried in the parent
  under a bounded backoff :class:`~repro.resilience.RetryPolicy` (the
  seeds make every retry equivalent); a point that keeps failing is
  *quarantined* — reported explicitly, never silently dropped, and never
  allowed to abort the rest of the sweep.  If the pool itself cannot be
  created (sandboxes without fork, ``CHRONUS_SWEEP_WORKERS=1``,
  single-core hosts) the whole sweep degrades gracefully to the serial
  path.
* **Batched:** rows are persisted through ``repository.save_benchmarks``
  in batches instead of one round-trip per point.

Worker-count resolution: explicit ``workers`` argument, else the
``CHRONUS_SWEEP_WORKERS`` environment variable, else ``os.cpu_count()``.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro import telemetry
from repro.core.application.interfaces import (
    RepositoryInterface,
    SystemInfoInterface,
)
from repro.core.domain.benchmark import BenchmarkResult
from repro.core.domain.errors import ChronusError
from repro.core.domain.run import Run
from repro.resilience import RetryPolicy

__all__ = [
    "SweepExecutor",
    "SweepReport",
    "QuarantinedPoint",
    "resolve_worker_count",
]

#: environment knob for the pool size (0/unset -> os.cpu_count())
WORKERS_ENV = "CHRONUS_SWEEP_WORKERS"

#: default number of rows per repository flush
DEFAULT_BATCH_SIZE = 16

#: default per-point retry budget: the pool attempt plus two parent
#: retries with short seeded backoff
DEFAULT_POINT_RETRY = RetryPolicy(
    max_attempts=3, base_delay_s=0.01, max_delay_s=0.1, seed=0
)


def resolve_worker_count(workers: Optional[int] = None) -> int:
    """Explicit argument > ``CHRONUS_SWEEP_WORKERS`` > ``os.cpu_count()``."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ChronusError(
                    f"{WORKERS_ENV} must be an integer, got {env!r}"
                ) from None
        else:
            workers = os.cpu_count() or 1
    return max(1, int(workers))


@dataclass(frozen=True)
class QuarantinedPoint:
    """A sweep point that failed every attempt and was set aside."""

    point: object
    attempts: int
    error: str


@dataclass
class SweepReport:
    """Explicit accounting of where every sweep point ended up."""

    total_points: int = 0
    results: list[BenchmarkResult] = field(default_factory=list)
    quarantined: list[QuarantinedPoint] = field(default_factory=list)
    skipped: int = 0

    @property
    def accounted(self) -> bool:
        """Every point is measured, skipped, or explicitly quarantined."""
        return (
            len(self.results) + len(self.quarantined) + self.skipped
            == self.total_points
        )

    def render(self) -> str:
        lines = [
            f"Sweep report: {self.total_points} points — "
            f"{len(self.results)} measured, {self.skipped} skipped, "
            f"{len(self.quarantined)} quarantined"
        ]
        for q in self.quarantined:
            config = getattr(q.point, "configuration", q.point)
            lines.append(
                f"  QUARANTINED {config} after {q.attempts} attempts: {q.error}"
            )
        return "\n".join(lines)


class SweepExecutor:
    """Runs a configuration sweep across a process pool and persists it."""

    def __init__(
        self,
        repository: RepositoryInterface,
        system_info: SystemInfoInterface,
        point_runner: Callable[[object], Run],
        *,
        application: str = "hpcg",
        workers: Optional[int] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        retry_policy: Optional[RetryPolicy] = None,
        sleep: Optional[Callable[[float], None]] = None,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.repository = repository
        self.system_info = system_info
        self.point_runner = point_runner
        self.application = application
        self.workers = resolve_worker_count(workers)
        self.batch_size = batch_size
        self.retry_policy = retry_policy or DEFAULT_POINT_RETRY
        self._sleep = sleep
        self._log = log or (lambda msg: None)
        #: the accounting of the most recent :meth:`run_sweep`
        self.last_report: Optional[SweepReport] = None

    # ------------------------------------------------------------------
    # per-point execution with retries + quarantine
    # ------------------------------------------------------------------
    def _quarantine(
        self, point: object, attempts: int, exc: BaseException
    ) -> QuarantinedPoint:
        telemetry.counter("sweep_points_quarantined_total").inc()
        config = getattr(point, "configuration", point)
        self._log(
            f"sweep: QUARANTINED {config} after {attempts} attempts "
            f"({type(exc).__name__}: {exc})"
        )
        return QuarantinedPoint(
            point=point, attempts=attempts, error=f"{type(exc).__name__}: {exc}"
        )

    def _run_point(
        self, point: object, *, attempts_used: int = 0
    ) -> "Run | QuarantinedPoint":
        """Run one point in the parent with the remaining retry budget."""
        retries = telemetry.counter("sweep_point_retries_total")
        attempts_left = max(1, self.retry_policy.max_attempts - attempts_used)
        policy = (
            self.retry_policy
            if attempts_left == self.retry_policy.max_attempts
            else dataclasses.replace(self.retry_policy, max_attempts=attempts_left)
        )

        def on_retry(exc: BaseException, attempt: int) -> None:
            retries.inc()
            self._log(f"sweep: point {point} failed ({exc}); retrying")

        try:
            return policy.call(
                lambda: self.point_runner(point),
                op="sweep.point",
                retry_on=(Exception,),
                sleep=self._sleep,
                on_retry=on_retry,
            )
        except Exception as exc:
            return self._quarantine(
                point, attempts_used + attempts_left, exc
            )

    # ------------------------------------------------------------------
    # execution strategies
    # ------------------------------------------------------------------
    def _run_serial(self, points: Sequence[object]) -> "list[Run | QuarantinedPoint | None]":
        point_hist = telemetry.histogram("sweep_point_seconds")
        runs: "list[Run | QuarantinedPoint | None]" = []
        for point in points:
            started = time.perf_counter()
            runs.append(self._run_point(point))
            point_hist.observe(time.perf_counter() - started)
        return runs

    def _run_parallel(self, points: Sequence[object]) -> "list[Run | QuarantinedPoint | None]":
        """Fan points over the pool; collect in submission order.

        A worker failure consumes the first attempt of the point's retry
        budget; the remaining attempts run serially in the parent (the
        seeds make the retry equivalent).  A pool that cannot even be
        created falls back to the fully serial path.
        """
        point_hist = telemetry.histogram("sweep_point_seconds")
        retries = telemetry.counter("sweep_point_retries_total")
        try:
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=self.workers)
        except (OSError, NotImplementedError, PermissionError) as exc:
            telemetry.counter("sweep_serial_fallbacks_total").inc()
            self._log(f"sweep: process pool unavailable ({exc}); running serially")
            return self._run_serial(points)
        busy_seconds = 0.0
        wall_started = time.perf_counter()
        try:
            submitted = [(point, pool.submit(self.point_runner, point)) for point in points]
            runs: "list[Run | QuarantinedPoint | None]" = []
            for point, future in submitted:
                started = time.perf_counter()
                try:
                    run: "Run | QuarantinedPoint" = future.result()
                except Exception as exc:  # worker died or raised: retry here
                    retries.inc()
                    self._log(f"sweep: worker failed on {point} ({exc}); retrying serially")
                    run = self._run_point(point, attempts_used=1)
                elapsed = time.perf_counter() - started
                point_hist.observe(elapsed)
                busy_seconds += elapsed
                runs.append(run)
            return runs
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
            wall = time.perf_counter() - wall_started
            if wall > 0:
                # rough pool utilization: parent-observed busy time over
                # workers * wall (1.0 == every worker busy the whole sweep)
                telemetry.gauge("sweep_worker_utilization").set(
                    min(1.0, busy_seconds / (self.workers * wall))
                )

    # ------------------------------------------------------------------
    # the use case
    # ------------------------------------------------------------------
    def run_sweep(self, points: Sequence[object]) -> list[BenchmarkResult]:
        """Execute every point, persist batched, return rows in point order.

        Points carry their own configuration and seed (see
        :func:`repro.core.runners.sweep_worker.build_sweep_points`); failed
        runs are skipped exactly like the serial benchmark service does,
        and points whose runner keeps *raising* are quarantined — the full
        accounting lands in :attr:`last_report`.
        """
        points = list(points)
        if not points:
            raise ChronusError("no sweep points to execute")
        info = self.system_info.fetch()
        system_id = self.repository.save_system(info)
        parallel = self.workers > 1
        self._log(
            f"Sweep starting: {len(points)} points, "
            f"{self.workers} worker(s) ({'parallel' if parallel else 'serial'})"
        )
        telemetry.gauge("sweep_workers").set(self.workers)
        with telemetry.span("sweep", points=len(points), workers=self.workers):
            wall_started = time.perf_counter()
            runs = self._run_parallel(points) if parallel else self._run_serial(points)
            wall = time.perf_counter() - wall_started

        flush_hist = telemetry.histogram("sweep_batch_flush_size")
        report = SweepReport(total_points=len(points))
        pending: list[BenchmarkResult] = []
        for point, run in zip(points, runs):
            telemetry.counter("sweep_points_total").inc()
            if isinstance(run, QuarantinedPoint):
                report.quarantined.append(run)
                continue
            if run is None or not run.success:
                report.skipped += 1
                config = getattr(point, "configuration", point)
                self._log(f"sweep: point {config} FAILED; skipping")
                continue
            pending.append(BenchmarkResult.from_run(system_id, self.application, run))
            if len(pending) >= self.batch_size:
                self.repository.save_benchmarks(pending)
                flush_hist.observe(len(pending))
                report.results.extend(pending)
                pending = []
        if pending:
            self.repository.save_benchmarks(pending)
            flush_hist.observe(len(pending))
            report.results.extend(pending)
        self.last_report = report
        self._log(
            f"Sweep complete: {len(report.results)} rows saved, "
            f"{report.skipped} skipped, {len(report.quarantined)} quarantined, "
            f"{wall:.2f}s wall"
        )
        if report.quarantined:
            self._log(report.render())
        return report.results
