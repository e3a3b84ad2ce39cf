#!/usr/bin/env python
"""Serving-layer drills: a submit storm against the ChronusServer.

:func:`run_storm` drives N concurrent predict calls through the
micro-batching server and compares every answer against a serial oracle
(the same model evaluated one request at a time on a second, cache-cold
service).  It records:

* **parity** — how many storm answers differ from the oracle (must be 0:
  batching is a latency optimisation, never an accuracy trade);
* **latency** — per-request wall-clock p50/p95/max across the storm;
* **batching** — batch count / mean / max from the ``serve_batch_size``
  histogram (a storm that never batches is a misconfigured server);
* **shed accounting** — every admission rejection is an explicit ``SHED``
  answer; the report cross-checks the ``serve_shed_total`` counter against
  the SHED responses clients actually saw, so a silently dropped request
  is arithmetically visible.

:func:`run_throughput` measures the batched prediction hot path:
requests/sec and p95 of the scalar ``predict`` loop vs ``predict_batch`` at
several batch sizes, with every batched answer compared field-for-field
against its scalar twin (must be bit-identical: batching is a throughput
optimisation, never a semantic one).

``python scripts/gate.py serving`` runs both and holds them to their
invariants at 200 and 1,000 jobs; ``perfbench`` builds its prediction
service from :func:`analytic_rows` and :func:`make_service`.
"""

from __future__ import annotations

import statistics
import threading
import time

from repro import telemetry
from repro.analysis.calibration import steady_state_point
from repro.core.application.slurm_config_service import SlurmConfigService
from repro.core.domain.benchmark import BenchmarkResult
from repro.core.domain.configuration import Configuration
from repro.core.domain.settings import ChronusSettings
from repro.core.factory import ModelFactory
from repro.hardware.cpu import AMD_EPYC_7502P
from repro.hardware.power import PowerModel
from repro.hardware.thermal import ThermalParams
from repro.hpcg.performance_model import HpcgPerformanceModel, PAPER_TOTAL_FLOPS
from repro.serving import PredictRequest, PredictResponse
from repro.serving.server import ChronusServer

MODEL_PATH = "/etc/chronus/optimizer/model-1.json"


class _MemoryLocalStorage:
    """Settings held in memory; the benchmark needs no workspace."""

    def __init__(self) -> None:
        self.settings = ChronusSettings()

    def load(self) -> ChronusSettings:
        return self.settings

    def save(self, settings: ChronusSettings) -> None:
        self.settings = settings

    def resolve_path(self, relative: str) -> str:
        return f"/etc/chronus/{relative}"


def analytic_rows(core_counts, frequencies) -> list[BenchmarkResult]:
    """Benchmark rows through the calibrated steady-state models —
    milliseconds to build, same shape the optimizers train on."""
    perf = HpcgPerformanceModel()
    power = PowerModel(AMD_EPYC_7502P)
    thermal = ThermalParams()
    rows = []
    for cfg in Configuration.sweep(core_counts=core_counts, frequencies=frequencies):
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


def make_service(rows) -> SlurmConfigService:
    optimizer = ModelFactory.get_optimizer("brute-force")
    optimizer.fit(rows)
    files = {MODEL_PATH: optimizer.serialize()}
    local = _MemoryLocalStorage()
    settings = local.load().with_loaded_model(
        1, MODEL_PATH, "brute-force", application="hpcg"
    )
    local.save(settings.with_binary_alias(777, "hpcg"))
    return SlurmConfigService(
        local, ModelFactory.load_optimizer, read_local=files.__getitem__
    )


def build_requests(jobs: int) -> list[PredictRequest]:
    floors = [None, 0.5, 0.8, 0.9, 0.95, 1.0]
    return [
        PredictRequest(
            system_id=1,
            binary_hash=777,
            min_perf=floors[i % len(floors)],
            job_name=f"storm-{i}",
        )
        for i in range(jobs)
    ]


def run_storm(jobs: int, *, max_batch: int, queue_limit: int):
    """One storm + serial oracle; returns the JSON-ready report dict."""
    rows = analytic_rows([4, 8, 16, 24, 28, 32], [1_500_000, 2_200_000, 2_500_000])
    requests = build_requests(jobs)

    oracle_service = make_service(rows)
    oracle = [oracle_service.predict(r) for r in requests]

    telemetry.reset()
    server = ChronusServer(
        make_service(rows),
        max_batch=max_batch,
        queue_limit=queue_limit,
    )
    answers: list = [None] * jobs
    latencies = [0.0] * jobs
    gate = threading.Barrier(jobs)

    def worker(i: int) -> None:
        gate.wait()
        t0 = time.perf_counter()
        answers[i] = server.predict(requests[i])
        latencies[i] = time.perf_counter() - t0

    wall0 = time.perf_counter()
    with server:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(jobs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    wall = time.perf_counter() - wall0

    unanswered = sum(1 for a in answers if a is None)
    shed_seen = sum(
        1 for a in answers if a is not None and getattr(a, "code", "") == "SHED"
    )
    errors_seen = sum(
        1
        for a in answers
        if a is not None
        and not isinstance(a, PredictResponse)
        and getattr(a, "code", "") != "SHED"
    )
    mismatches = sum(
        1
        for got, want in zip(answers, oracle)
        if isinstance(got, PredictResponse)
        and (got.cores, got.threads_per_core, got.frequency, got.model_type)
        != (want.cores, want.threads_per_core, want.frequency, want.model_type)
    )

    snap = telemetry.snapshot()

    def counter(name: str) -> float:
        entry = telemetry.find_metric(snap, "counters", name)
        return entry["value"] if entry else 0.0

    batch = telemetry.find_metric(snap, "histograms", "serve_batch_size") or {}
    ordered = sorted(latencies)
    report = {
        "jobs": jobs,
        "max_batch": max_batch,
        "queue_limit": queue_limit,
        "wall_s": wall,
        "unanswered": unanswered,
        "mismatches": mismatches,
        "shed_responses_seen": shed_seen,
        "error_responses_seen": errors_seen,
        "latency_s": {
            "p50": ordered[jobs // 2],
            "p95": ordered[int(jobs * 0.95)],
            "max": ordered[-1],
            "mean": statistics.fmean(latencies),
        },
        "batches": {
            "count": batch.get("count", 0),
            "mean": (batch.get("sum", 0.0) / batch.get("count", 1))
            if batch.get("count")
            else 0.0,
            "max": batch.get("max", 0),
        },
        "metrics": {
            "serve_requests_total": counter("serve_requests_total"),
            "serve_shed_total": counter("serve_shed_total"),
            "serve_coalesced_total": counter("serve_coalesced_total"),
            "serve_handler_errors_total": counter("serve_handler_errors_total"),
            "model_cache_hits_total": counter("model_cache_hits_total"),
            "model_cache_misses_total": counter("model_cache_misses_total"),
            "model_cache_evictions_total": counter("model_cache_evictions_total"),
        },
    }
    return report


def _response_fields(answer: PredictResponse) -> tuple:
    """Every answer field except batch_size (which encodes batch shape)."""
    return (
        answer.cores,
        answer.threads_per_core,
        answer.frequency,
        answer.model_type,
        answer.model_id,
        answer.model_version,
        answer.proto,
    )


def run_throughput(jobs: int, batch_sizes=(4, 16, 64)) -> dict:
    """Scalar vs batched requests/sec on one service; parity per answer."""
    rows = analytic_rows([4, 8, 16, 24, 28, 32], [1_500_000, 2_200_000, 2_500_000])
    requests = build_requests(jobs)

    service = make_service(rows)
    service.warm(1, 777)

    # scalar baseline: one predict() per request
    latencies = []
    t0 = time.perf_counter()
    scalar_answers = []
    for request in requests:
        s0 = time.perf_counter()
        scalar_answers.append(service.predict(request))
        latencies.append(time.perf_counter() - s0)
    scalar_wall = time.perf_counter() - t0
    ordered = sorted(latencies)
    scalar = {
        "rps": jobs / scalar_wall,
        "wall_s": scalar_wall,
        "p50_ms": ordered[jobs // 2] * 1e3,
        "p95_ms": ordered[int(jobs * 0.95)] * 1e3,
    }
    scalar_keys = [_response_fields(a) for a in scalar_answers]

    # batched: the same requests in predict_batch slices
    batched = []
    for size in batch_sizes:
        chunks = [requests[i : i + size] for i in range(0, jobs, size)]
        batch_lat = []
        mismatches = 0
        t0 = time.perf_counter()
        for chunk, offset in zip(chunks, range(0, jobs, size)):
            b0 = time.perf_counter()
            answers = service.predict_batch(chunk)
            batch_lat.append(time.perf_counter() - b0)
            for j, answer in enumerate(answers):
                if not isinstance(answer, PredictResponse) or _response_fields(
                    answer
                ) != scalar_keys[offset + j]:
                    mismatches += 1
        wall = time.perf_counter() - t0
        ordered = sorted(batch_lat)
        batched.append(
            {
                "batch_size": size,
                "rps": jobs / wall,
                "wall_s": wall,
                "batch_p50_ms": ordered[len(ordered) // 2] * 1e3,
                "batch_p95_ms": ordered[int(len(ordered) * 0.95)] * 1e3,
                "mismatches": mismatches,
            }
        )
    return {"jobs": jobs, "scalar": scalar, "batched": batched}
