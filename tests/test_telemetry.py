"""Tests for the repro.telemetry subsystem.

Covers the dependency-free metric primitives (exact histogram statistics,
quantile interpolation, reservoir bounds), thread-safety under a hammering
ThreadPoolExecutor, span nesting and context propagation, the structured
logger, export formats, and the process-wide registry/tracer swap.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import telemetry
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    JsonLinesLogger,
    MetricsRegistry,
    Tracer,
    current_span,
    find_metric,
    snapshot_from_json,
    snapshot_to_json,
    snapshot_to_prometheus,
)
from repro.telemetry.registry import RESERVOIR_SIZE


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry()


@pytest.fixture
def isolated_telemetry():
    """Install a fresh registry globally; restore afterwards."""
    previous = telemetry.get_registry()
    fresh = MetricsRegistry()
    telemetry.set_registry(fresh)
    try:
        yield fresh
    finally:
        telemetry.set_registry(previous)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("requests_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        c = Counter("requests_total")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_snapshot_shape(self):
        c = Counter("hits", {"cache": "model"})
        c.inc()
        assert c.snapshot() == {"name": "hits", "labels": {"cache": "model"}, "value": 1.0}


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("queue_depth")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == 12.0


class TestHistogramMath:
    def test_exact_statistics(self):
        h = Histogram("latency")
        for v in range(1, 101):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 100
        assert snap["sum"] == 5050.0
        assert snap["mean"] == 50.5
        assert snap["min"] == 1.0
        assert snap["max"] == 100.0

    def test_quantile_linear_interpolation(self):
        h = Histogram("latency")
        for v in range(1, 101):
            h.observe(v)
        # sorted data is 1..100; pos = q * 99, linearly interpolated
        assert h.quantile(0.50) == pytest.approx(50.5)
        assert h.quantile(0.95) == pytest.approx(95.05)
        assert h.quantile(0.99) == pytest.approx(99.01)
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 100.0
        snap = h.snapshot()
        assert snap["p50"] == pytest.approx(50.5)
        assert snap["p95"] == pytest.approx(95.05)
        assert snap["p99"] == pytest.approx(99.01)

    def test_quantile_out_of_range_rejected(self):
        h = Histogram("latency")
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)

    def test_empty_histogram(self):
        h = Histogram("latency")
        assert h.quantile(0.95) == 0.0
        snap = h.snapshot()
        assert snap["count"] == 0
        assert snap["min"] == 0.0 and snap["max"] == 0.0

    def test_single_observation(self):
        h = Histogram("latency")
        h.observe(42.0)
        assert h.quantile(0.5) == 42.0
        assert h.quantile(0.99) == 42.0

    def test_reservoir_bounded_but_stats_exact(self):
        h = Histogram("latency")
        n = RESERVOIR_SIZE + 2000
        for v in range(n):
            h.observe(v)
        assert len(h._reservoir) == RESERVOIR_SIZE
        assert h.count == n
        assert h.sum == sum(range(n))
        assert h.snapshot()["max"] == n - 1

    def test_reservoir_sampling_deterministic(self):
        a = Histogram("latency")
        b = Histogram("latency")
        for v in range(RESERVOIR_SIZE + 500):
            a.observe(v)
            b.observe(v)
        assert a.snapshot() == b.snapshot()


class TestRegistry:
    def test_same_handle_for_same_identity(self, registry):
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_label_order_is_irrelevant(self, registry):
        c1 = registry.counter("a", {"x": "1", "y": "2"})
        c2 = registry.counter("a", {"y": "2", "x": "1"})
        assert c1 is c2

    def test_different_labels_different_handles(self, registry):
        assert registry.counter("a", {"x": "1"}) is not registry.counter("a", {"x": "2"})

    def test_snapshot_and_len(self, registry):
        registry.counter("c").inc()
        registry.gauge("g").set(1)
        registry.histogram("h").observe(0.5)
        assert len(registry) == 3
        snap = registry.snapshot()
        assert [c["name"] for c in snap["counters"]] == ["c"]
        assert [g["name"] for g in snap["gauges"]] == ["g"]
        assert [h["name"] for h in snap["histograms"]] == ["h"]

    def test_reset(self, registry):
        registry.counter("c").inc()
        registry.reset()
        assert len(registry) == 0
        assert registry.snapshot()["counters"] == []


class TestThreadSafety:
    THREADS = 8
    PER_THREAD = 5_000

    def test_counter_increments_are_not_lost(self, registry):
        def hammer():
            c = registry.counter("hits")
            for _ in range(self.PER_THREAD):
                c.inc()

        with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
            for _ in range(self.THREADS):
                pool.submit(hammer)
        assert registry.counter("hits").value == self.THREADS * self.PER_THREAD

    def test_histogram_observations_are_not_lost(self, registry):
        def hammer(offset):
            h = registry.histogram("lat")
            for i in range(self.PER_THREAD):
                h.observe(offset + i)

        with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
            for t in range(self.THREADS):
                pool.submit(hammer, t)
        h = registry.histogram("lat")
        assert h.count == self.THREADS * self.PER_THREAD
        assert len(h._reservoir) == min(RESERVOIR_SIZE, h.count)

    def test_concurrent_handle_creation_yields_one_metric(self, registry):
        barrier = threading.Barrier(self.THREADS)
        handles = []

        def create():
            barrier.wait()
            handles.append(registry.counter("raced", {"k": "v"}))

        threads = [threading.Thread(target=create) for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(h is handles[0] for h in handles)
        assert len(registry) == 1


class TestTracer:
    def test_span_records_duration_and_histogram(self, registry):
        tracer = Tracer(registry)
        with tracer.span("op") as sp:
            pass
        assert sp.duration_s >= 0.0
        h = registry.histogram("span_seconds", {"span": "op"})
        assert h.count == 1

    def test_nesting_links_parent(self, registry):
        tracer = Tracer(registry)
        with tracer.span("outer") as outer:
            assert current_span() is outer
            with tracer.span("inner") as inner:
                assert current_span() is inner
                assert inner.parent_id == outer.span_id
                assert inner.parent_name == "outer"
            assert current_span() is outer
        assert current_span() is None
        assert outer.parent_id is None

    def test_exception_marks_span_and_propagates(self, registry):
        tracer = Tracer(registry)
        with pytest.raises(RuntimeError):
            with tracer.span("boom") as sp:
                raise RuntimeError("bad")
        assert sp.attributes["error"] == "RuntimeError"
        assert current_span() is None

    def test_finished_history_bounded(self, registry):
        tracer = Tracer(registry, history=4)
        for i in range(10):
            with tracer.span("op", i=i):
                pass
        assert len(tracer.finished) == 4
        assert [s.attributes["i"] for s in tracer.spans_named("op")] == [6, 7, 8, 9]


class TestLogger:
    def test_record_shape_with_injected_clock(self):
        log = JsonLinesLogger(clock=lambda: 123.0)
        rec = log.warning("eco.fallback", job="j1")
        assert rec == {"ts": 123.0, "level": "warning", "event": "eco.fallback", "job": "j1"}
        assert log.records("eco.fallback") == [rec]
        assert log.records("other") == []

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            JsonLinesLogger().log("e", level="fatal")

    def test_tee_to_path(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = JsonLinesLogger(path=str(path), clock=lambda: 1.0)
        log.info("a", n=1)
        log.info("b", n=2)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["event"] for r in lines] == ["a", "b"]

    def test_write_failure_never_raises(self, tmp_path):
        log = JsonLinesLogger(path=str(tmp_path / "no" / "such" / "dir" / "x.jsonl"))
        rec = log.info("survives")
        assert rec["event"] == "survives"

    def test_buffer_bounded(self):
        log = JsonLinesLogger(buffer_size=3)
        for i in range(10):
            log.info("e", i=i)
        assert [r["i"] for r in log.records()] == [7, 8, 9]


class TestExport:
    def test_json_roundtrip(self, registry):
        registry.counter("c", {"k": "v"}).inc(3)
        registry.histogram("h").observe(1.0)
        snap = registry.snapshot()
        assert snapshot_from_json(snapshot_to_json(snap)) == snap

    def test_from_json_rejects_non_snapshot(self):
        with pytest.raises(ValueError):
            snapshot_from_json("{}")
        with pytest.raises(ValueError):
            snapshot_from_json("[1, 2]")

    def test_prometheus_text(self, registry):
        registry.counter("hits_total", {"cache": "model"}).inc(2)
        registry.gauge("depth").set(4)
        registry.histogram("lat_seconds").observe(0.5)
        text = snapshot_to_prometheus(registry.snapshot())
        assert "# TYPE hits_total counter" in text
        assert 'hits_total{cache="model"} 2.0' in text
        assert "# TYPE depth gauge" in text
        assert "# TYPE lat_seconds summary" in text
        assert 'lat_seconds{quantile="0.95"} 0.5' in text
        assert "lat_seconds_count 1" in text

    def test_find_metric(self, registry):
        registry.counter("c", {"k": "a"}).inc()
        registry.counter("c", {"k": "b"}).inc(2)
        snap = registry.snapshot()
        assert find_metric(snap, "counters", "c", {"k": "b"})["value"] == 2.0
        assert find_metric(snap, "counters", "c")["value"] == 1.0
        assert find_metric(snap, "counters", "missing") is None


class TestGlobalState:
    def test_set_registry_swaps_tracer_too(self):
        previous = telemetry.get_registry()
        try:
            fresh = MetricsRegistry()
            telemetry.set_registry(fresh)
            with telemetry.span("op"):
                pass
            assert fresh.histogram("span_seconds", {"span": "op"}).count == 1
        finally:
            telemetry.set_registry(previous)

    def test_old_settings_switch_is_ignored(self, tmp_path, isolated_telemetry):
        """A settings.json that still carries ``telemetry_enabled: false``
        loads, and the app keeps recording into the process registry."""
        from repro.core.domain.configuration import Configuration
        from repro.core.factory import ChronusApp
        from repro.slurm.cluster import SimCluster

        etc = tmp_path / "ws" / "etc" / "chronus"
        etc.mkdir(parents=True)
        (etc / "settings.json").write_text(
            json.dumps({"plugin_state": "deactivated", "telemetry_enabled": False})
        )
        app = ChronusApp(SimCluster(seed=11, hpcg_duration_s=60.0), str(tmp_path / "ws"))
        assert app.settings_service.current().plugin_state == "deactivated"
        assert telemetry.get_registry() is isolated_telemetry
        app.benchmark_service.run_benchmarks(
            [Configuration(32, 1, 2_200_000)], clock=app.clock
        )
        assert isolated_telemetry.counter("power_samples_total").value > 0


class TestClusterIntegration:
    def test_simulated_run_populates_gated_metrics(self, isolated_telemetry):
        from repro.slurm.batch_script import build_script
        from repro.slurm.cluster import HPCG_BINARY, SimCluster

        cluster = SimCluster(seed=11, hpcg_duration_s=120.0)
        cluster.submit_and_wait(build_script(32, 2_500_000, 1, HPCG_BINARY))
        snap = telemetry.snapshot()
        assert find_metric(snap, "counters", "sched_jobs_started_total")["value"] == 1.0
        assert find_metric(snap, "counters", "sched_jobs_completed_total")["value"] == 1.0
        assert find_metric(snap, "counters", "sim_events_total")["value"] > 0
        assert find_metric(snap, "histograms", "sched_cycle_seconds")["count"] >= 1
        assert find_metric(snap, "gauges", "sched_queue_depth") is not None
