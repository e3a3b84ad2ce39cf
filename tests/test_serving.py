"""Tests for the serving layer: protocol, cache, batching, server, wire.

The acceptance bar from the serving redesign: a 200-job submit storm
answered through the batching server must be *identical* to serial
prediction, every overload answer must be an explicit ``SHED`` (never a
silent drop), and the one wire handler must refuse, with an explicit
``INVALID``, every request that does not name ``chronus/2``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import threading
import time

import pytest

from repro import faults, telemetry
from repro.core.application.init_model_service import InitModelService
from repro.core.application.interfaces import (
    FileRepositoryInterface,
    LocalStorageInterface,
    PredictionProvider,
)
from repro.core.application.load_model_service import LoadModelService
from repro.core.application.slurm_config_service import SlurmConfigService
from repro.core.domain.errors import (
    ChronusError,
    ConfigValidationError,
    ModelNotFoundError,
    ProtocolError,
    ServeShedError,
)
from repro.core.domain.settings import ChronusSettings
from repro.core.domain.system_info import SystemInfo
from repro.core.factory import ModelFactory
from repro.core.repositories.memory_repository import MemoryRepository
from repro.core.storage.etc_storage import EtcStorage
from repro.serving import (
    PROTO_V2,
    SHED,
    ErrorResponse,
    MicroBatcher,
    ModelCache,
    PredictRequest,
    PredictResponse,
    decode_response,
)
from repro.serving.protocol import decode_request_dict
from repro.serving.server import ChronusServer
from repro.serving.transport import (
    MAX_LINE_BYTES,
    LocalTransport,
    _ConnReader,
    UnixSocketServer,
    UnixSocketTransport,
)
from repro.slurm.job import JobDescriptor
from repro.slurm.plugins.base import SLURM_SUCCESS
from repro.slurm.plugins.eco import (
    JobSubmitEco,
    PluginState,
    validate_chronus_config,
)


@pytest.fixture(autouse=True)
def clean_process_state():
    # a fresh registry per test: these tests assert the serving counters
    # from zero (same pattern as test_resilience)
    telemetry.set_registry(telemetry.MetricsRegistry())
    faults.reset()
    yield
    telemetry.set_registry(telemetry.MetricsRegistry())
    faults.reset()


def counter_value(name: str) -> float:
    entry = telemetry.find_metric(telemetry.snapshot(), "counters", name)
    return entry["value"] if entry else 0.0


# ---------------------------------------------------------------------------
# in-memory integration doubles
# ---------------------------------------------------------------------------
class MemoryLocalStorage(LocalStorageInterface):
    def __init__(self):
        self.settings = ChronusSettings()

    def load(self):
        return self.settings

    def save(self, settings):
        self.settings = settings

    def resolve_path(self, relative):
        return f"/etc/chronus/{relative}"


class DictBlobStore(FileRepositoryInterface):
    def __init__(self):
        self.blobs = {}

    def save(self, name, data):
        path = f"/blob/{name}"
        self.blobs[path] = data
        return path

    def load(self, path):
        if path not in self.blobs:
            raise ModelNotFoundError(path)
        return self.blobs[path]

    def exists(self, path):
        return path in self.blobs


def fitted_blob(rows) -> bytes:
    optimizer = ModelFactory.get_optimizer("brute-force")
    optimizer.fit(rows)
    return optimizer.serialize()


@pytest.fixture
def loaded_stack(steady_rows):
    """A SlurmConfigService with one fitted model loaded for (1, hpcg)."""
    blob = fitted_blob(steady_rows)
    files = {"/etc/chronus/optimizer/model-1.json": blob}
    local = MemoryLocalStorage()
    settings = local.load().with_loaded_model(
        1, "/etc/chronus/optimizer/model-1.json", "brute-force",
        application="hpcg",
    )
    local.save(settings.with_binary_alias(777, "hpcg"))
    reads = []

    def read(path):
        reads.append(path)
        return files[path]

    svc = SlurmConfigService(local, ModelFactory.load_optimizer, read_local=read)
    return svc, reads


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------
class TestProtocolRoundTrip:
    def test_request_round_trip(self):
        req = PredictRequest(
            system_id=12345, binary_hash="abc", min_perf=0.9, job_name="hpcg-1"
        )
        assert PredictRequest.from_json(req.to_json()) == req

    def test_request_defaults_round_trip(self):
        req = PredictRequest(system_id="head0")
        again = PredictRequest.from_json(req.to_json())
        assert again == req
        assert again.proto == PROTO_V2

    def test_response_round_trip(self):
        resp = PredictResponse(
            cores=28, threads_per_core=1, frequency=2_200_000,
            model_type="brute-force", batch_size=5,
        )
        assert PredictResponse.from_json(resp.to_json()) == resp

    def test_error_round_trip(self):
        err = ErrorResponse(code=SHED, message="queue full", retryable=True)
        assert ErrorResponse.from_json(err.to_json()) == err

    def test_decode_response_dispatches_on_error_key(self):
        ok = PredictResponse(cores=4, threads_per_core=2, frequency=2_500_000)
        err = ErrorResponse(code="INTERNAL", message="boom")
        assert decode_response(ok.to_json()) == ok
        assert decode_response(err.to_json()) == err

    def test_unknown_fields_tolerated(self):
        data = {
            "proto": PROTO_V2,
            "system_id": 1,
            "binary_hash": 2,
            "some_future_field": {"nested": True},
        }
        req = PredictRequest.from_dict(data)
        assert req.system_id == 1

    @pytest.mark.parametrize(
        "bad",
        [
            {"proto": PROTO_V2},  # missing system_id
            {"proto": PROTO_V2, "system_id": True},  # bool is not an id
            {"proto": PROTO_V2, "system_id": 1.5},
            {"proto": PROTO_V2, "system_id": 1, "min_perf": "fast"},
            {"proto": PROTO_V2, "system_id": 1, "job_name": 7},
        ],
    )
    def test_known_field_types_are_strict(self, bad):
        with pytest.raises(ProtocolError):
            PredictRequest.from_dict(bad)

    def test_min_perf_bounds_enforced(self):
        with pytest.raises(ProtocolError):
            PredictRequest(system_id=1, min_perf=1.5)
        with pytest.raises(ProtocolError):
            PredictRequest(system_id=1, min_perf=0.0)

    def test_response_rejects_garbage_config(self):
        with pytest.raises(ConfigValidationError):
            PredictResponse.from_dict(
                {"cores": "all of them", "threads_per_core": 1, "frequency": 1}
            )

    def test_coalescing_key_normalises_id_types(self):
        assert PredictRequest(system_id=1, binary_hash=2).key() == \
            PredictRequest(system_id="1", binary_hash="2").key()

    def test_error_mapping(self):
        assert isinstance(ErrorResponse(code=SHED).to_error(), ServeShedError)
        assert isinstance(
            ErrorResponse(code="MODEL_NOT_FOUND").to_error(), ModelNotFoundError
        )
        assert isinstance(ErrorResponse(code="INTERNAL").to_error(), ChronusError)


class TestProtocolNegotiation:
    def test_v2_request_accepted(self):
        req = decode_request_dict({"proto": PROTO_V2, "system_id": 9})
        assert req.proto == PROTO_V2
        assert req.system_id == 9

    @pytest.mark.parametrize(
        "proto", [None, "chronus/1", "chronus/9"],
        ids=["no-proto", "chronus-1", "chronus-9"],
    )
    def test_other_protos_refused(self, proto):
        data = {"system_id": 1, "binary_hash": 2}
        if proto is not None:
            data["proto"] = proto
        with pytest.raises(ProtocolError, match="unsupported protocol"):
            decode_request_dict(data)

    def test_non_object_refused(self):
        with pytest.raises(ProtocolError):
            decode_request_dict([1, 2, 3])
        with pytest.raises(ProtocolError):
            PredictRequest.from_json("{truncated")

    def test_v2_answers_carry_proto(self):
        resp = PredictResponse(cores=4, threads_per_core=2, frequency=2_500_000)
        assert json.loads(resp.to_json())["proto"] == PROTO_V2
        err = ErrorResponse(code="INVALID", message="nope")
        assert json.loads(err.to_json())["proto"] == PROTO_V2


# ---------------------------------------------------------------------------
# model cache
# ---------------------------------------------------------------------------
class TestModelCache:
    def test_hit_miss_metrics(self):
        cache = ModelCache(4, metric_prefix="mc")
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert counter_value("mc_hits_total") == 1
        assert counter_value("mc_misses_total") == 1

    def test_lru_eviction_order(self):
        cache = ModelCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert "a" not in cache
        assert "b" in cache and "c" in cache
        assert counter_value("model_cache_evictions_total") == 1

    def test_get_refreshes_recency(self):
        cache = ModelCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # a becomes hottest
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache

    def test_pinned_entry_survives_pressure(self):
        cache = ModelCache(2)
        cache.pin("hot")
        cache.put("hot", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        cache.put("d", 4)
        assert "hot" in cache
        assert len(cache) == 2

    def test_all_pinned_may_exceed_capacity(self):
        cache = ModelCache(1)
        for key in ("a", "b", "c"):
            cache.pin(key)
            cache.put(key, key)
        assert len(cache) == 3  # pins win over capacity

    def test_put_over_pinned_capacity_drops_coldest_unpinned(self):
        """When every resident entry is pinned, the newcomer itself is the
        only eviction candidate — pins always win over capacity."""
        cache = ModelCache(1)
        cache.pin("a")
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache
        assert "b" not in cache

    def test_unpin_reapplies_capacity(self):
        cache = ModelCache(1)
        for key in ("a", "b"):
            cache.pin(key)
            cache.put(key, key)
        assert len(cache) == 2  # both pinned, over capacity
        cache.unpin("a")
        assert len(cache) == 1
        assert "a" not in cache

    def test_unbounded_never_evicts(self):
        cache = ModelCache(None)
        for i in range(100):
            cache.put(i, i)
        assert len(cache) == 100

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ModelCache(0)


# ---------------------------------------------------------------------------
# micro-batcher
# ---------------------------------------------------------------------------
def echo_handler(requests):
    return [
        PredictResponse(cores=1, threads_per_core=1, frequency=1_500_000)
        for _ in requests
    ]


class TestMicroBatcher:
    def test_inline_mode_without_start(self):
        sizes = []

        def handler(requests):
            sizes.append(len(requests))
            return echo_handler(requests)

        batcher = MicroBatcher(handler)
        answer = batcher.submit(PredictRequest(system_id=1))
        assert isinstance(answer, PredictResponse)
        assert sizes == [1]
        assert threading.active_count() == threading.active_count()  # no leak

    def test_concurrent_submits_coalesce(self):
        # no timer involved: the handler holds the first batch until
        # twelve more submits are queued, and the next batch must take
        # as many of them as max_batch allows, the one after the rest
        sizes = []
        queued, max_batch = 12, 8
        first_running = threading.Event()
        release = threading.Event()

        def handler(requests):
            sizes.append(len(requests))
            if len(sizes) == 1:
                first_running.set()
                release.wait(10.0)
            return echo_handler(requests)

        batcher = MicroBatcher(handler, max_batch=max_batch)
        batcher.start()
        results = [None] * (1 + queued)

        def worker(i):
            results[i] = batcher.submit(PredictRequest(system_id=i))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(1 + queued)]
        try:
            threads[0].start()
            assert first_running.wait(5.0)
            for t in threads[1:]:
                t.start()
            deadline = time.monotonic() + 5.0
            while len(batcher._queue) < queued and time.monotonic() < deadline:
                time.sleep(0.001)
            assert len(batcher._queue) == queued
        finally:
            release.set()
            for t in threads:
                t.join(timeout=10.0)
            batcher.stop()
        assert all(isinstance(r, PredictResponse) for r in results)
        assert sizes == [1, max_batch, queued - max_batch]

    def test_lone_request_is_not_held(self):
        # a started batcher answers a request that arrives alone at once:
        # 50 sequential submits cost thread handoffs, not 50 timed holds
        batcher = MicroBatcher(echo_handler)
        batcher.start()
        try:
            t0 = time.perf_counter()
            answers = [batcher.submit(PredictRequest(system_id=1)) for _ in range(50)]
            elapsed = time.perf_counter() - t0
        finally:
            batcher.stop()
        assert all(isinstance(a, PredictResponse) for a in answers)
        assert elapsed < 0.05, f"50 lone submits took {elapsed * 1e3:.1f} ms"

    def test_full_queue_sheds_explicitly(self):
        release = threading.Event()
        entered = threading.Event()

        def slow_handler(requests):
            entered.set()
            release.wait(10.0)
            return echo_handler(requests)

        batcher = MicroBatcher(slow_handler, max_batch=1, queue_limit=1)
        batcher.start()
        try:
            # occupy the handler with one request...
            blocker = threading.Thread(
                target=batcher.submit, args=(PredictRequest(system_id=0),)
            )
            blocker.start()
            assert entered.wait(5.0)
            # ...fill the queue...
            filler = threading.Thread(
                target=batcher.submit, args=(PredictRequest(system_id=1),)
            )
            filler.start()
            deadline = 50
            while len(batcher._queue) < 1 and deadline:
                threading.Event().wait(0.01)
                deadline -= 1
            # ...and the next arrival is shed, immediately and explicitly
            answer = batcher.submit(PredictRequest(system_id=2))
            assert isinstance(answer, ErrorResponse)
            assert answer.code == SHED
            assert answer.retryable
            assert counter_value("serve_shed_total") == 1
        finally:
            release.set()
            blocker.join(timeout=5.0)
            filler.join(timeout=5.0)
            batcher.stop()

    def test_handler_crash_answers_every_waiter(self):
        def broken(requests):
            raise RuntimeError("optimizer exploded")

        batcher = MicroBatcher(broken)
        answer = batcher.submit(PredictRequest(system_id=1))
        assert isinstance(answer, ErrorResponse)
        assert answer.code == "INTERNAL"
        assert "optimizer exploded" in answer.message
        assert counter_value("serve_handler_errors_total") == 1

    def test_handler_length_mismatch_is_internal_error(self):
        batcher = MicroBatcher(lambda requests: [])
        answer = batcher.submit(PredictRequest(system_id=1))
        assert isinstance(answer, ErrorResponse)
        assert answer.code == "INTERNAL"

    def test_stop_drains_queue(self):
        done = []

        def handler(requests):
            done.append(len(requests))
            return echo_handler(requests)

        batcher = MicroBatcher(handler)
        batcher.start()
        answers = []
        threads = [
            threading.Thread(
                target=lambda: answers.append(
                    batcher.submit(PredictRequest(system_id=1))
                )
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        batcher.stop()
        assert len(answers) == 4
        assert all(isinstance(a, PredictResponse) for a in answers)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MicroBatcher(echo_handler, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(echo_handler, queue_limit=0)


# ---------------------------------------------------------------------------
# typed service entry points
# ---------------------------------------------------------------------------
class TestServicePredict:
    def test_predict_matches_run(self, loaded_stack):
        svc, _ = loaded_stack
        best = svc.run(1, 777)
        resp = svc.predict(PredictRequest(system_id=1, binary_hash=777))
        assert (resp.cores, resp.threads_per_core, resp.frequency) == (
            best.cores, best.threads_per_core, best.frequency
        )
        assert resp.model_type == "brute-force"

    def test_run_refuses_a_floor_out_of_range(self, loaded_stack):
        svc, _ = loaded_stack
        for floor in (0.0, 1.5):
            with pytest.raises(ValueError, match="min_perf"):
                svc.run(1, 777, min_perf=floor)

    def test_batch_coalesces_duplicates(self, loaded_stack):
        svc, reads = loaded_stack
        requests = [
            PredictRequest(system_id=1, binary_hash=777, job_name=f"j{i}")
            for i in range(10)
        ]
        answers = svc.predict_batch(requests)
        assert len(answers) == 10
        assert len(set((a.cores, a.threads_per_core, a.frequency) for a in answers)) == 1
        assert all(a.batch_size == 10 for a in answers)
        assert len(reads) == 1  # one optimizer load for ten jobs
        assert counter_value("serve_coalesced_total") == 9

    def test_batch_failures_are_per_request(self, steady_rows):
        """A request whose model is missing fails explicitly while its
        batch-mates still succeed."""
        blob = fitted_blob(steady_rows)
        files = {"/p1": blob, "/p2": blob}
        local = MemoryLocalStorage()
        settings = ChronusSettings(loaded_models={
            "1": {"path": "/p1", "type": "brute-force"},
            "2": {"path": "/p2", "type": "brute-force"},
        })
        local.save(settings)
        svc = SlurmConfigService(
            local, ModelFactory.load_optimizer, read_local=files.__getitem__
        )
        answers = svc.predict_batch([
            PredictRequest(system_id=1),
            PredictRequest(system_id=404),
        ])
        assert isinstance(answers[0], PredictResponse)
        assert isinstance(answers[1], ErrorResponse)
        assert answers[1].code == "MODEL_NOT_FOUND"

    def test_hash_and_id_share_one_cache_entry(self, loaded_stack):
        """A plugin-side system hash resolving through the binary alias
        must hit the same cached optimizer as the repository id."""
        svc, reads = loaded_stack
        svc.predict(PredictRequest(system_id=1, binary_hash=777))
        svc.predict(PredictRequest(system_id=987654321, binary_hash=777))
        assert len(reads) == 1
        assert len(svc.cache) == 1


# ---------------------------------------------------------------------------
# the server
# ---------------------------------------------------------------------------
class TestChronusServer:
    def test_storm_matches_serial_oracle(self, steady_rows):
        """≥200 concurrent predicts through the batching queue answer
        exactly what serial evaluation answers, order-independent."""
        svc_serving, _ = _fresh_stack(steady_rows)
        svc_oracle, _ = _fresh_stack(steady_rows)
        floors = [None, 0.5, 0.9, 1.0]
        requests = [
            PredictRequest(
                system_id=1, binary_hash=777,
                min_perf=floors[i % len(floors)], job_name=f"job-{i}",
            )
            for i in range(200)
        ]
        oracle = [svc_oracle.predict(r) for r in requests]

        # queue_limit must cover the whole storm: this test asserts
        # parity, the admission-control test asserts explicit SHEDs
        server = ChronusServer(svc_serving, max_batch=32, queue_limit=256)
        results: list = [None] * len(requests)
        gate = threading.Barrier(len(requests))

        def worker(i):
            gate.wait()
            results[i] = server.predict(requests[i])

        with server:
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(len(requests))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)

        assert all(isinstance(r, PredictResponse) for r in results)
        for got, want in zip(results, oracle):
            assert (got.cores, got.threads_per_core, got.frequency,
                    got.model_type) == (
                want.cores, want.threads_per_core, want.frequency,
                want.model_type,
            )
        snap = telemetry.snapshot()
        batch_hist = telemetry.find_metric(snap, "histograms", "serve_batch_size")
        assert batch_hist is not None
        assert batch_hist["count"] < 200  # the storm actually batched
        assert batch_hist["max"] > 1

    def test_inline_equals_started(self, steady_rows):
        request = PredictRequest(system_id=1, binary_hash=777)
        svc_a, _ = _fresh_stack(steady_rows)
        inline = ChronusServer(svc_a).predict(request)
        svc_b, _ = _fresh_stack(steady_rows)
        with ChronusServer(svc_b) as server:
            started = server.predict(request)
        assert (inline.cores, inline.threads_per_core, inline.frequency) == (
            started.cores, started.threads_per_core, started.frequency
        )

    def test_shed_fault_is_explicit_and_counted(self, loaded_stack):
        svc, _ = loaded_stack
        server = ChronusServer(svc)
        faults.configure("serve.shed=1")
        answer = server.predict(PredictRequest(system_id=1))
        assert isinstance(answer, ErrorResponse)
        assert answer.code == SHED and answer.retryable
        assert counter_value("serve_shed_total") == 1

    def test_server_owns_a_bounded_cache(self, loaded_stack):
        svc, _ = loaded_stack
        server = ChronusServer(svc, cache_capacity=3)
        assert svc.cache is server.model_cache
        assert server.model_cache.capacity == 3

    def test_handle_wire_v2(self, loaded_stack):
        svc, _ = loaded_stack
        server = ChronusServer(svc)
        line = PredictRequest(system_id=1, binary_hash=777).to_json()
        answer = json.loads(server.handle_wire(line))
        assert answer["proto"] == PROTO_V2
        assert set(answer) >= {"cores", "threads_per_core", "frequency",
                               "model_type", "batch_size"}

    def test_handle_wire_invalid_is_explicit(self, loaded_stack):
        svc, _ = loaded_stack
        server = ChronusServer(svc)
        answer = json.loads(server.handle_wire("{not json"))
        assert answer["error"] == "INVALID"
        assert counter_value("serve_protocol_errors_total") == 1
        answer = json.loads(
            server.handle_wire('{"proto": "chronus/99", "system_id": 1}')
        )
        assert answer["error"] == "INVALID"
        # a plain dict without "proto" is refused like any other generation
        answer = json.loads(
            server.handle_wire('{"system_id": 1, "binary_hash": 777}')
        )
        assert answer["error"] == "INVALID"
        # bytes that are not UTF-8 are answered, not a dropped connection
        answer = json.loads(server.handle_wire(b"\xff{}"))
        assert answer["error"] == "INVALID"
        assert counter_value("serve_protocol_errors_total") == 4

    def test_handle_wire_control_ops(self, loaded_stack):
        svc, _ = loaded_stack
        server = ChronusServer(svc)
        pong = json.loads(server.handle_wire('{"op": "ping"}'))
        assert pong["ok"] and pong["op"] == "ping"
        assert not server.shutdown_requested.is_set()
        bye = json.loads(server.handle_wire('{"op": "shutdown"}'))
        assert bye["ok"]
        assert server.shutdown_requested.is_set()
        bad = json.loads(server.handle_wire('{"op": "dance"}'))
        assert bad["error"] == "INVALID"

    def test_preload_pins_model(self, steady_rows):
        server, [model_id] = _preload_server(steady_rows, ["TestCPU"])
        warms = counter_value("model_warm_total")
        key = server.preload(model_id)
        # preload warms through SlurmConfigService.warm, which counts it
        assert counter_value("model_warm_total") == warms + 1
        assert key == ("1", "hpcg")
        assert key in server.model_cache
        assert key in server.model_cache.pinned()
        # capacity pressure cannot evict the pinned model
        server.model_cache.put(("9", "other"), object())
        server.model_cache.put(("10", "other"), object())
        assert key in server.model_cache
        # the first real request is already a hit: no further local reads
        hits_before = counter_value("model_cache_hits_total")
        resp = server.predict(PredictRequest(system_id=1))
        assert isinstance(resp, PredictResponse)
        assert counter_value("model_cache_hits_total") == hits_before + 1

    def test_preloads_past_capacity_all_stay_resident(self, steady_rows):
        """The pin lands before the warm load: a model preloaded into a
        cache whose other entries are all pinned is not evicted by its
        own load."""
        server, model_ids = _preload_server(steady_rows, ["TestCPU", "OtherCPU"])
        warms = counter_value("model_warm_total")
        keys = [server.preload(model_id) for model_id in model_ids]
        assert keys == [("1", "hpcg"), ("2", "hpcg")]
        assert counter_value("model_warm_total") == warms + 2
        assert server.model_cache.pinned() == set(keys)
        assert server.model_cache.keys() == keys

    def test_preload_without_loader_refused(self, loaded_stack):
        svc, _ = loaded_stack
        server = ChronusServer(svc)
        with pytest.raises(ProtocolError, match="LoadModelService"):
            server.preload(1)


def _preload_server(rows, cpus):
    """A one-slot ChronusServer with a LoadModelService, and one fitted
    model per system in ``cpus`` (system ids 1, 2, ...)."""
    repo = MemoryRepository()
    blobs = DictBlobStore()
    model_ids = []
    for cpu in cpus:
        system_id = repo.save_system(
            SystemInfo(cpu, 32, 2, (1_500_000.0, 2_500_000.0))
        )
        for row in rows:
            repo.save_benchmark(dataclasses.replace(row, system_id=system_id))
        meta = InitModelService(
            repo, blobs, ModelFactory.get_optimizer
        ).run("brute-force", system_id)
        model_ids.append(meta.model_id)
    local = MemoryLocalStorage()
    files: dict = {}
    load = LoadModelService(
        repo, blobs, local,
        write_local=lambda p, d: files.update({p: d}),
        replace=lambda src, dst: files.update({dst: files.pop(src)}),
    )
    svc = SlurmConfigService(
        local, ModelFactory.load_optimizer, read_local=files.__getitem__
    )
    server = ChronusServer(svc, load_model_service=load, cache_capacity=1)
    return server, model_ids


def _fresh_stack(rows):
    blob = fitted_blob(rows)
    files = {"/etc/chronus/optimizer/model-1.json": blob}
    local = MemoryLocalStorage()
    settings = local.load().with_loaded_model(
        1, "/etc/chronus/optimizer/model-1.json", "brute-force",
        application="hpcg",
    )
    local.save(settings.with_binary_alias(777, "hpcg"))
    svc = SlurmConfigService(
        local, ModelFactory.load_optimizer, read_local=files.__getitem__
    )
    return svc, files


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------
class TestUnixSocketTransport:
    @pytest.fixture
    def daemon(self, loaded_stack, tmp_path):
        svc, _ = loaded_stack
        server = ChronusServer(svc)
        socket_path = str(tmp_path / "chronus.sock")
        uds = UnixSocketServer(server, socket_path).start()
        # wait for the bind
        client = UnixSocketTransport(socket_path, timeout_s=5.0)
        for _ in range(100):
            try:
                client.ping()
                break
            except OSError:
                threading.Event().wait(0.02)
        yield server, uds, client
        server.shutdown_requested.set()
        uds.stop()

    def test_predict_round_trip(self, daemon, loaded_stack):
        svc, _ = loaded_stack
        _, _, client = daemon
        resp = client.predict(PredictRequest(system_id=1, binary_hash=777))
        assert isinstance(resp, PredictResponse)
        best = svc.run(1, 777)
        assert (resp.cores, resp.threads_per_core, resp.frequency) == (
            best.cores, best.threads_per_core, best.frequency
        )

    def test_plain_dict_client_refused_over_the_wire(self, daemon):
        _, _, client = daemon
        answer = json.loads(
            client.request_raw('{"system_id": 1, "binary_hash": 777}')
        )
        assert answer["proto"] == PROTO_V2
        assert answer["error"] == "INVALID"
        assert "unsupported protocol" in answer["message"]

    def test_ping_reports_cache(self, daemon):
        _, _, client = daemon
        pong = client.ping()
        assert pong["ok"]
        assert "models_cached" in pong

    def test_shutdown_stops_daemon_and_unlinks_socket(self, daemon):
        server, uds, client = daemon
        assert client.shutdown()["ok"]
        assert server.shutdown_requested.is_set()
        uds.stop()
        assert not os.path.exists(client.socket_path)

    def test_transport_is_a_prediction_provider(self, daemon, loaded_stack):
        svc, _ = loaded_stack
        _, _, client = daemon
        assert isinstance(client, PredictionProvider)
        assert isinstance(LocalTransport(ChronusServer(svc)), PredictionProvider)


class _SlowShutdownServer:
    """A ChronusServer stand-in whose shutdown answer takes 0.5 s: longer
    than the daemon's 0.2 s accept poll, which sees the shutdown first."""

    def __init__(self) -> None:
        self.shutdown_requested = threading.Event()

    def handle_wire(self, payload: bytes) -> str:
        if b"shutdown" in payload:
            self.shutdown_requested.set()
            time.sleep(0.5)
        return '{"ok": true}'


def _serving(daemon: UnixSocketServer):
    """Run ``daemon.serve_forever`` on a thread once its socket answers;
    returns (the thread, the list its return value lands in, a client).
    The bind wait is one answered request."""
    served = []
    loop = threading.Thread(target=lambda: served.append(daemon.serve_forever()))
    loop.start()
    client = UnixSocketTransport(daemon.socket_path, timeout_s=5.0)
    deadline = time.monotonic() + 10.0
    while True:
        try:
            client.request_raw('{"op": "ping"}')
            return loop, served, client
        except OSError:
            assert time.monotonic() < deadline, "the daemon never bound its socket"
            time.sleep(0.02)


class _SlowReplyConn:
    """The daemon's side of a connection whose reply to the shutdown op
    takes 0.5 s to write.  Before writing it, it notes whether the
    daemon's ``serve_forever`` had already returned."""

    def __init__(self, conn, daemon: "_SlowReplyDaemon") -> None:
        self._conn = conn
        self._daemon = daemon

    def recv_into(self, buffer) -> int:
        return self._conn.recv_into(buffer)

    def sendall(self, data: bytes) -> None:
        if self._daemon.server.shutdown_requested.is_set():
            time.sleep(0.5)
            self._daemon.returned_before_reply.append(self._daemon.returned)
        self._conn.sendall(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._conn.close()


class _SlowReplyDaemon(UnixSocketServer):
    def __init__(self, server, socket_path: str) -> None:
        super().__init__(server, socket_path)
        self.returned = False
        self.returned_before_reply: list[bool] = []

    def serve_forever(self) -> int:
        try:
            return super().serve_forever()
        finally:
            self.returned = True

    def _serve_connection(self, conn) -> None:
        super()._serve_connection(_SlowReplyConn(conn, self))


class TestServeCount:
    def test_serve_forever_returns_after_the_stopping_reply_is_written(self, tmp_path):
        daemon = _SlowReplyDaemon(_SlowShutdownServer(), str(tmp_path / "reply.sock"))
        loop, served, client = _serving(daemon)
        assert json.loads(client.request_raw('{"op": "shutdown"}')) == {"ok": True}
        loop.join(timeout=10.0)
        assert not loop.is_alive()
        assert daemon.returned_before_reply == [False]
        assert served == [2]

    def test_serve_forever_counts_the_answer_that_stopped_it(self, tmp_path):
        daemon = UnixSocketServer(_SlowShutdownServer(), str(tmp_path / "count.sock"))
        loop, served, client = _serving(daemon)
        client.request_raw('{"op": "ping"}')
        assert json.loads(client.request_raw('{"op": "shutdown"}')) == {"ok": True}
        loop.join(timeout=10.0)
        assert not loop.is_alive()
        assert served == [3]
        assert daemon.requests_served == 3

    def test_concurrent_connections_lose_no_count(self, tmp_path):
        daemon = UnixSocketServer(_SlowShutdownServer(), str(tmp_path / "many.sock"))
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            loop, served, client = _serving(daemon)
            done = []

            def burst() -> None:
                for _ in range(25):
                    client.request_raw('{"op": "ping"}')
                done.append(1)

            clients = [threading.Thread(target=burst) for _ in range(8)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=30.0)
            assert len(done) == 8
            client.request_raw('{"op": "shutdown"}')
            loop.join(timeout=10.0)
        finally:
            sys.setswitchinterval(previous)
        assert not loop.is_alive()
        assert served == [1 + 8 * 25 + 1]


# ---------------------------------------------------------------------------
# the plugin's typed port
# ---------------------------------------------------------------------------
class _ShedProvider:
    def predict(self, request):
        return ErrorResponse(code=SHED, message="queue full", retryable=True)


class TestEcoTypedPort:
    def test_typed_provider_used_directly(self, node):
        class Typed:
            def predict(self, request):
                assert isinstance(request, PredictRequest)
                return PredictResponse(
                    cores=16, threads_per_core=2, frequency=2_200_000
                )

        provider = Typed()
        plugin = JobSubmitEco(node, provider)
        assert plugin.provider is provider
        desc = JobDescriptor(comment="chronus", binary="/x")
        plugin.job_submit(desc, 1000)
        assert (desc.num_tasks, desc.threads_per_core) == (16, 2)

    def test_shed_answer_engages_fallback(self, node):
        """A SHED ErrorResponse is an explicit refusal: the job goes
        through unmodified and the breaker counts the failure."""
        plugin = JobSubmitEco(node, _ShedProvider(), PluginState("activated"))
        for _ in range(3):
            desc = JobDescriptor(num_tasks=4, binary="/x")
            assert plugin.job_submit(desc, 1000) == SLURM_SUCCESS
            assert desc.num_tasks == 4  # untouched
        assert counter_value("eco_fallback_total") == 3
        # three consecutive failures open the breaker: the next submit
        # short-circuits without calling the provider at all
        desc = JobDescriptor(num_tasks=4, binary="/x")
        plugin.job_submit(desc, 1000)
        assert counter_value("eco_short_circuits_total") == 1

    def test_validate_accepts_typed_response(self, node):
        resp = PredictResponse(cores=4, threads_per_core=2, frequency=2_200_000)
        assert validate_chronus_config(resp, node) == (4, 2, 2_200_000)

    def test_validate_bounds_still_checked(self, node):
        resp = PredictResponse(
            cores=10_000, threads_per_core=1, frequency=2_200_000
        )
        with pytest.raises(ConfigValidationError, match="cores"):
            validate_chronus_config(resp, node)


# ---------------------------------------------------------------------------
# load-model atomic publication (regression)
# ---------------------------------------------------------------------------
class TestAtomicModelPublication:
    def _stack(self, tmp_path, steady_rows):
        repo = MemoryRepository()
        repo.save_system(SystemInfo("TestCPU", 32, 2, (1_500_000.0, 2_500_000.0)))
        for row in steady_rows:
            repo.save_benchmark(row)
        blobs = DictBlobStore()
        meta = InitModelService(
            repo, blobs, ModelFactory.get_optimizer
        ).run("brute-force", 1)
        local = EtcStorage(str(tmp_path / "etc" / "chronus"))
        return repo, blobs, local, meta

    @staticmethod
    def _write(path, data):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data)

    @staticmethod
    def _read(path):
        with open(path, "rb") as fh:
            return fh.read()

    def test_success_leaves_no_tmp_file(self, tmp_path, steady_rows):
        repo, blobs, local, meta = self._stack(tmp_path, steady_rows)
        load = LoadModelService(repo, blobs, local, write_local=self._write)
        _, path = load.run(meta.model_id)
        assert os.path.exists(path)
        assert not os.path.exists(path + ".tmp")
        assert self._read(path) == blobs.load(meta.blob_path)

    def test_crash_mid_write_never_truncates_published_model(
        self, tmp_path, steady_rows
    ):
        """The regression: a crash while re-loading a model must leave the
        previously published artifact intact, never a truncated file."""
        repo, blobs, local, meta = self._stack(tmp_path, steady_rows)
        load = LoadModelService(repo, blobs, local, write_local=self._write)
        _, path = load.run(meta.model_id)
        good = self._read(path)

        def crashing_write(p, data):
            self._write(p, data[: len(data) // 2])
            raise OSError("disk full")

        crashy = LoadModelService(repo, blobs, local, write_local=crashing_write)
        with pytest.raises(OSError):
            crashy.run(meta.model_id)
        # the published artifact under the final name is bit-identical
        assert self._read(path) == good
        # and the optimizer still deserializes
        ModelFactory.load_optimizer(meta.model_type, self._read(path))


# ---------------------------------------------------------------------------
# batched hot path parity + warm step + the line wire
# ---------------------------------------------------------------------------
class TestBatchBitIdentity:
    """predict_batch answers must equal per-request predict answers
    field-for-field (bar batch_size, which records the dispatch width)."""

    @staticmethod
    def _fields(answer):
        return (
            answer.cores, answer.threads_per_core, answer.frequency,
            answer.model_type, answer.model_id, answer.model_version,
            answer.proto,
        )

    def test_mixed_floors_bit_identical(self, loaded_stack):
        svc, _ = loaded_stack
        floors = [None, 0.5, 0.8, 0.9, 0.95, 1.0]
        requests = [
            PredictRequest(
                system_id=1, binary_hash=777,
                min_perf=floors[i % len(floors)], job_name=f"j{i}",
            )
            for i in range(24)
        ]
        scalar = [svc.predict(r) for r in requests]
        batched = svc.predict_batch(requests)
        assert all(isinstance(a, PredictResponse) for a in batched)
        for got, want in zip(batched, scalar):
            assert self._fields(got) == self._fields(want)
        assert all(a.batch_size == len(requests) for a in batched)

    def test_batch_groups_by_model_and_records_metrics(self, steady_rows):
        blob = fitted_blob(steady_rows)
        files = {"/p1": blob, "/p2": blob}
        local = MemoryLocalStorage()
        local.save(ChronusSettings(loaded_models={
            "1": {"path": "/p1", "type": "brute-force"},
            "2": {"path": "/p2", "type": "brute-force"},
        }))
        svc = SlurmConfigService(
            local, ModelFactory.load_optimizer, read_local=files.__getitem__
        )
        requests = [
            PredictRequest(system_id=1 + (i % 2), job_name=f"j{i}")
            for i in range(8)
        ]
        scalar = [svc.predict(r) for r in requests]
        batched = svc.predict_batch(requests)
        for got, want in zip(batched, scalar):
            assert self._fields(got) == self._fields(want)
        # 8 requests coalesce to 2 distinct keys; each representative is
        # answered off the vectorized path, the rest share its answer
        assert counter_value("serve_batch_vectorized_total") == 2
        assert counter_value("serve_coalesced_total") == 6

    def test_single_request_batch(self, loaded_stack):
        svc, _ = loaded_stack
        request = PredictRequest(system_id=1, binary_hash=777)
        (batched,) = svc.predict_batch([request])
        assert self._fields(batched) == self._fields(svc.predict(request))


class TestServiceWarm:
    def test_warm_primes_the_cache(self, loaded_stack):
        svc, reads = loaded_stack
        key = svc.warm(1, 777)
        assert key == ("1", "hpcg")
        assert len(reads) == 1
        assert counter_value("model_warm_total") == 1
        # the warmed optimizer serves predicts without another load
        svc.predict(PredictRequest(system_id=1, binary_hash=777))
        assert len(reads) == 1

    def test_warm_unknown_model_raises(self, steady_rows):
        # two distinct models loaded: the single-model fallback cannot
        # mask a genuinely unknown system id
        blob = fitted_blob(steady_rows)
        files = {"/p1": blob, "/p2": blob}
        local = MemoryLocalStorage()
        local.save(ChronusSettings(loaded_models={
            "1": {"path": "/p1", "type": "brute-force"},
            "2": {"path": "/p2", "type": "brute-force"},
        }))
        svc = SlurmConfigService(
            local, ModelFactory.load_optimizer, read_local=files.__getitem__
        )
        from repro.core.domain.errors import ModelNotFoundError

        with pytest.raises(ModelNotFoundError):
            svc.warm(404)


class TestLineWire:
    @pytest.fixture
    def daemon(self, loaded_stack, tmp_path):
        svc, _ = loaded_stack
        server = ChronusServer(svc)
        socket_path = str(tmp_path / "chronus-lines.sock")
        uds = UnixSocketServer(server, socket_path).start()
        probe = UnixSocketTransport(socket_path, timeout_s=5.0)
        for _ in range(100):
            try:
                probe.ping()
                break
            except OSError:
                threading.Event().wait(0.02)
        yield socket_path
        server.shutdown_requested.set()
        uds.stop()

    def test_large_line_grows_the_buffer(self, daemon):
        """A request bigger than the reader's initial 64 KiB buffer must
        still parse (buffer doubles, then keeps serving)."""
        client = UnixSocketTransport(daemon, timeout_s=5.0)
        request = PredictRequest(
            system_id=1, binary_hash=777, job_name="j" * (128 * 1024)
        )
        answer = client.predict(request)
        assert isinstance(answer, PredictResponse)

    def test_line_in_small_pieces_is_scanned_once(self):
        """A 1 MiB line that arrives 1 KiB at a time costs one pass of
        the newline search, not one pass per piece."""

        class CountingBuffer(bytearray):
            scanned = 0

            def find(self, sub, start=0, end=None):
                self.scanned += (len(self) if end is None else end) - start
                return super().find(sub, start, end)

        class Trickle:
            def __init__(self, data: bytes, piece: int) -> None:
                self.data, self.piece = memoryview(data), piece

            def recv_into(self, view) -> int:
                n = min(self.piece, len(view), len(self.data))
                view[:n] = self.data[:n]
                self.data = self.data[n:]
                return n

        line = b"x" * (1 << 20)
        # the short line first, so the slide-to-front path runs too
        reader = _ConnReader(Trickle(b"ping\n" + line + b"\n", 1024))
        reader._buf = CountingBuffer(reader._buf)
        assert reader.next_message() == b"ping"
        assert reader.next_message() == line
        assert reader.next_message() is None
        scanned = reader._buf.scanned
        assert scanned <= 2 * len(line), f"find scanned {scanned} bytes"

    def test_oversized_line_is_refused_and_the_connection_closed(self, daemon):
        """A client that never sends a newline cannot grow the daemon's
        buffer past the cap: it gets INVALID, then EOF."""
        import socket as socketlib

        sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        sock.settimeout(5.0)
        try:
            sock.connect(daemon)
            sock.sendall(b"x" * MAX_LINE_BYTES)
            with sock.makefile("rb") as stream:
                answer = json.loads(stream.readline())
                assert stream.read() == b""  # the daemon hung up
        finally:
            sock.close()
        assert answer["error"] == "INVALID"
        assert "cap" in answer["message"]
        assert counter_value("serve_protocol_errors_total") == 1
