"""slurmdbd tailing, and the control plane it runs in freed without the
cyclic garbage collector.

The tail's equivalence to a full scan is property-tested in
``tests/test_statesave.py``; this module pins the fallback counter and
the reference-cycle guarantee.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import telemetry
from repro.core.application.interfaces import LocalStorageInterface
from repro.core.application.slurm_config_service import SlurmConfigService
from repro.core.domain.settings import ChronusSettings
from repro.core.factory import ModelFactory
from repro.serving.protocol import PredictRequest, PredictResponse
from repro.serving.server import ChronusServer
from repro.slurm.cluster import HPCG_BINARY, SimCluster
from repro.slurm.dbd import SlurmDbd
from repro.slurm.job import JobDescriptor
from repro.slurm.statesave import StateSave

MODEL_PATH = "/etc/chronus/optimizer/model-1.json"


@pytest.fixture(autouse=True)
def metrics_registry():
    # a real registry even under CHRONUS_TELEMETRY=0: the counter is asserted
    telemetry.set_registry(telemetry.MetricsRegistry())
    yield
    telemetry.set_registry(telemetry.MetricsRegistry())


@pytest.fixture
def statesave(tmp_path):
    ss = StateSave(str(tmp_path), fsync=False)
    yield ss
    ss.close()


def _counter(name: str) -> float:
    entry = telemetry.find_metric(telemetry.snapshot(), "counters", name)
    return entry["value"] if entry else 0.0


def _submit(cluster: SimCluster, name: str) -> int:
    return cluster.ctld.submit(
        JobDescriptor(name=name, num_tasks=8, binary=HPCG_BINARY, time_limit_s=600)
    )


class _MemoryStorage(LocalStorageInterface):
    def __init__(self, settings: ChronusSettings) -> None:
        self.settings = settings

    def load(self) -> ChronusSettings:
        return self.settings

    def save(self, settings: ChronusSettings) -> None:
        self.settings = settings

    def resolve_path(self, relative: str) -> str:
        return f"/etc/chronus/{relative}"


def _server(rows) -> ChronusServer:
    optimizer = ModelFactory.get_optimizer("brute-force")
    optimizer.fit(rows)
    files = {MODEL_PATH: optimizer.serialize()}
    settings = ChronusSettings().with_loaded_model(
        1, MODEL_PATH, "brute-force", application="hpcg"
    )
    service = SlurmConfigService(
        _MemoryStorage(settings.with_binary_alias(777, "hpcg")),
        ModelFactory.load_optimizer,
        read_local=files.__getitem__,
    )
    return ChronusServer(service)


class TestTailRescans:
    def test_steady_state_pumps_never_rescan(self, statesave):
        ss = statesave
        cluster = SimCluster(n_nodes=2, statesave=ss, hpcg_duration_s=60.0)
        dbd = SlurmDbd(ss)
        dbd.pump()  # the first pump scans: there is no anchor yet
        for i in range(4):
            _submit(cluster, f"steady-{i}")
            cluster.sim.run(until=cluster.sim.now + 30.0)
            assert dbd.pump() > 0
        cluster.sim.run()
        dbd.pump()
        assert dbd.pump() == 0
        assert dbd.rescans == 0
        assert _counter("dbd_tail_rescans_total") == 0
        assert dbd.db.total_energy_j() == cluster.accounting.total_energy_j()

    def test_compaction_costs_one_rescan(self, statesave):
        ss = statesave
        cluster = SimCluster(n_nodes=2, statesave=ss, hpcg_duration_s=60.0)
        dbd = SlurmDbd(ss)
        _submit(cluster, "before")
        cluster.sim.run()
        dbd.pump()
        ss.write_snapshot(
            cluster.ctld.capture_state(), epoch=ss.epoch, time=cluster.sim.now
        )
        _submit(cluster, "after")
        assert ss.compact() > 0
        cluster.sim.run()
        assert dbd.pump() > 0
        assert dbd.pump() == 0
        assert dbd.rescans == 1
        assert _counter("dbd_tail_rescans_total") == 1
        assert dbd.bootstraps == 0  # the cursor was past the snapshot
        assert dbd.db.total_energy_j() == cluster.accounting.total_energy_j()


def test_finished_control_plane_is_freed_by_reference_counting(tmp_path, steady_rows):
    """No reference cycle keeps a finished round's objects alive.

    With the cyclic collector off, dropping the last outside reference
    must free the cluster, its simulator, the dbd its timer pumps and the
    prediction server, so a long run of rounds never waits on a full
    collection to give memory back.
    """
    gc.collect()
    gc.disable()
    try:
        server = _server(steady_rows)
        server.start()
        answer = server.predict(PredictRequest(system_id=1, binary_hash=777))
        assert isinstance(answer, PredictResponse)
        server.stop()
        ss = StateSave(str(tmp_path), fsync=False)
        cluster = SimCluster(n_nodes=2, statesave=ss, hpcg_duration_s=60.0)
        dbd = SlurmDbd(ss)
        cluster.sim.call_every(10.0, dbd.pump, name="dbd-pump")
        for i in range(3):
            _submit(cluster, f"freed-{i}")
        cluster.sim.run()
        dbd.pump()
        assert len(dbd.db) == 3
        refs = {
            "cluster": weakref.ref(cluster),
            "simulator": weakref.ref(cluster.sim),
            "event queue": weakref.ref(cluster.sim.events),
            "controller": weakref.ref(cluster.ctld),
            "dbd": weakref.ref(dbd),
            "server": weakref.ref(server),
        }
        ss.close()
        del server, answer, cluster, dbd, ss
        alive = sorted(name for name, ref in refs.items() if ref() is not None)
        assert alive == []
    finally:
        gc.enable()
