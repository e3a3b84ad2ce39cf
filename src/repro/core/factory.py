"""Composition root: the paper's ``main.py`` + ModelFactory (Listing 2).

:class:`ChronusApp` wires every integration implementation to the
application services for one deployment: a workspace directory standing in
for the head node's filesystem (``/etc/chronus``, the database, blob
storage) plus a :class:`~repro.slurm.cluster.SimCluster` standing in for
the machine itself.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from repro.core.application.benchmark_service import BenchmarkService
from repro.core.application.init_model_service import InitModelService
from repro.core.application.interfaces import OptimizerInterface, RepositoryInterface
from repro.core.application.load_model_service import LoadModelService
from repro.core.application.model_registry_service import ModelRegistryService
from repro.core.application.settings_service import SettingsService
from repro.core.application.slurm_config_service import SlurmConfigService
from repro.core.application.sweep_executor import SweepExecutor
from repro.core.optimizers.base import (
    OPTIMIZER_TYPES,
    deserialize_optimizer,
    optimizer_from_name,
)
from repro.core.repositories.csv_repository import CsvRepository
from repro.core.repositories.memory_repository import MemoryRepository
from repro.core.repositories.sqlite_repository import SqliteRepository
from repro.core.runners.hpcg_runner import HpcgRunner
from repro.core.services.ipmi_service import IpmiSystemService
from repro.core.services.lscpu_info import LscpuSystemInfo
from repro.core.storage.etc_storage import EtcStorage
from repro.core.storage.local_file_repository import LocalFileRepository
from repro.slurm.cluster import HPCG_BINARY, SimCluster
from repro.core.domain.chash import simple_hash
from repro.slurm.plugins.eco import JobSubmitEco, PluginState

__all__ = ["ModelFactory", "ChronusApp"]


class ModelFactory:
    """Optimizer-type dispatch, exactly the role of the paper's Listing 2."""

    @staticmethod
    def get_optimizer(model_type: str) -> OptimizerInterface:
        return optimizer_from_name(model_type)

    @staticmethod
    def load_optimizer(model_type: str, data: bytes) -> OptimizerInterface:
        return deserialize_optimizer(model_type, data)

    @staticmethod
    def available_types() -> list[str]:
        return sorted(OPTIMIZER_TYPES)


def _repository_for(path: str) -> RepositoryInterface:
    """Pick the Repository implementation from the configured path.

    ``:memory:`` -> in-memory; ``*.db`` / ``*.sqlite`` -> SQLite; anything
    else is treated as a CSV directory.
    """
    if path == ":memory:":
        return MemoryRepository()
    if path.endswith((".db", ".sqlite")):
        return SqliteRepository(path)
    return CsvRepository(path)


class ChronusApp:
    """One Chronus deployment wired against one cluster + workspace."""

    def __init__(
        self,
        cluster: SimCluster,
        workspace: str,
        *,
        hpcg_path: str = HPCG_BINARY,
        sample_interval_s: float = 3.0,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.cluster = cluster
        self.workspace = workspace
        os.makedirs(workspace, exist_ok=True)
        self._log = log or (lambda msg: None)

        self.local_storage = EtcStorage(os.path.join(workspace, "etc", "chronus"))
        settings = self.local_storage.load()
        self.repository = _repository_for(
            self._resolve_workspace_path(settings.database_path)
        )
        self.file_repository = LocalFileRepository(
            self._resolve_workspace_path(settings.blob_storage_path)
        )
        self.system_service = IpmiSystemService(cluster.ipmi, clock=lambda: cluster.sim.now)
        self.system_info = LscpuSystemInfo(cluster.node)
        self.runner = HpcgRunner(cluster, hpcg_path, log=self._log)

        self.benchmark_service = BenchmarkService(
            self.repository,
            self.runner,
            self.system_service,
            self.system_info,
            sample_interval_s=sample_interval_s,
            log=self._log,
        )
        self.init_model_service = InitModelService(
            self.repository,
            self.file_repository,
            ModelFactory.get_optimizer,
            log=self._log,
        )
        self.load_model_service = LoadModelService(
            self.repository,
            self.file_repository,
            self.local_storage,
            write_local=self._write_file,
            log=self._log,
        )
        self.model_registry_service = ModelRegistryService(
            self.repository,
            self.load_model_service,
            self.local_storage,
            log=self._log,
        )
        self.slurm_config_service = SlurmConfigService(
            self.local_storage,
            ModelFactory.load_optimizer,
            read_local=self._read_file,
            log=self._log,
        )
        self.settings_service = SettingsService(self.local_storage, log=self._log)
        self.plugin_state = PluginState(settings.plugin_state)
        self._server = None
        # binary-hash -> application mapping for per-binary model dispatch;
        # the configured HPCG path is registered out of the box
        self.register_binary(hpcg_path, "hpcg")

    # ------------------------------------------------------------------
    def _resolve_workspace_path(self, path: str) -> str:
        if os.path.isabs(path):
            return path
        return os.path.join(self.workspace, path)

    @staticmethod
    def _write_file(path: str, data: bytes) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data)
            fh.flush()
            # the artifact must be durable before load-model's atomic
            # rename publishes it; a crash may not replay the page cache
            os.fsync(fh.fileno())

    @staticmethod
    def _read_file(path: str) -> bytes:
        with open(path, "rb") as fh:
            return fh.read()

    # ------------------------------------------------------------------
    def make_sweep_executor(
        self,
        *,
        workers: Optional[int] = None,
        batch_size: int = 16,
    ) -> SweepExecutor:
        """A parallel sweep executor persisting into this app's repository.

        Workers run each sweep point on a fresh deterministically-seeded
        cluster (not this app's live one), so the sweep parallelizes
        without sharing simulator state; see
        :mod:`repro.core.runners.sweep_worker`.
        """
        from repro.core.runners.sweep_worker import run_sweep_point

        return SweepExecutor(
            self.repository,
            self.system_info,
            run_sweep_point,
            application=self.runner.application,
            workers=workers,
            batch_size=batch_size,
            log=self._log,
        )

    def sweep_points(self, configurations, *, duration_s: Optional[float] = 1200.0):
        """Seeded sweep points for this deployment's cluster seed/paths."""
        from repro.core.runners.sweep_worker import build_sweep_points

        return build_sweep_points(
            configurations,
            base_seed=self.cluster.streams.root_seed,
            duration_s=duration_s,
            sample_interval_s=self.benchmark_service.sample_interval_s,
            hpcg_path=self.runner.hpcg_path,
        )

    # ------------------------------------------------------------------
    def register_binary(self, path: str, application: str) -> None:
        """Map an executable to its application name (fixes the paper's
        hard-coded-binary limitation 6.1.2): the eco plugin sends
        ``simple_hash(binary)``, which slurm-config resolves to the
        application whose model should answer."""
        # mutate serializes against concurrent settings writers (model
        # loads, lifecycle flips) — a plain load/save here could publish
        # a stale snapshot and silently drop their fields
        self.local_storage.mutate(
            lambda s: s.with_binary_alias(simple_hash(path), application)
        )

    # ------------------------------------------------------------------
    def make_server(
        self,
        *,
        cache_capacity: Optional[int] = 8,
        max_batch: int = 16,
        queue_limit: int = 128,
        shadow_sample_rate: Optional[float] = None,
    ):
        """A :class:`~repro.serving.ChronusServer` over this deployment.

        The server owns the bounded model cache and the micro-batching
        queue; it serves predictions inline until ``start()`` is called
        (so building one spawns no threads).  Once started, its batching
        thread is work-conserving: each batch takes up to ``max_batch``
        of the requests queued while the previous batch ran, and a lone
        request is never held back.
        """
        from repro.serving.server import ChronusServer

        return ChronusServer(
            self.slurm_config_service,
            load_model_service=self.load_model_service,
            cache_capacity=cache_capacity,
            max_batch=max_batch,
            queue_limit=queue_limit,
            shadow_sample_rate=shadow_sample_rate,
            log=self._log,
        )

    @property
    def server(self):
        """This deployment's prediction server (built lazily, not started)."""
        if self._server is None:
            self._server = self.make_server()
        return self._server

    @property
    def clock(self) -> Callable[[], float]:
        return lambda: self.cluster.sim.now

    def enable_eco_plugin(self) -> JobSubmitEco:
        """Install ``job_submit_eco`` into the cluster's controller.

        Requires ``JobSubmitPlugins=eco`` in the cluster's slurm.conf, the
        paper's installation step (section 3.4.1).  The plugin talks to
        the deployment's prediction server through an in-process
        :class:`~repro.serving.LocalTransport` — the same admission,
        batching and protocol path the socket daemon serves.
        """
        from repro.serving.transport import LocalTransport

        self.plugin_state.set(self.local_storage.load().plugin_state)
        plugin = JobSubmitEco(
            self.cluster.node,
            provider=LocalTransport(self.server),
            state=self.plugin_state,
            log=self._log,
        )
        self.cluster.ctld.register_plugin(plugin)
        return plugin

    def sync_plugin_state(self) -> None:
        """Propagate the settings-file plugin state to the live plugin."""
        self.plugin_state.set(self.local_storage.load().plugin_state)
