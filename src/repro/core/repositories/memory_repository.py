"""In-memory repository — the test double and the semantics reference.

The CSV and SQLite integrations must behave identically to this one; the
repository contract tests run the same suite against all three.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Optional

from repro.core.application.interfaces import RepositoryInterface
from repro.core.domain.benchmark import BenchmarkResult
from repro.core.domain.errors import ModelNotFoundError, SystemNotFoundError
from repro.core.domain.model import ModelMetadata
from repro.core.domain.system_info import SystemInfo

__all__ = ["MemoryRepository"]


class MemoryRepository(RepositoryInterface):
    """Dictionary-backed repository."""

    def __init__(self) -> None:
        self._systems: dict[int, SystemInfo] = {}
        self._benchmarks: list[BenchmarkResult] = []
        self._models: dict[int, ModelMetadata] = {}
        self._next_system_id = 1
        self._next_model_id = 1
        self._model_lock = threading.Lock()

    # --- systems -------------------------------------------------------
    def save_system(self, info: SystemInfo) -> int:
        for sid, existing in self._systems.items():
            if existing.fingerprint() == info.fingerprint():
                return sid
        sid = self._next_system_id
        self._next_system_id += 1
        self._systems[sid] = info
        return sid

    def get_system(self, system_id: int) -> SystemInfo:
        if system_id not in self._systems:
            raise SystemNotFoundError(f"no system with id {system_id}")
        return self._systems[system_id]

    def list_systems(self) -> list[tuple[int, SystemInfo]]:
        return sorted(self._systems.items())

    # --- benchmarks ----------------------------------------------------
    def save_benchmark(self, result: BenchmarkResult) -> int:
        if result.system_id not in self._systems:
            raise SystemNotFoundError(
                f"benchmark references unknown system {result.system_id}"
            )
        self._benchmarks.append(result)
        return len(self._benchmarks)

    def benchmarks_for_system(
        self, system_id: int, application: Optional[str] = None
    ) -> list[BenchmarkResult]:
        return [
            b
            for b in self._benchmarks
            if b.system_id == system_id
            and (application is None or b.application == application)
        ]

    # --- models --------------------------------------------------------
    def save_model_metadata(self, metadata: ModelMetadata) -> int:
        # id assignment happens inside the save, under one lock, so two
        # concurrent saves can never be handed the same id
        with self._model_lock:
            if metadata.model_id == 0:
                metadata = replace(metadata, model_id=self._next_model_id)
            self._models[metadata.model_id] = metadata
            self._next_model_id = max(self._next_model_id, metadata.model_id + 1)
            return metadata.model_id

    def save_model_records(self, records) -> list[int]:
        return [self.save_model_metadata(r) for r in records]

    def get_model_metadata(self, model_id: int) -> ModelMetadata:
        if model_id not in self._models:
            raise ModelNotFoundError(f"no model with id {model_id}")
        return self._models[model_id]

    def list_models(self) -> list[ModelMetadata]:
        return [self._models[k] for k in sorted(self._models)]
