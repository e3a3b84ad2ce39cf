"""CSV repository — the paper's flat-file Repository implementation.

Three CSV files in a directory (``systems.csv``, ``benchmarks.csv``,
``models.csv``).  Writes are append-or-rewrite whole-file: simple, durable
enough for a single-admin tool, and trivially inspectable — exactly why
the paper ships a CSV backend next to SQLite.
"""

from __future__ import annotations

import csv
import json
import os
import threading
from dataclasses import replace
from typing import Optional

from repro.core.application.interfaces import RepositoryInterface
from repro.core.domain.benchmark import BenchmarkResult
from repro.core.domain.errors import ModelNotFoundError, SystemNotFoundError
from repro.core.domain.model import ModelMetadata
from repro.core.domain.system_info import SystemInfo

__all__ = ["CsvRepository"]

_BENCH_FIELDS = [
    "system_id", "application", "cores", "threads_per_core", "frequency",
    "gflops", "avg_system_w", "avg_cpu_w", "avg_cpu_temp_c",
    "system_energy_j", "cpu_energy_j", "runtime_s",
]
#: pre-registry header (kept to recognise legacy files for migration)
_LEGACY_MODEL_FIELDS = [
    "model_id", "model_type", "system_id", "application", "blob_path",
    "created_at", "training_points",
]
_MODEL_FIELDS = _LEGACY_MODEL_FIELDS + [
    "stage", "version", "parent_id", "digest", "provenance",
]


class CsvRepository(RepositoryInterface):
    """Repository over a directory of CSV files."""

    def __init__(self, directory: str) -> None:
        if not directory:
            raise ValueError("directory cannot be empty")
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        #: serializes model-id assignment + rewrite within this process
        self._model_lock = threading.Lock()
        self._migrate_models_file()

    def _migrate_models_file(self) -> None:
        """Rewrite a pre-registry ``models.csv`` in place.

        Legacy rows have no lifecycle columns; each was the one deployed
        model of its day, so they migrate as ``stage=active`` version 1
        (exactly what :meth:`ModelMetadata.from_dict` does for a row
        missing those keys).  A current-schema file is left untouched.
        """
        path = self._path("models.csv")
        if not os.path.exists(path):
            return
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            if set(_MODEL_FIELDS) <= set(header):
                return
            rows = list(reader)
        migrated = [ModelMetadata.from_dict(r) for r in rows]
        with self._model_lock:
            self._rewrite_models(migrated)

    # ------------------------------------------------------------------
    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def _read_rows(self, name: str) -> list[dict[str, str]]:
        path = self._path(name)
        if not os.path.exists(path):
            return []
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))

    def _append_row(self, name: str, fields: list[str], row: dict) -> None:
        path = self._path(name)
        new_file = not os.path.exists(path)
        with open(path, "a", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            if new_file:
                writer.writeheader()
            writer.writerow(row)

    # --- systems -------------------------------------------------------
    def save_system(self, info: SystemInfo) -> int:
        fp = str(info.fingerprint())
        rows = self._read_rows("systems.csv")
        for row in rows:
            if row["fingerprint"] == fp:
                return int(row["id"])
        sid = max((int(r["id"]) for r in rows), default=0) + 1
        self._append_row(
            "systems.csv",
            ["id", "fingerprint", "info_json"],
            {"id": sid, "fingerprint": fp, "info_json": json.dumps(info.to_dict())},
        )
        return sid

    def get_system(self, system_id: int) -> SystemInfo:
        for row in self._read_rows("systems.csv"):
            if int(row["id"]) == system_id:
                return SystemInfo.from_dict(json.loads(row["info_json"]))
        raise SystemNotFoundError(f"no system with id {system_id}")

    def list_systems(self) -> list[tuple[int, SystemInfo]]:
        out = [
            (int(row["id"]), SystemInfo.from_dict(json.loads(row["info_json"])))
            for row in self._read_rows("systems.csv")
        ]
        return sorted(out)

    # --- benchmarks ----------------------------------------------------
    def save_benchmark(self, result: BenchmarkResult) -> int:
        self.get_system(result.system_id)  # raises if unknown
        rows = self._read_rows("benchmarks.csv")
        self._append_row("benchmarks.csv", _BENCH_FIELDS, result.to_dict())
        return len(rows) + 1

    def benchmarks_for_system(
        self, system_id: int, application: Optional[str] = None
    ) -> list[BenchmarkResult]:
        out = []
        for row in self._read_rows("benchmarks.csv"):
            if int(row["system_id"]) != system_id:
                continue
            if application is not None and row["application"] != application:
                continue
            out.append(BenchmarkResult.from_dict(row))
        return out

    # --- models --------------------------------------------------------
    def _rewrite_models(self, records: list[ModelMetadata]) -> None:
        """Whole-file rewrite published by an atomic rename."""
        path = self._path("models.csv")
        tmp = path + ".tmp"
        with open(tmp, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=_MODEL_FIELDS)
            writer.writeheader()
            for record in sorted(records, key=lambda m: m.model_id):
                row = {
                    k: ("" if v is None else str(v))
                    for k, v in record.to_dict().items()
                }
                writer.writerow(row)
        os.replace(tmp, path)

    def save_model_metadata(self, metadata: ModelMetadata) -> int:
        return self.save_model_records([metadata])[0]

    def save_model_records(self, records) -> list[int]:
        # one lock spans read-assign-rewrite, so id assignment and the
        # file rewrite are a single step within this process
        with self._model_lock:
            existing = {m.model_id: m for m in self.list_models()}
            next_id = max(existing, default=0) + 1
            ids: list[int] = []
            for record in records:
                if record.model_id == 0:
                    record = replace(record, model_id=next_id)
                existing[record.model_id] = record
                next_id = max(next_id, record.model_id + 1)
                ids.append(record.model_id)
            self._rewrite_models(list(existing.values()))
            return ids

    def get_model_metadata(self, model_id: int) -> ModelMetadata:
        for row in self._read_rows("models.csv"):
            if int(row["model_id"]) == model_id:
                return ModelMetadata.from_dict(row)
        raise ModelNotFoundError(f"no model with id {model_id}")

    def list_models(self) -> list[ModelMetadata]:
        rows = self._read_rows("models.csv")
        return sorted(
            (ModelMetadata.from_dict(r) for r in rows), key=lambda m: m.model_id
        )
