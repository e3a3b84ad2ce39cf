"""SQLite repository — the paper's ``database/data.db`` integration.

Three tables (systems, benchmarks, models) with JSON columns for nested
structures.  Connections are short-lived per operation so concurrent CLI
invocations (benchmark in tmux + slurm-config from the plugin) do not hold
locks, mirroring how the original uses SQLite.

Write resilience: every write runs inside one transaction, so an error
mid-batch rolls the whole flush back; transient ``database is locked`` /
``busy`` / I/O errors are then retried by re-running the *entire*
operation under a seeded backoff policy.  Rollback-then-retry is the
single-flush guarantee — after any number of mid-batch failures the batch
lands exactly once or not at all, never duplicated and never half-written.
The ``sqlite.busy`` fault site injects a lock error just before commit to
prove it.
"""

from __future__ import annotations

import json
import sqlite3
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, TypeVar

from repro import faults, telemetry
from repro.core.application.interfaces import RepositoryInterface
from repro.core.domain.benchmark import BenchmarkResult
from repro.core.domain.errors import ModelNotFoundError, SystemNotFoundError
from repro.core.domain.model import ModelMetadata
from repro.core.domain.system_info import SystemInfo
from repro.resilience import RetryPolicy

__all__ = ["SqliteRepository"]

T = TypeVar("T")

#: SQLite raises OperationalError for both transient contention and
#: permanent problems; only these message fragments are retry-safe
_TRANSIENT_SQLITE_MARKERS = ("locked", "busy", "disk i/o error")

#: a handful of quick attempts rides out a concurrent CLI holding the file
DEFAULT_WRITE_RETRY = RetryPolicy(
    max_attempts=4, base_delay_s=0.002, max_delay_s=0.05, seed=0
)


def _is_transient_sqlite_error(exc: BaseException) -> bool:
    return isinstance(exc, sqlite3.OperationalError) and any(
        marker in str(exc).lower() for marker in _TRANSIENT_SQLITE_MARKERS
    )

_SCHEMA = """
CREATE TABLE IF NOT EXISTS systems (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    fingerprint TEXT NOT NULL UNIQUE,
    info_json TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS benchmarks (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    system_id INTEGER NOT NULL REFERENCES systems(id),
    application TEXT NOT NULL,
    cores INTEGER NOT NULL,
    threads_per_core INTEGER NOT NULL,
    frequency INTEGER NOT NULL,
    gflops REAL NOT NULL,
    avg_system_w REAL NOT NULL,
    avg_cpu_w REAL NOT NULL,
    avg_cpu_temp_c REAL NOT NULL,
    system_energy_j REAL NOT NULL,
    cpu_energy_j REAL NOT NULL,
    runtime_s REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS models (
    id INTEGER PRIMARY KEY,
    model_type TEXT NOT NULL,
    system_id INTEGER NOT NULL REFERENCES systems(id),
    application TEXT NOT NULL,
    blob_path TEXT NOT NULL,
    created_at REAL NOT NULL,
    training_points INTEGER NOT NULL,
    stage TEXT NOT NULL DEFAULT 'active',
    version INTEGER NOT NULL DEFAULT 1,
    parent_id INTEGER,
    digest TEXT NOT NULL DEFAULT '',
    provenance TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS idx_benchmarks_system
    ON benchmarks(system_id, application);
"""

#: lifecycle columns a pre-registry ``models`` table lacks; added in place
#: on open.  The ALTER defaults are the legacy migration policy: every
#: pre-registry row was its deployment's one deployed model, so it
#: becomes ``active`` version 1.
_MODEL_LIFECYCLE_COLUMNS = (
    ("stage", "TEXT NOT NULL DEFAULT 'active'"),
    ("version", "INTEGER NOT NULL DEFAULT 1"),
    ("parent_id", "INTEGER"),
    ("digest", "TEXT NOT NULL DEFAULT ''"),
    ("provenance", "TEXT NOT NULL DEFAULT ''"),
)


class SqliteRepository(RepositoryInterface):
    """Repository over one SQLite database file."""

    def __init__(
        self, path: str, *, retry_policy: Optional[RetryPolicy] = None
    ) -> None:
        if not path:
            raise ValueError("database path cannot be empty")
        self.path = path
        self.retry_policy = retry_policy or DEFAULT_WRITE_RETRY
        with self._connect() as conn:
            conn.executescript(_SCHEMA)
            self._migrate_models_table(conn)

    @staticmethod
    def _migrate_models_table(conn: sqlite3.Connection) -> None:
        """Add lifecycle columns to a pre-registry ``models`` table.

        ``ALTER TABLE .. ADD COLUMN`` with a DEFAULT back-fills existing
        rows, so a legacy database opens with every model ``active`` at
        version 1 — the in-place migration the registry requires.
        """
        have = {
            row["name"] for row in conn.execute("PRAGMA table_info(models)")
        }
        for name, decl in _MODEL_LIFECYCLE_COLUMNS:
            if name not in have:
                conn.execute(f"ALTER TABLE models ADD COLUMN {name} {decl}")

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        conn = sqlite3.connect(self.path)
        conn.row_factory = sqlite3.Row
        conn.execute("PRAGMA busy_timeout = 2000")
        try:
            yield conn
            conn.commit()
        finally:
            # on an exception the commit is skipped and close() discards
            # the open transaction — a failed write leaves no partial rows
            conn.close()

    def _write(self, op_name: str, op: Callable[[], T]) -> T:
        """Run a write op, retrying the whole transaction on contention."""

        def on_retry(exc: BaseException, attempt: int) -> None:
            telemetry.counter("sqlite_write_retries_total").inc()

        return self.retry_policy.call(
            op,
            op=op_name,
            retry_on=(sqlite3.OperationalError,),
            should_retry=_is_transient_sqlite_error,
            sleep=None,
            on_retry=on_retry,
        )

    @staticmethod
    def _maybe_inject_busy(conn: sqlite3.Connection) -> None:
        """The ``sqlite.busy`` fault site: lose the transaction pre-commit."""
        if faults.fire("sqlite.busy"):
            conn.rollback()
            raise sqlite3.OperationalError("database is locked (injected fault)")

    # --- systems -------------------------------------------------------
    def save_system(self, info: SystemInfo) -> int:
        return self._write("sqlite.save_system", lambda: self._save_system(info))

    def _save_system(self, info: SystemInfo) -> int:
        fp = str(info.fingerprint())
        with self._connect() as conn:
            row = conn.execute(
                "SELECT id FROM systems WHERE fingerprint = ?", (fp,)
            ).fetchone()
            if row is not None:
                return int(row["id"])
            cur = conn.execute(
                "INSERT INTO systems (fingerprint, info_json) VALUES (?, ?)",
                (fp, json.dumps(info.to_dict())),
            )
            self._maybe_inject_busy(conn)
            return int(cur.lastrowid)

    def get_system(self, system_id: int) -> SystemInfo:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT info_json FROM systems WHERE id = ?", (system_id,)
            ).fetchone()
        if row is None:
            raise SystemNotFoundError(f"no system with id {system_id}")
        return SystemInfo.from_dict(json.loads(row["info_json"]))

    def list_systems(self) -> list[tuple[int, SystemInfo]]:
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT id, info_json FROM systems ORDER BY id"
            ).fetchall()
        return [
            (int(r["id"]), SystemInfo.from_dict(json.loads(r["info_json"])))
            for r in rows
        ]

    # --- benchmarks ----------------------------------------------------
    def save_benchmark(self, result: BenchmarkResult) -> int:
        return self._write(
            "sqlite.save_benchmark", lambda: self._save_benchmark(result)
        )

    def _save_benchmark(self, result: BenchmarkResult) -> int:
        with self._connect() as conn:
            exists = conn.execute(
                "SELECT 1 FROM systems WHERE id = ?", (result.system_id,)
            ).fetchone()
            if exists is None:
                raise SystemNotFoundError(
                    f"benchmark references unknown system {result.system_id}"
                )
            cur = conn.execute(
                """
                INSERT INTO benchmarks (
                    system_id, application, cores, threads_per_core, frequency,
                    gflops, avg_system_w, avg_cpu_w, avg_cpu_temp_c,
                    system_energy_j, cpu_energy_j, runtime_s
                ) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                """,
                (
                    result.system_id,
                    result.application,
                    result.configuration.cores,
                    result.configuration.threads_per_core,
                    result.configuration.frequency,
                    result.gflops,
                    result.avg_system_w,
                    result.avg_cpu_w,
                    result.avg_cpu_temp_c,
                    result.system_energy_j,
                    result.cpu_energy_j,
                    result.runtime_s,
                ),
            )
            self._maybe_inject_busy(conn)
            return int(cur.lastrowid)

    def save_benchmarks(self, results) -> list[int]:
        """Bulk insert in one connection/transaction (sweep batch flushes)."""
        results = list(results)
        if not results:
            return []
        return self._write(
            "sqlite.save_benchmarks", lambda: self._save_benchmarks(results)
        )

    def _save_benchmarks(self, results: list[BenchmarkResult]) -> list[int]:
        ids: list[int] = []
        with self._connect() as conn:
            known: set[int] = set()
            for result in results:
                if result.system_id not in known:
                    exists = conn.execute(
                        "SELECT 1 FROM systems WHERE id = ?", (result.system_id,)
                    ).fetchone()
                    if exists is None:
                        raise SystemNotFoundError(
                            f"benchmark references unknown system {result.system_id}"
                        )
                    known.add(result.system_id)
                cur = conn.execute(
                    """
                    INSERT INTO benchmarks (
                        system_id, application, cores, threads_per_core, frequency,
                        gflops, avg_system_w, avg_cpu_w, avg_cpu_temp_c,
                        system_energy_j, cpu_energy_j, runtime_s
                    ) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                    """,
                    (
                        result.system_id,
                        result.application,
                        result.configuration.cores,
                        result.configuration.threads_per_core,
                        result.configuration.frequency,
                        result.gflops,
                        result.avg_system_w,
                        result.avg_cpu_w,
                        result.avg_cpu_temp_c,
                        result.system_energy_j,
                        result.cpu_energy_j,
                        result.runtime_s,
                    ),
                )
                ids.append(int(cur.lastrowid))
            self._maybe_inject_busy(conn)
        return ids

    def benchmarks_for_system(
        self, system_id: int, application: Optional[str] = None
    ) -> list[BenchmarkResult]:
        query = "SELECT * FROM benchmarks WHERE system_id = ?"
        params: list = [system_id]
        if application is not None:
            query += " AND application = ?"
            params.append(application)
        query += " ORDER BY id"
        with self._connect() as conn:
            rows = conn.execute(query, params).fetchall()
        return [BenchmarkResult.from_dict(dict(r)) for r in rows]

    # --- models --------------------------------------------------------
    def save_model_metadata(self, metadata: ModelMetadata) -> int:
        return self._write(
            "sqlite.save_model_metadata",
            lambda: self._save_model_records([metadata]),
        )[0]

    def save_model_records(self, records) -> list[int]:
        """Upsert a batch of records in one connection/transaction.

        This is what makes a lifecycle flip (old active -> archived, new
        model -> active) atomic: either both rows land or neither does.
        """
        records = list(records)
        if not records:
            return []
        return self._write(
            "sqlite.save_model_records",
            lambda: self._save_model_records(records),
        )

    def _save_model_records(self, records: list[ModelMetadata]) -> list[int]:
        ids: list[int] = []
        with self._connect() as conn:
            for metadata in records:
                row = (
                    metadata.model_type,
                    metadata.system_id,
                    metadata.application,
                    metadata.blob_path,
                    metadata.created_at,
                    metadata.training_points,
                    metadata.stage,
                    metadata.version,
                    metadata.parent_id,
                    metadata.digest,
                    metadata.provenance,
                )
                if metadata.model_id == 0:
                    # id 0 = "assign for me": a NULL primary key picks the
                    # next rowid inside this same transaction, so two
                    # concurrent saves serialize on the database instead
                    # of racing onto one id
                    cur = conn.execute(
                        """
                        INSERT INTO models (
                            id, model_type, system_id, application, blob_path,
                            created_at, training_points, stage, version,
                            parent_id, digest, provenance
                        ) VALUES (NULL, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                        """,
                        row,
                    )
                    ids.append(int(cur.lastrowid))
                else:
                    conn.execute(
                        """
                        INSERT OR REPLACE INTO models (
                            id, model_type, system_id, application, blob_path,
                            created_at, training_points, stage, version,
                            parent_id, digest, provenance
                        ) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                        """,
                        (metadata.model_id, *row),
                    )
                    ids.append(metadata.model_id)
            self._maybe_inject_busy(conn)
        return ids

    @staticmethod
    def _record_from_row(row: sqlite3.Row) -> ModelMetadata:
        return ModelMetadata(
            model_id=int(row["id"]),
            model_type=row["model_type"],
            system_id=int(row["system_id"]),
            application=row["application"],
            blob_path=row["blob_path"],
            created_at=float(row["created_at"]),
            training_points=int(row["training_points"]),
            stage=row["stage"],
            version=int(row["version"]),
            parent_id=(
                None if row["parent_id"] is None else int(row["parent_id"])
            ),
            digest=row["digest"],
            provenance=row["provenance"],
        )

    def get_model_metadata(self, model_id: int) -> ModelMetadata:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT * FROM models WHERE id = ?", (model_id,)
            ).fetchone()
        if row is None:
            raise ModelNotFoundError(f"no model with id {model_id}")
        return self._record_from_row(row)

    def list_models(self) -> list[ModelMetadata]:
        with self._connect() as conn:
            rows = conn.execute("SELECT * FROM models ORDER BY id").fetchall()
        return [self._record_from_row(r) for r in rows]
