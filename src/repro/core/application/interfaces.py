"""Integration interfaces (the paper's Figure 5 boundary).

The application layer depends only on these abstractions; concrete
implementations live in the outer System Integrations ring
(:mod:`repro.core.repositories`, :mod:`repro.core.optimizers`,
:mod:`repro.core.storage`, :mod:`repro.core.runners`,
:mod:`repro.core.services`) and are injected at the composition root —
the Dependency Inversion structure of the paper's Listing 1.

Python has no interfaces, so — as the paper notes — these are abstract
base classes whose methods raise ``NotImplementedError``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Sequence, Union, runtime_checkable

import numpy as np

from repro.core.domain.benchmark import BenchmarkResult
from repro.core.domain.configuration import Configuration
from repro.core.domain.model import ModelMetadata
from repro.core.domain.run import EnergySample
from repro.core.domain.settings import ChronusSettings
from repro.core.domain.system_info import SystemInfo
from repro.serving.protocol import ErrorResponse, PredictRequest, PredictResponse

__all__ = [
    "RepositoryInterface",
    "OptimizerInterface",
    "ApplicationRunnerInterface",
    "RunnerResult",
    "SystemServiceInterface",
    "SystemInfoInterface",
    "LocalStorageInterface",
    "FileRepositoryInterface",
    "PredictionProvider",
]


@runtime_checkable
class PredictionProvider(Protocol):
    """The typed prediction port (wire protocol ``chronus/2``).

    The only way into the eco plugin: everything that answers it
    implements this one method — the in-process
    :class:`~repro.serving.transport.LocalTransport` and the Unix-socket
    client.  An unanswerable request is an explicit
    :class:`~repro.serving.protocol.ErrorResponse` — implementations
    raise only for transport-level failures.
    """

    def predict(
        self, request: PredictRequest
    ) -> Union[PredictResponse, ErrorResponse]:
        """Answer one prediction request."""
        ...


class RepositoryInterface(abc.ABC):
    """Remote metadata storage: systems, benchmarks, model metadata."""

    # --- systems -------------------------------------------------------
    @abc.abstractmethod
    def save_system(self, info: SystemInfo) -> int:
        """Insert (or find) a system; returns its repository id."""

    @abc.abstractmethod
    def get_system(self, system_id: int) -> SystemInfo:
        """Fetch a system by id; raises SystemNotFoundError."""

    @abc.abstractmethod
    def list_systems(self) -> list[tuple[int, SystemInfo]]:
        """All systems as (id, info) pairs."""

    # --- benchmarks ----------------------------------------------------
    @abc.abstractmethod
    def save_benchmark(self, result: BenchmarkResult) -> int:
        """Persist one benchmark row; returns its id."""

    def save_benchmarks(self, results: Sequence[BenchmarkResult]) -> list[int]:
        """Persist a batch of rows; returns their ids in order.

        Default implementation inserts row by row; backends with cheaper
        bulk paths (one transaction, ``executemany``) override it.  The
        sweep executor flushes through this method.
        """
        return [self.save_benchmark(r) for r in results]

    @abc.abstractmethod
    def benchmarks_for_system(
        self, system_id: int, application: Optional[str] = None
    ) -> list[BenchmarkResult]:
        """All benchmark rows for a system (optionally one application)."""

    # --- models --------------------------------------------------------
    @abc.abstractmethod
    def save_model_metadata(self, metadata: ModelMetadata) -> int:
        """Persist one model record; returns its id.

        ``metadata.model_id == 0`` asks the repository to assign the next
        free id *inside* the save (one transaction for SQLite), so two
        concurrent saves can never race onto the same id; callers use the
        returned id.  A non-zero id upserts that exact row (lifecycle
        stage changes).
        """

    def save_model_records(self, records: Sequence[ModelMetadata]) -> list[int]:
        """Upsert a batch of records; returns their ids in order.

        Lifecycle operations (promote archives the old active and
        activates the new one) flush through this method so backends with
        transactions can make the stage flip atomic.  Default
        implementation saves row by row.
        """
        return [self.save_model_metadata(r) for r in records]

    @abc.abstractmethod
    def get_model_metadata(self, model_id: int) -> ModelMetadata:
        """Fetch model metadata; raises ModelNotFoundError."""

    @abc.abstractmethod
    def list_models(self) -> list[ModelMetadata]:
        """All model records, ordered by id."""


class OptimizerInterface(abc.ABC):
    """An energy-efficiency model (the paper's Optimizer integration)."""

    @classmethod
    @abc.abstractmethod
    def name(cls) -> str:
        """The ``type`` string the ModelFactory dispatches on."""

    @abc.abstractmethod
    def fit(self, benchmarks: Sequence[BenchmarkResult]) -> None:
        """Train on benchmark rows; raises OptimizerError when unusable."""

    @abc.abstractmethod
    def predict_efficiency(self, configuration: Configuration) -> float:
        """Predicted GFLOPS/W for one configuration."""

    @abc.abstractmethod
    def predict_efficiency_batch(
        self, configurations: Sequence[Configuration]
    ) -> np.ndarray:
        """Predicted GFLOPS/W for many configurations, as one ndarray.

        The serving hot path scores a fitted model's candidate grid once
        through this; it may differ from :meth:`predict_efficiency` in the
        last ulp (a mat-vec rounds differently from a dot product).
        """

    def best_configuration(
        self, candidates: Optional[Sequence[Configuration]] = None
    ) -> Configuration:
        """The most energy-efficient candidate under this model.

        ``candidates`` defaults to the configurations seen at fit time,
        which is what ``slurm-config`` uses (no repository access inside
        Slurm's plugin time budget).
        """
        return self.best_configurations([candidates])[0]

    @abc.abstractmethod
    def best_configurations(
        self, pools: Sequence[Optional[Sequence[Configuration]]]
    ) -> list[Configuration]:
        """Answer many candidate pools at once (micro-batch dispatch).

        Each pool follows the :meth:`best_configuration` contract
        (``None`` = the fit-time configurations), and each answer depends
        on its own pool only, never on the other pools of the call.
        """

    @abc.abstractmethod
    def warm(self) -> int:
        """Precompute whatever makes the first prediction cheap.

        Returns the number of candidate configurations covered.
        """

    @abc.abstractmethod
    def training_configurations(self) -> list[Configuration]:
        """The configurations this optimizer was fitted on."""

    @abc.abstractmethod
    def serialize(self) -> bytes:
        """Model artifact for blob storage."""

    @classmethod
    @abc.abstractmethod
    def deserialize(cls, data: bytes) -> "OptimizerInterface":
        """Rebuild a fitted optimizer from a blob-storage artifact."""


@dataclass(frozen=True)
class RunnerResult:
    """Outcome of one application run under the Application Runner."""

    gflops: float
    runtime_s: float
    success: bool
    raw_output: str = ""


class ApplicationRunnerInterface(abc.ABC):
    """Runs the benchmarked application on the cluster (e.g. HPCG).

    The split into submit / wait / result mirrors how the real runner works
    against Slurm: ``sbatch`` returns immediately, the benchmark service
    samples power while the job runs, then collects the result.
    """

    #: name stored in benchmark rows (e.g. "hpcg")
    application: str = "app"

    @abc.abstractmethod
    def submit(self, configuration: Configuration) -> int:
        """Submit a run at this configuration; returns a job handle."""

    @abc.abstractmethod
    def is_done(self, handle: int) -> bool:
        """True once the run reached a terminal state."""

    @abc.abstractmethod
    def advance(self, seconds: float) -> None:
        """Let the cluster make ``seconds`` of progress (sampling cadence)."""

    @abc.abstractmethod
    def result(self, handle: int) -> RunnerResult:
        """Collect the result of a finished run."""


class SystemServiceInterface(abc.ABC):
    """Telemetry sampling (the paper's IPMI System Service)."""

    @abc.abstractmethod
    def sample(self) -> EnergySample:
        """One instantaneous telemetry sample."""


class SystemInfoInterface(abc.ABC):
    """System discovery (the paper's lscpu System Info integration)."""

    @abc.abstractmethod
    def fetch(self) -> SystemInfo:
        """Discover the system Chronus is running on."""


class LocalStorageInterface(abc.ABC):
    """Local settings storage (the paper's ETC Storage integration)."""

    @abc.abstractmethod
    def load(self) -> ChronusSettings:
        """Read settings (defaults when the file does not exist yet)."""

    @abc.abstractmethod
    def save(self, settings: ChronusSettings) -> None:
        """Persist settings."""

    def mutate(
        self, fn: Callable[[ChronusSettings], ChronusSettings]
    ) -> ChronusSettings:
        """Apply ``fn`` to the current settings and persist the result.

        This is the *only* correct way to read-modify-write settings:
        implementations serialize concurrent mutations (EtcStorage holds
        a lock across load -> fn -> save), so two updaters — say
        ``register_binary`` and a model promotion — can never overwrite
        each other's fields with a stale snapshot.  The default
        implementation is the unserialized legacy behaviour for simple
        single-threaded storages.
        """
        settings = fn(self.load())
        self.save(settings)
        return settings

    @abc.abstractmethod
    def resolve_path(self, relative: str) -> str:
        """Convert a settings-relative path into a full path."""


class FileRepositoryInterface(abc.ABC):
    """Blob storage for model artifacts (the paper's File Repository)."""

    @abc.abstractmethod
    def save(self, name: str, data: bytes) -> str:
        """Store a blob; returns its storage path."""

    @abc.abstractmethod
    def load(self, path: str) -> bytes:
        """Fetch a blob by storage path; raises ModelNotFoundError."""

    @abc.abstractmethod
    def exists(self, path: str) -> bool:
        """Whether a blob exists."""
