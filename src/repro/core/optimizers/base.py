"""Shared optimizer machinery: serialization envelope, registry, base class.

Artifacts are JSON (human-inspectable in blob storage, no pickle — models
may cross trust boundaries between the head node and shared storage)::

    {
      "format": "chronus-optimizer",
      "version": 1,
      "type": "<optimizer name>",
      "candidates": [{"cores": .., "threads_per_core": .., "frequency": ..}, ...],
      "payload": { ... optimizer-specific ... }
    }
"""

from __future__ import annotations

import abc
import json
import time
from typing import Any, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.core.application.interfaces import OptimizerInterface
from repro.core.domain.benchmark import BenchmarkResult
from repro.core.domain.configuration import Configuration
from repro.core.domain.errors import OptimizerError

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "BaseOptimizer",
    "OPTIMIZER_TYPES",
    "register_optimizer",
    "optimizer_from_name",
    "deserialize_optimizer",
]

ARTIFACT_FORMAT = "chronus-optimizer"
ARTIFACT_VERSION = 1

#: name -> optimizer class (the ModelFactory's dispatch table)
OPTIMIZER_TYPES: dict[str, type["BaseOptimizer"]] = {}


def register_optimizer(cls: type["BaseOptimizer"]) -> type["BaseOptimizer"]:
    """Class decorator adding an optimizer to the factory registry."""
    name = cls.name()
    if name in OPTIMIZER_TYPES:
        raise ValueError(f"optimizer type {name!r} already registered")
    OPTIMIZER_TYPES[name] = cls
    return cls


def optimizer_from_name(model_type: str) -> "BaseOptimizer":
    """The paper's ModelFactory.get_optimizer (Listing 2)."""
    cls = OPTIMIZER_TYPES.get(model_type)
    if cls is None:
        raise OptimizerError(
            f"Unknown optimizer type {model_type!r}; "
            f"available: {sorted(OPTIMIZER_TYPES)}"
        )
    return cls()


def deserialize_optimizer(model_type: str, data: bytes) -> "BaseOptimizer":
    """Rebuild a fitted optimizer of ``model_type`` from an artifact."""
    cls = OPTIMIZER_TYPES.get(model_type)
    if cls is None:
        raise OptimizerError(
            f"Unknown optimizer type {model_type!r}; "
            f"available: {sorted(OPTIMIZER_TYPES)}"
        )
    return cls.deserialize(data)


class BaseOptimizer(OptimizerInterface):
    """Common fit bookkeeping + JSON envelope handling."""

    def __init__(self) -> None:
        self._fitted = False
        self._candidates: list[Configuration] = []
        #: mean measured GFLOP/s per training configuration — carried in
        #: the artifact so slurm-config can honour performance floors
        #: without repository access
        self._candidate_gflops: dict[Configuration, float] = {}
        #: lazily computed scores over ``_candidates`` plus their index.
        #: Every pool selects from this one vector: BLAS kernels round
        #: differently for different batch shapes, so re-scoring a subset
        #: could disagree in ulps and flip an argmax tie.  One shared
        #: vector makes a pool's answer independent of its batch-mates.
        self._candidate_scores_cache: "np.ndarray | None" = None
        self._candidate_index_cache: "dict[Configuration, int] | None" = None

    # ------------------------------------------------------------------
    # template methods for subclasses
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _fit(self, benchmarks: Sequence[BenchmarkResult]) -> None:
        """Subclass fitting logic (inputs already validated non-empty)."""

    @abc.abstractmethod
    def _predict(self, configuration: Configuration) -> float:
        """Subclass prediction (called only when fitted)."""

    @abc.abstractmethod
    def _predict_batch(self, configurations: Sequence[Configuration]) -> np.ndarray:
        """Subclass batch prediction: one score per configuration."""

    @abc.abstractmethod
    def _payload(self) -> dict[str, Any]:
        """Optimizer-specific artifact payload."""

    @abc.abstractmethod
    def _restore(self, payload: dict[str, Any]) -> None:
        """Rebuild optimizer state from an artifact payload."""

    # ------------------------------------------------------------------
    # OptimizerInterface
    # ------------------------------------------------------------------
    def fit(self, benchmarks: Sequence[BenchmarkResult]) -> None:
        if not benchmarks:
            raise OptimizerError(f"{self.name()}: cannot fit on zero benchmarks")
        started = time.perf_counter()
        self._candidates = sorted({b.configuration for b in benchmarks})
        sums: dict[Configuration, list[float]] = {}
        for b in benchmarks:
            sums.setdefault(b.configuration, []).append(b.gflops)
        self._candidate_gflops = {
            cfg: sum(v) / len(v) for cfg, v in sums.items()
        }
        self._fit(benchmarks)
        self._fitted = True
        self._candidate_scores_cache = None
        self._candidate_index_cache = None
        telemetry.histogram(
            "optimizer_fit_seconds", {"type": self.name()}
        ).observe(time.perf_counter() - started)
        telemetry.counter("optimizer_fits_total", {"type": self.name()}).inc()

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise OptimizerError(f"{self.name()}: not fitted; call fit() first")

    def predict_efficiency(self, configuration: Configuration) -> float:
        self._require_fitted()
        return float(self._predict(configuration))

    def training_configurations(self) -> list[Configuration]:
        self._require_fitted()
        return list(self._candidates)

    def candidate_gflops(self, configuration: Configuration) -> Optional[float]:
        """Mean measured GFLOP/s of a training configuration (None if the
        artifact predates the field or the config was never measured)."""
        self._require_fitted()
        return self._candidate_gflops.get(configuration)

    def predict_efficiency_batch(
        self, configurations: Sequence[Configuration]
    ) -> np.ndarray:
        self._require_fitted()
        configurations = list(configurations)
        if not configurations:
            return np.empty(0, dtype=float)
        scores = np.asarray(self._predict_batch(configurations), dtype=float)
        if scores.shape != (len(configurations),):
            raise OptimizerError(
                f"{self.name()}: _predict_batch returned shape {scores.shape} "
                f"for {len(configurations)} configurations"
            )
        return scores

    def _candidate_scores(self) -> "tuple[np.ndarray, dict[Configuration, int]]":
        """The shared score vector over the training configurations."""
        if self._candidate_scores_cache is None:
            self._candidate_scores_cache = self.predict_efficiency_batch(
                self._candidates
            )
            self._candidate_index_cache = {
                cfg: i for i, cfg in enumerate(self._candidates)
            }
        assert self._candidate_index_cache is not None
        return self._candidate_scores_cache, self._candidate_index_cache

    def _pool_scores(self, pool: Sequence[Configuration]) -> np.ndarray:
        """Scores for one candidate pool, selected from the shared vector.

        A pool containing configurations outside the training set (an
        explicit ``candidates`` argument) is scored directly — those never
        reach the serving batch path, which only builds pools from
        :meth:`training_configurations`.
        """
        scores, index = self._candidate_scores()
        try:
            rows = [index[cfg] for cfg in pool]
        except KeyError:
            return self.predict_efficiency_batch(pool)
        return scores[rows]

    def warm(self) -> int:
        """Populate the candidate score cache ahead of the first request."""
        self._require_fitted()
        scores, _ = self._candidate_scores()
        return int(scores.size)

    def best_configurations(
        self, pools: Sequence[Optional[Sequence[Configuration]]]
    ) -> list[Configuration]:
        """Answer many pools from one shared scoring pass.

        The expensive part (scoring the training configurations) runs at
        most once per fitted optimizer; each pool then costs an index
        lookup and an argmax.  Every pool selects from the same cached
        score vector, so an answer does not depend on the other pools.
        """
        self._require_fitted()
        started = time.perf_counter()
        out: list[Configuration] = []
        for candidates in pools:
            pool = (
                list(candidates) if candidates is not None else list(self._candidates)
            )
            if not pool:
                raise OptimizerError(f"{self.name()}: no candidate configurations")
            # np.argmax takes the first maximum: ties go to the earlier
            # configuration in the pool
            out.append(pool[int(np.argmax(self._pool_scores(pool)))])
        telemetry.histogram(
            "optimizer_predict_seconds", {"type": self.name()}
        ).observe(time.perf_counter() - started)
        return out

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def serialize(self) -> bytes:
        self._require_fitted()
        envelope = {
            "format": ARTIFACT_FORMAT,
            "version": ARTIFACT_VERSION,
            "type": self.name(),
            "candidates": [
                {**c.to_dict(), "gflops": self._candidate_gflops.get(c)}
                for c in self._candidates
            ],
            "payload": self._payload(),
        }
        return json.dumps(envelope).encode("utf-8")

    @classmethod
    def deserialize(cls, data: bytes) -> "BaseOptimizer":
        try:
            envelope = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise OptimizerError(f"corrupt optimizer artifact: {exc}") from exc
        if envelope.get("format") != ARTIFACT_FORMAT:
            raise OptimizerError(
                f"not a chronus optimizer artifact: format={envelope.get('format')!r}"
            )
        if envelope.get("version") != ARTIFACT_VERSION:
            raise OptimizerError(
                f"unsupported artifact version {envelope.get('version')!r}"
            )
        if envelope.get("type") != cls.name():
            raise OptimizerError(
                f"artifact is a {envelope.get('type')!r} model, "
                f"expected {cls.name()!r}"
            )
        instance = cls()
        instance._candidates = []
        instance._candidate_gflops = {}
        for entry in envelope.get("candidates", []):
            cfg = Configuration.from_dict(entry)
            instance._candidates.append(cfg)
            if isinstance(entry, dict) and entry.get("gflops") is not None:
                instance._candidate_gflops[cfg] = float(entry["gflops"])
        instance._restore(envelope.get("payload", {}))
        instance._fitted = True
        return instance
