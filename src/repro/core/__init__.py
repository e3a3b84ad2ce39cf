"""Chronus — the paper's energy-efficiency service (the core contribution).

Chronus is organised as the paper's Figure 11 Clean Architecture:

* :mod:`repro.core.domain` — entities: configurations, systems, runs,
  benchmark results, model metadata, settings.
* :mod:`repro.core.application` — use cases (benchmark, init-model,
  load-model, slurm-config, settings) programmed against abstract
  integration interfaces.
* Integration implementations, one package per interface family:
  :mod:`repro.core.repositories` (CSV, SQLite, in-memory),
  :mod:`repro.core.optimizers` (brute force, linear regression, random
  forest, genetic extension), :mod:`repro.core.storage` (etc settings,
  local blob storage), :mod:`repro.core.runners` (HPCG on the simulated
  Slurm cluster), :mod:`repro.core.services` (IPMI sampling, lscpu).
* :mod:`repro.core.presenter` + :mod:`repro.core.cli` — the CLI boundary.
* :mod:`repro.core.factory` — the composition root (the paper's
  ``main.py`` / ModelFactory of Listing 2).  It is not imported here:
  it pulls in the runners and through them the Slurm simulator, which
  itself imports :mod:`repro.core.domain`.  Import it as
  ``repro.core.factory``.
"""

from repro.core.domain import (
    BenchmarkResult,
    ChronusError,
    Configuration,
    EnergySample,
    ModelMetadata,
    Run,
    SystemInfo,
)

__all__ = [
    "BenchmarkResult",
    "ChronusError",
    "Configuration",
    "EnergySample",
    "ModelMetadata",
    "Run",
    "SystemInfo",
]
