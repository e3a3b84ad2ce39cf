"""Genetic-algorithm optimizer (extension).

The related work the paper benchmarks against — "Energy-Optimal
Configurations for Single-Node HPC Applications" [21] — searches the
configuration space with a genetic algorithm.  This optimizer brings that
approach into Chronus' Optimizer interface: a GA over the discrete
(cores, frequency, HT) space whose fitness function is a random-forest
surrogate fitted on the available benchmarks (the related work evaluated
candidates with real runs; a surrogate is the standard offline
equivalent).

Because the space the paper sweeps is small (138 points) the GA is
overkill there; its value — measured by ``bench_ablation_optimizers`` —
is finding near-optimal configurations from *sparse* training data
without evaluating the full grid.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.domain.benchmark import BenchmarkResult
from repro.core.domain.configuration import Configuration
from repro.core.domain.errors import OptimizerError
from repro.core.optimizers.base import BaseOptimizer, register_optimizer
from repro.core.optimizers.random_forest import RandomForestOptimizer

__all__ = ["GeneticOptimizer"]


@register_optimizer
class GeneticOptimizer(BaseOptimizer):
    """GA over the configuration space with a forest surrogate fitness."""

    def __init__(
        self,
        population: int = 24,
        generations: int = 30,
        mutation_rate: float = 0.25,
        elite: int = 2,
        seed: int = 99,
    ) -> None:
        super().__init__()
        if population < 4:
            raise ValueError("population must be >= 4")
        if not 0.0 <= mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if elite >= population:
            raise ValueError("elite must be smaller than population")
        self.population = population
        self.generations = generations
        self.mutation_rate = mutation_rate
        self.elite = elite
        self.seed = seed
        self._surrogate = RandomForestOptimizer(seed=seed)
        self._core_values: list[int] = []
        self._freq_values: list[int] = []
        self._ht_values: list[int] = []
        self._best: Configuration | None = None

    @classmethod
    def name(cls) -> str:
        return "genetic"

    # ------------------------------------------------------------------
    # GA machinery over gene tuples (core_idx, freq_idx, ht_idx)
    # ------------------------------------------------------------------
    def _genes_to_config(self, genes: tuple[int, int, int]) -> Configuration:
        return Configuration(
            cores=self._core_values[genes[0]],
            threads_per_core=self._ht_values[genes[2]],
            frequency=self._freq_values[genes[1]],
        )

    def _fitness(self, genes: tuple[int, int, int]) -> float:
        return self._surrogate.predict_efficiency(self._genes_to_config(genes))

    def _mutate(self, genes: tuple[int, int, int], rng: np.random.Generator) -> tuple[int, int, int]:
        out = list(genes)
        spaces = (self._core_values, self._freq_values, self._ht_values)
        for i, space in enumerate(spaces):
            if rng.random() < self.mutation_rate:
                out[i] = int(rng.integers(0, len(space)))
        return (out[0], out[1], out[2])

    @staticmethod
    def _crossover(
        a: tuple[int, int, int], b: tuple[int, int, int], rng: np.random.Generator
    ) -> tuple[int, int, int]:
        return tuple(a[i] if rng.random() < 0.5 else b[i] for i in range(3))  # type: ignore[return-value]

    def _evolve(self) -> Configuration:
        rng = np.random.default_rng(self.seed)
        pop = [
            (
                int(rng.integers(0, len(self._core_values))),
                int(rng.integers(0, len(self._freq_values))),
                int(rng.integers(0, len(self._ht_values))),
            )
            for _ in range(self.population)
        ]
        for _ in range(self.generations):
            scored = sorted(pop, key=self._fitness, reverse=True)
            next_pop = scored[: self.elite]
            while len(next_pop) < self.population:
                # tournament selection of two parents
                contenders = [pop[int(rng.integers(0, len(pop)))] for _ in range(4)]
                contenders.sort(key=self._fitness, reverse=True)
                child = self._crossover(contenders[0], contenders[1], rng)
                next_pop.append(self._mutate(child, rng))
            pop = next_pop
        best = max(pop, key=self._fitness)
        return self._genes_to_config(best)

    # ------------------------------------------------------------------
    def _fit(self, benchmarks: Sequence[BenchmarkResult]) -> None:
        self._surrogate.fit(benchmarks)
        self._core_values = sorted({b.configuration.cores for b in benchmarks})
        self._freq_values = sorted({b.configuration.frequency for b in benchmarks})
        self._ht_values = sorted({b.configuration.threads_per_core for b in benchmarks})
        self._best = self._evolve()

    def _predict(self, configuration: Configuration) -> float:
        return self._surrogate.predict_efficiency(configuration)

    def _predict_batch(self, configurations: Sequence[Configuration]) -> np.ndarray:
        return self._surrogate.predict_efficiency_batch(configurations)

    def best_configurations(
        self, pools: Sequence[Sequence[Configuration] | None]
    ) -> list[Configuration]:
        # a None pool means "the GA's answer", not an argmax over the
        # training set; explicit pools take the base class's argmax
        self._require_fitted()
        pools = list(pools)
        out: "list[Configuration | None]" = [None] * len(pools)
        explicit = [i for i, pool in enumerate(pools) if pool is not None]
        for i, pool in enumerate(pools):
            if pool is None:
                assert self._best is not None
                out[i] = self._best
        if explicit:
            answered = super().best_configurations([pools[i] for i in explicit])
            for i, answer in zip(explicit, answered):
                out[i] = answer
        return [cfg for cfg in out if cfg is not None]

    # ------------------------------------------------------------------
    def _payload(self) -> dict[str, Any]:
        import json

        assert self._best is not None
        return {
            "population": self.population,
            "generations": self.generations,
            "mutation_rate": self.mutation_rate,
            "elite": self.elite,
            "seed": self.seed,
            "best": self._best.to_dict(),
            "core_values": self._core_values,
            "freq_values": self._freq_values,
            "ht_values": self._ht_values,
            "surrogate": json.loads(self._surrogate.serialize().decode("utf-8")),
        }

    def _restore(self, payload: dict[str, Any]) -> None:
        import json

        if "best" not in payload or "surrogate" not in payload:
            raise OptimizerError("genetic artifact is missing fields")
        self.population = int(payload.get("population", 24))
        self.generations = int(payload.get("generations", 30))
        self.mutation_rate = float(payload.get("mutation_rate", 0.25))
        self.elite = int(payload.get("elite", 2))
        self.seed = int(payload.get("seed", 99))
        self._best = Configuration.from_dict(payload["best"])
        self._core_values = [int(v) for v in payload.get("core_values", [])]
        self._freq_values = [int(v) for v in payload.get("freq_values", [])]
        self._ht_values = [int(v) for v in payload.get("ht_values", [])]
        self._surrogate = RandomForestOptimizer.deserialize(
            json.dumps(payload["surrogate"]).encode("utf-8")
        )
