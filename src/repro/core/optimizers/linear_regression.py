"""Ordinary-least-squares polynomial regression on numpy.

scikit-learn is deliberately not a dependency — the whole point of the
substrate rule is to own the model.  The feature map is a small polynomial
basis over (cores, GHz, hyper-threading) chosen to express the measured
surface's curvature: the core-count saturation (c, c^2, sqrt(c)), the
frequency effect and its interaction with core count, and HT main/
interaction terms.  The target is GFLOPS/W directly.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.domain.benchmark import BenchmarkResult
from repro.core.domain.configuration import Configuration
from repro.core.domain.errors import OptimizerError
from repro.core.optimizers.base import BaseOptimizer, register_optimizer

__all__ = ["LinearRegressionOptimizer"]


def _feature_matrix(configs: Sequence[Configuration]) -> np.ndarray:
    """The (N, 13) design matrix for a batch, built column-wise in numpy."""
    c = np.array([float(cfg.cores) for cfg in configs])
    f = np.array([cfg.frequency_ghz for cfg in configs])
    ht = np.array([1.0 if cfg.hyperthread else 0.0 for cfg in configs])
    sqrt_c = np.sqrt(c)
    return np.column_stack(
        [
            np.ones_like(c),
            c,
            c * c,
            sqrt_c,
            f,
            f * f,
            c * f,
            sqrt_c * f,
            ht,
            ht * c,
            ht * f,
            # core-dependent frequency curvature: the optimal frequency
            # shifts with core count (memory-bound at many cores), and a
            # global f^2 term alone places the 32-core optimum wrongly
            c * f * f,
            sqrt_c * f * f,
        ]
    )


@register_optimizer
class LinearRegressionOptimizer(BaseOptimizer):
    """OLS on a polynomial basis over (cores, frequency, HT)."""

    N_FEATURES = 13

    def __init__(self) -> None:
        super().__init__()
        self._coef: np.ndarray | None = None

    @classmethod
    def name(cls) -> str:
        return "linear-regression"

    # ------------------------------------------------------------------
    def _fit(self, benchmarks: Sequence[BenchmarkResult]) -> None:
        X = _feature_matrix([b.configuration for b in benchmarks])
        y = np.array([b.gflops_per_watt for b in benchmarks])
        coef, _residuals, rank, _sv = np.linalg.lstsq(X, y, rcond=None)
        if not np.all(np.isfinite(coef)):
            raise OptimizerError("linear regression produced non-finite coefficients")
        self._coef = coef
        self._rank = int(rank)

    def _predict(self, configuration: Configuration) -> float:
        assert self._coef is not None
        return float(_feature_matrix([configuration])[0] @ self._coef)

    def _predict_batch(self, configurations: Sequence[Configuration]) -> np.ndarray:
        assert self._coef is not None
        return _feature_matrix(configurations) @ self._coef

    def r_squared(self, benchmarks: Sequence[BenchmarkResult]) -> float:
        """Coefficient of determination on a benchmark set."""
        self._require_fitted()
        y = np.array([b.gflops_per_watt for b in benchmarks])
        pred = np.array([self._predict(b.configuration) for b in benchmarks])
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        if ss_tot == 0.0:
            return 1.0 if ss_res == 0.0 else 0.0
        return 1.0 - ss_res / ss_tot

    # ------------------------------------------------------------------
    def _payload(self) -> dict[str, Any]:
        assert self._coef is not None
        return {"coefficients": self._coef.tolist()}

    def _restore(self, payload: dict[str, Any]) -> None:
        coef = np.asarray(payload.get("coefficients", []), dtype=float)
        if coef.shape != (self.N_FEATURES,):
            raise OptimizerError(
                f"linear-regression artifact has {coef.size} coefficients, "
                f"expected {self.N_FEATURES}"
            )
        self._coef = coef
