"""Timed mini-HPCG runs: real numerics, real wall clock, GFLOP/s rating.

This is the executable counterpart of the analytic model — the thing the
paper's ``chronus benchmark ../hpcg/build/bin`` invokes.  At laptop problem
sizes (16^3 .. 48^3) it runs the genuine multigrid-preconditioned CG and
reports a rating computed exactly the way HPCG does: accounted flops over
solve wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.hpcg.cg import CgResult, pcg
from repro.hpcg.multigrid import MultigridPreconditioner
from repro.hpcg.problem import HpcgProblem, generate_problem, shared_problem

__all__ = ["HpcgRating", "HpcgBenchmark"]


@dataclass(frozen=True)
class HpcgRating:
    """Result of one mini-HPCG execution."""

    nx: int
    ny: int
    nz: int
    gflops: float
    total_flops: int
    seconds: float
    iterations: int
    converged: bool
    final_relative_residual: float

    def summary(self) -> str:
        return (
            f"HPCG {self.nx}x{self.ny}x{self.nz}: {self.gflops:.4f} GFLOP/s "
            f"({self.total_flops} flops in {self.seconds:.3f}s, "
            f"{self.iterations} iterations, converged={self.converged})"
        )


class HpcgBenchmark:
    """Reusable benchmark fixture for one problem size."""

    def __init__(
        self,
        nx: int,
        ny: int | None = None,
        nz: int | None = None,
        levels: int = 4,
        *,
        reuse_problem: bool = False,
    ) -> None:
        # reuse_problem shares the generated operator (and its memoised
        # multicolor partitions) process-wide — what a sweep worker wants
        # when it rates many configurations at one problem size
        build = shared_problem if reuse_problem else generate_problem
        self.problem: HpcgProblem = build(nx, ny, nz)
        self.preconditioner = MultigridPreconditioner(self.problem, levels=levels)

    def run(self, *, tol: float = 1e-8, max_iter: int = 50) -> HpcgRating:
        """Execute one preconditioned solve and rate it."""
        p = self.problem
        start = time.perf_counter()
        result: CgResult = pcg(
            p.matrix,
            p.b,
            preconditioner=self.preconditioner.apply,
            tol=tol,
            max_iter=max_iter,
        )
        elapsed = time.perf_counter() - start
        norm_b = float(np.linalg.norm(p.b))
        rel = result.final_residual / norm_b if norm_b else 0.0
        return HpcgRating(
            nx=p.nx,
            ny=p.ny,
            nz=p.nz,
            gflops=result.flops.total / elapsed / 1e9 if elapsed > 0 else 0.0,
            total_flops=result.flops.total,
            seconds=elapsed,
            iterations=result.iterations,
            converged=result.converged,
            final_relative_residual=rel,
        )
