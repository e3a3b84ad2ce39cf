"""``slurmd`` — the per-node daemon — and the application registry.

The registry maps executable paths to workload factories: when slurmd
launches a job step it resolves the job's binary (exact path first, then
basename, so ``../hpcg/build/bin/xhpcg`` and ``/opt/hpcg/xhpcg`` both hit
the HPCG application) and asks the factory to build the
:class:`~repro.hardware.node.Workload` that will occupy the allocated
cores.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass
from typing import Callable

from repro.hardware.node import NodeError, SimulatedNode, Workload
from repro.slurm.job import Job, JobDescriptor
from repro.slurm.scheduler import NodeView

__all__ = ["ApplicationRegistry", "UnknownBinaryError", "Slurmd", "StartedStep"]


class UnknownBinaryError(KeyError):
    """The job's executable is not a registered application."""


#: builds a workload for one job step; the returned workload must expose a
#: ``runtime_s`` attribute (how long the step runs at this configuration)
WorkloadFactory = Callable[[JobDescriptor, int], Workload]


class ApplicationRegistry:
    """Executable path -> workload factory."""

    def __init__(self) -> None:
        self._exact: dict[str, WorkloadFactory] = {}
        self._basename: dict[str, WorkloadFactory] = {}

    def register(self, path: str, factory: WorkloadFactory) -> None:
        if not path:
            raise ValueError("cannot register an empty path")
        self._exact[path] = factory
        self._basename[posixpath.basename(path)] = factory

    def resolve(self, binary: str) -> WorkloadFactory:
        if binary in self._exact:
            return self._exact[binary]
        base = posixpath.basename(binary)
        if base in self._basename:
            return self._basename[base]
        raise UnknownBinaryError(
            f"no registered application for {binary!r} "
            f"(known: {sorted(self._exact)})"
        )


@dataclass
class StartedStep:
    """What slurmd reports back to the controller after launching a step."""

    handle: int
    runtime_s: float
    workload: Workload


class Slurmd:
    """One compute-node daemon bound to a :class:`SimulatedNode`."""

    def __init__(self, node: SimulatedNode, registry: ApplicationRegistry) -> None:
        self.node = node
        self.registry = registry

    @property
    def hostname(self) -> str:
        return self.node.hostname

    def view(self, running_jobs: list[tuple[float, int]]) -> NodeView:
        """Scheduler snapshot; the controller supplies running-job info."""
        return NodeView(
            name=self.hostname,
            total_cores=self.node.total_cores,
            free_cores=self.node.free_cores(),
            running=running_jobs,
        )

    def start_job(self, job: Job) -> StartedStep:
        """Launch this node's shard of the job step.

        For ``--nodes=k`` jobs each of the k nodes runs a shard with
        ``tasks_per_node`` tasks; the factory receives a shard descriptor
        whose ``num_tasks`` is the per-node count (``nodes`` is preserved
        so application models can account for multi-node scaling).

        Applies the descriptor's ``--cpu-freq`` window to the allocated
        cores (userspace pinning when min==max, a bounded performance
        governor otherwise — matching srun's behaviour).
        """
        desc = job.descriptor
        if desc.nodes > 1:
            from dataclasses import replace

            desc = replace(desc, num_tasks=desc.tasks_per_node)
        factory = self.registry.resolve(desc.binary)
        workload = factory(desc, job.job_id)
        if workload.cores != desc.num_tasks:
            raise NodeError(
                f"application produced a workload with {workload.cores} cores "
                f"for a {desc.num_tasks}-task shard"
            )
        freq_min = desc.cpu_freq_min or None
        freq_max = desc.cpu_freq_max or None
        handle = self.node.start_workload(
            workload, freq_min_khz=freq_min, freq_max_khz=freq_max
        )
        runtime = float(getattr(workload, "runtime_s"))
        return StartedStep(handle=handle, runtime_s=runtime, workload=workload)
