"""Composition root: a ready-to-use simulated single-node cluster.

:class:`SimCluster` wires together everything the paper's testbed had —
the SR650 node with its BMC, IPMI access and the reference wattmeter, a
slurmctld with the backfill scheduler, and HPCG registered as a runnable
application — and exposes the command front-ends plus the pieces Chronus'
integrations attach to.

The HPCG binary is registered under the paper's path
(``/opt/hpcg/build/bin/xhpcg``) and resolvable by basename, so scripts
referencing ``../hpcg/build/bin/xhpcg`` work too.
"""

from __future__ import annotations

from typing import Optional

from repro.hardware.bmc import BoardManagementController
from repro.hardware.cpu import AMD_EPYC_7502P, CpuSpec
from repro.hardware.ipmi import IpmiTool
from repro.hardware.node import SimulatedNode
from repro.hardware.wattmeter import WattMeter
from repro.hpcg.performance_model import HpcgPerformanceModel, PAPER_TOTAL_FLOPS
from repro.hpcg.workload import HpcgWorkload
from repro.hpl import HPL_BINARY, HplWorkload
from repro.hpl.model import HplPerformanceModel
from repro.simkernel.engine import Simulator
from repro.simkernel.random import RandomStreams
from repro.slurm.accounting import AccountingDatabase
from repro.slurm.commands import SlurmCommands
from repro.slurm.config import SlurmConfig
from repro.slurm.controller import Slurmctld
from repro.slurm.job import JobDescriptor
from repro.slurm.nodemgr import ApplicationRegistry, Slurmd

__all__ = ["HPCG_BINARY", "HPL_BINARY", "SimCluster"]

#: canonical path of the HPCG executable on the simulated cluster
HPCG_BINARY = "/opt/hpcg/build/bin/xhpcg"


class SimCluster:
    """A single-node cluster in a box.

    Args:
        seed: root seed for every random stream in the simulation.
        config: slurm.conf equivalent; defaults to backfill scheduling with
            no job-submit plugins (add ``JobSubmitPlugins=eco`` to enable
            the eco plugin, then register it).
        hpcg_duration_s: if set, HPCG jobs run time-bounded for this many
            seconds (the paper's 20-minute sweep mode); if None they run
            to completion of the fixed 104^3 workload.
        statesave: optional StateSaveLocation; when given the controller
            journals every mutation there and can be crash-restored (see
            repro.slurm.statesave).
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        config: Optional[SlurmConfig] = None,
        spec: CpuSpec = AMD_EPYC_7502P,
        hpcg_duration_s: Optional[float] = None,
        performance_model: Optional[HpcgPerformanceModel] = None,
        n_nodes: int = 1,
        statesave=None,
    ) -> None:
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        self.sim = Simulator()
        self.streams = RandomStreams(seed)
        self.nodes = [
            SimulatedNode(self.sim, hostname=f"node{i + 1:03d}", spec=spec)
            for i in range(n_nodes)
        ]
        self.node = self.nodes[0]  # head/primary node
        self.bmcs = [BoardManagementController(n, self.streams) for n in self.nodes]
        self.bmc = self.bmcs[0]
        self.ipmis = [IpmiTool(b) for b in self.bmcs]
        self.ipmi = self.ipmis[0]
        self.wattmeter = WattMeter(self.node, self.streams)
        self.performance_model = performance_model or HpcgPerformanceModel()
        self.hpl_model = HplPerformanceModel()
        self._apps = _Applications(
            spec, self.performance_model, self.hpl_model, self.streams,
            hpcg_duration_s,
        )
        self.registry = ApplicationRegistry()
        self.registry.register(HPCG_BINARY, self._apps.hpcg)
        self.registry.register(HPL_BINARY, self._apps.hpl)

        self.config = config or SlurmConfig()
        self.slurmds = [Slurmd(n, self.registry) for n in self.nodes]
        self.slurmd = self.slurmds[0]
        self.accounting = AccountingDatabase()
        self.ctld = Slurmctld(
            self.sim, self.config, self.slurmds, self.accounting,
            statesave=statesave,
        )
        self.commands = SlurmCommands(self.ctld)

    @property
    def hpcg_duration_s(self) -> Optional[float]:
        """Run length of every HPCG/HPL job started from now on."""
        return self._apps.duration_s

    @hpcg_duration_s.setter
    def hpcg_duration_s(self, value: Optional[float]) -> None:
        self._apps.duration_s = value

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def run_until_idle(self) -> None:
        self.sim.run_until_idle()

    def submit_and_wait(self, script: str):
        """sbatch + advance the simulation until the job finishes."""
        from repro.slurm.commands import parse_sbatch_output

        job_id = parse_sbatch_output(self.commands.sbatch(script))
        return self.ctld.wait_for_job(job_id)


class _Applications:
    """The workload factories the cluster registers for HPCG and HPL.

    They hold what they build from rather than the cluster, so the
    registry every slurmd shares keeps no reference back to the
    :class:`SimCluster`, and a controller kept alone still runs jobs.
    """

    def __init__(self, spec, performance_model, hpl_model, streams, duration_s):
        self.spec = spec
        self.performance_model = performance_model
        self.hpl_model = hpl_model
        self.streams = streams
        self.duration_s = duration_s

    def _freq_khz(self, desc: JobDescriptor) -> int:
        freq = desc.cpu_freq_max or desc.cpu_freq_min or self.spec.max_freq_khz
        return self.spec.nearest_frequency(freq)

    def hpcg(self, desc: JobDescriptor, job_id: int) -> HpcgWorkload:
        return HpcgWorkload(
            cores=desc.num_tasks,
            threads_per_core=desc.threads_per_core,
            freq_khz=self._freq_khz(desc),
            model=self.performance_model,
            total_flops=PAPER_TOTAL_FLOPS,
            duration_s=self.duration_s,
            streams=self.streams,
            run_tag=f"job{job_id}",
            max_freq_khz=self.spec.max_freq_khz,
            n_nodes=desc.nodes,
        )

    def hpl(self, desc: JobDescriptor, job_id: int) -> HplWorkload:
        return HplWorkload(
            cores=desc.num_tasks,
            threads_per_core=desc.threads_per_core,
            freq_khz=self._freq_khz(desc),
            model=self.hpl_model,
            duration_s=self.duration_s,
            streams=self.streams,
            run_tag=f"job{job_id}",
        )
