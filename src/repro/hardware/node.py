"""The simulated compute node.

:class:`SimulatedNode` is the stand-in for the paper's Lenovo SR650.  It

* owns the CPU spec, per-core cpufreq policies, the power model and the
  thermal integrator;
* runs :class:`Workload` objects on allocated cores (the Slurm node daemon
  starts/stops these);
* answers "what is your instantaneous power draw right now?" — which is what
  the BMC sensors and the ground-truth wattmeter sample;
* integrates *true* consumed energy continuously (trapezoidal between state
  changes) so sampling-cadence experiments can measure integration error;
* computes each power breakdown once per simulated instant: the three IPMI
  sensor reads of one sample and the thermal sub-step that ends at that
  instant share one result, and a running job's active-core watts are
  worked out once per (compute fraction, utilization) phase;
* snaps a job's ``--cpu-freq`` window to P-states once per allocation,
  not once per core;
* exposes a small virtual filesystem (``/proc/cpuinfo``, ``/proc/meminfo``,
  ``/sys/devices/system/cpu/...``) because both Chronus and the paper's C
  plugin identify the system by reading those files.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional

from repro.hardware.cpu import CpuSpec, AMD_EPYC_7502P
from repro.hardware.dvfs import CpufreqPolicy, Governor
from repro.hardware.memory import MemorySpec, SR650_MEMORY
from repro.hardware.power import PowerBreakdown, PowerModel, PowerModelParams
from repro.hardware.thermal import ThermalModel, ThermalParams
from repro.simkernel.engine import Simulator

__all__ = ["Workload", "ConstantWorkload", "NodeError", "SimulatedNode", "RunningWorkload"]


class NodeError(RuntimeError):
    """Allocation and workload lifecycle errors."""


class Workload(abc.ABC):
    """Something that keeps cores busy and touches memory.

    Implementations describe their resource shape statically (``cores``,
    ``threads_per_core``) and their behaviour as functions of elapsed run
    time, which lets the node compute exact instantaneous power at any
    simulated instant without per-tick stepping.

    Contract: :meth:`compute_fraction`, :meth:`bandwidth_gbs`,
    :meth:`utilization` and :meth:`power_modulation` are pure functions of
    ``elapsed_s`` — the same argument always gives the same value, whatever
    was asked before.  The node relies on this when it reuses a breakdown
    for a repeated instant and a job's active-core watts for a repeated
    ``(compute_fraction, utilization)`` pair.
    """

    name: str = "workload"
    cores: int = 1
    threads_per_core: int = 1

    @abc.abstractmethod
    def compute_fraction(self, elapsed_s: float) -> float:
        """Achieved/peak FLOP rate in [0, 1] (drives the core stall model)."""

    @abc.abstractmethod
    def bandwidth_gbs(self, elapsed_s: float) -> float:
        """Achieved DRAM bandwidth in GB/s."""

    def utilization(self, elapsed_s: float) -> float:
        """Busy fraction of the allocated cores (default: fully busy)."""
        return 1.0

    def power_modulation(self, elapsed_s: float) -> float:
        """Multiplicative wiggle on active-core power (default: none)."""
        return 1.0


class ConstantWorkload(Workload):
    """Fixed-behaviour workload, mainly for tests."""

    def __init__(
        self,
        name: str = "constant",
        cores: int = 1,
        threads_per_core: int = 1,
        compute_fraction: float = 1.0,
        bandwidth_gbs: float = 0.0,
        utilization: float = 1.0,
    ) -> None:
        self.name = name
        self.cores = cores
        self.threads_per_core = threads_per_core
        self._cf = compute_fraction
        self._bw = bandwidth_gbs
        self._util = utilization

    def compute_fraction(self, elapsed_s: float) -> float:
        return self._cf

    def bandwidth_gbs(self, elapsed_s: float) -> float:
        return self._bw

    def utilization(self, elapsed_s: float) -> float:
        return self._util


@dataclass
class RunningWorkload:
    """Bookkeeping for a workload placed on the node."""

    workload: Workload
    core_ids: tuple[int, ...]
    start_time: float
    freq_khz: int
    #: the last ``(compute_fraction, utilization)`` and the active-core
    #: watts :meth:`PowerModel.breakdown` gave for it (temperature-free)
    active_key: Optional[tuple[float, float]] = field(default=None, init=False, repr=False, compare=False)
    active_w: float = field(default=0.0, init=False, repr=False, compare=False)

    def elapsed(self, now: float) -> float:
        return max(0.0, now - self.start_time)


class SimulatedNode:
    """A single simulated compute node (see module docstring).

    Power is piecewise: between lifecycle events the node's breakdown is a
    function of the simulated instant and the die temperature only (the
    :class:`Workload` contract).  So the node keeps the last breakdown it
    computed, keyed by exactly ``(now, temp_c)``, and answers a repeated
    instant from it; :meth:`start_workload` and :meth:`stop_workload`
    clear it.  A reused breakdown is the object a recomputation would have
    built field for field, so energy, temperature and sensor values are
    bit-identical to computing every breakdown from scratch.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        hostname: str = "node001",
        spec: CpuSpec = AMD_EPYC_7502P,
        memory: MemorySpec = SR650_MEMORY,
        power_params: Optional[PowerModelParams] = None,
        thermal_params: Optional[ThermalParams] = None,
    ) -> None:
        self.sim = sim
        self.hostname = hostname
        self.spec = spec
        self.memory = memory
        self.power_model = PowerModel(spec, power_params)
        self.policies = [CpufreqPolicy(spec) for _ in spec.core_ids()]
        self.thermal = ThermalModel(thermal_params)
        self.thermal.settle(self.power_model.idle_breakdown().cpu_w)
        self._running: dict[int, RunningWorkload] = {}
        self._next_handle = 1
        self._last_update = sim.now
        self._last_cpu_w = self.power_model.idle_breakdown(self.thermal.temp_c).cpu_w
        self._true_energy_j = 0.0
        self._last_sys_w = self.power_model.idle_breakdown(self.thermal.temp_c).system_w
        self._instant: Optional[tuple[float, float]] = None
        self._instant_bd: Optional[PowerBreakdown] = None

    # ------------------------------------------------------------------
    # allocation and workload lifecycle
    # ------------------------------------------------------------------
    @property
    def total_cores(self) -> int:
        return self.spec.total_cores

    def allocated_core_ids(self) -> set[int]:
        out: set[int] = set()
        for rw in self._running.values():
            out.update(rw.core_ids)
        return out

    def free_core_ids(self) -> list[int]:
        used = self.allocated_core_ids()
        return [c for c in self.spec.core_ids() if c not in used]

    def free_cores(self) -> int:
        return len(self.free_core_ids())

    def start_workload(
        self,
        workload: Workload,
        *,
        freq_min_khz: Optional[int] = None,
        freq_max_khz: Optional[int] = None,
        governor: Governor | str | None = None,
    ) -> int:
        """Place ``workload`` on free cores; returns an opaque handle.

        The allocated cores get the requested ``--cpu-freq`` window applied
        (snapped to P-states once per job, not per core); their governors
        then resolve the running frequency at full utilization.
        """
        free = self.free_core_ids()
        if workload.cores > len(free):
            raise NodeError(
                f"need {workload.cores} cores, only {len(free)} free on {self.hostname}"
            )
        if workload.cores <= 0:
            raise NodeError(f"workload must request at least one core, got {workload.cores}")
        self._refresh(self.sim.now)
        core_ids = tuple(free[: workload.cores])
        lo = None if freq_min_khz is None else self.spec.nearest_frequency(freq_min_khz)
        hi = None if freq_max_khz is None else self.spec.nearest_frequency(freq_max_khz)
        for cid in core_ids:
            pol = self.policies[cid]
            if governor is not None:
                pol.set_governor(governor)
            if lo is not None or hi is not None:
                pol.set_snapped_bounds(lo, hi)
            pol.update(utilization=1.0)
        freq = self.policies[core_ids[0]].current_freq_khz
        handle = self._next_handle
        self._next_handle += 1
        self._running[handle] = RunningWorkload(
            workload=workload, core_ids=core_ids, start_time=self.sim.now, freq_khz=freq
        )
        self._instant = None
        return handle

    def stop_workload(self, handle: int) -> Workload:
        """Remove a workload; its cores revert to platform defaults."""
        if handle not in self._running:
            raise NodeError(f"unknown workload handle {handle}")
        self._refresh(self.sim.now)
        rw = self._running.pop(handle)
        self._instant = None
        for cid in rw.core_ids:
            self.policies[cid].reset()
        return rw.workload

    def running_workloads(self) -> list[RunningWorkload]:
        return list(self._running.values())

    def running_handles(self) -> list[int]:
        """Live workload handles — crash recovery reconciles these against
        the journaled controller state and stops any orphans."""
        return sorted(self._running)

    # ------------------------------------------------------------------
    # power and thermal state
    # ------------------------------------------------------------------
    def _operating_breakdown(self, now: float, temp_c: float) -> PowerBreakdown:
        """The breakdown at ``(now, temp_c)``, computed once per instant."""
        if self._instant == (now, temp_c):
            return self._instant_bd
        bd = self._compute_breakdown(now, temp_c)
        self._instant = (now, temp_c)
        self._instant_bd = bd
        return bd

    def _compute_breakdown(self, now: float, temp_c: float) -> PowerBreakdown:
        """Combine all running workloads into one instantaneous breakdown."""
        p = self.power_model.params
        total_active = 0
        active_w = 0.0
        bw = 0.0
        for rw in self._running.values():
            wl = rw.workload
            el = rw.elapsed(now)
            key = (wl.compute_fraction(el), wl.utilization(el))
            if key != rw.active_key:
                # Active-core watts do not depend on temperature, so one
                # PowerModel.breakdown serves a job's whole phase.
                rw.active_w = self.power_model.breakdown(
                    wl.cores,
                    wl.threads_per_core,
                    rw.freq_khz,
                    compute_fraction=key[0],
                    bandwidth_gbs=0.0,
                    cpu_temp_c=temp_c,
                    utilization=key[1],
                ).active_cores_w
                rw.active_key = key
            active_w += rw.active_w * wl.power_modulation(el)
            bw += wl.bandwidth_gbs(el)
            total_active += wl.cores
        bw = min(bw, self.memory.peak_bandwidth_gbs)
        parked = self.spec.total_cores - total_active
        return PowerBreakdown(
            platform_w=p.platform_base_w,
            dram_w=p.mem_w_per_gbs * bw,
            fan_w=p.fan_w_per_c * max(0.0, temp_c - p.fan_knee_c),
            uncore_w=p.uncore_w,
            idle_cores_w=parked * p.idle_core_w,
            active_cores_w=active_w,
        )

    def _refresh(self, now: float) -> None:
        """Advance thermal/energy state to ``now`` (piecewise-constant power)."""
        dt = now - self._last_update
        if dt < 0:
            raise NodeError(f"node time went backwards: {now} < {self._last_update}")
        if dt > 0:
            # Integrate in sub-steps so fan power tracks the exponential
            # temperature transient reasonably closely.
            steps = max(1, min(64, int(dt / 5.0)))
            h = dt / steps
            for _ in range(steps):
                self.thermal.advance(h, self._last_cpu_w)
                bd = self._operating_breakdown(self._last_update + h, self.thermal.temp_c)
                self._true_energy_j += 0.5 * (self._last_sys_w + bd.system_w) * h
                self._last_cpu_w = bd.cpu_w
                self._last_sys_w = bd.system_w
                self._last_update += h
        self._last_update = now

    def instantaneous_power(self) -> PowerBreakdown:
        """True power draw at the current simulated time."""
        self._refresh(self.sim.now)
        return self._operating_breakdown(self.sim.now, self.thermal.temp_c)

    @property
    def cpu_temp_c(self) -> float:
        self._refresh(self.sim.now)
        return self.thermal.temp_c

    @property
    def true_energy_joules(self) -> float:
        """Continuously integrated ground-truth system energy."""
        self._refresh(self.sim.now)
        return self._true_energy_j

    # ------------------------------------------------------------------
    # virtual filesystem
    # ------------------------------------------------------------------
    def read_file(self, path: str) -> str:
        """Read a virtual ``/proc`` or ``/sys`` file.

        Supports exactly the files the paper's code reads; anything else
        raises ``FileNotFoundError`` like a real open(2) would.
        """
        if path == "/proc/cpuinfo":
            return self._render_cpuinfo()
        if path == "/proc/meminfo":
            return self._render_meminfo()
        parts = path.strip("/").split("/")
        # /sys/devices/system/cpu/cpuN/cpufreq/<attr>
        if (
            len(parts) == 6
            and parts[:4] == ["sys", "devices", "system", "cpu"]
            and parts[4].startswith("cpu")
            and parts[5] == "cpufreq"
        ):
            raise IsADirectoryError(path)
        if (
            len(parts) == 7
            and parts[:4] == ["sys", "devices", "system", "cpu"]
            and parts[4].startswith("cpu")
            and parts[5] == "cpufreq"
        ):
            try:
                cpu_index = int(parts[4][3:])
            except ValueError:
                raise FileNotFoundError(path) from None
            if not 0 <= cpu_index < self.spec.total_threads:
                raise FileNotFoundError(path)
            core = cpu_index % self.spec.total_cores
            return self._render_cpufreq_attr(core, parts[6])
        raise FileNotFoundError(path)

    def _render_cpufreq_attr(self, core: int, attr: str) -> str:
        pol = self.policies[core]
        if attr == "scaling_available_frequencies":
            return " ".join(str(f) for f in self.spec.frequencies_khz) + "\n"
        if attr == "scaling_governor":
            return pol.governor.value + "\n"
        if attr == "scaling_cur_freq":
            return f"{pol.current_freq_khz}\n"
        if attr == "scaling_min_freq":
            return f"{pol.scaling_min_freq}\n"
        if attr == "scaling_max_freq":
            return f"{pol.scaling_max_freq}\n"
        if attr == "scaling_available_governors":
            return " ".join(g.value for g in Governor) + "\n"
        raise FileNotFoundError(f"/sys/devices/system/cpu/cpu{core}/cpufreq/{attr}")

    def _render_cpuinfo(self) -> str:
        blocks = []
        for thread in range(self.spec.total_threads):
            core = thread % self.spec.total_cores
            blocks.append(
                "\n".join(
                    [
                        f"processor\t: {thread}",
                        f"vendor_id\t: {self.spec.vendor}",
                        f"cpu family\t: {self.spec.family}",
                        f"model\t\t: {self.spec.model}",
                        f"model name\t: {self.spec.model_name}",
                        f"stepping\t: {self.spec.stepping}",
                        f"cpu MHz\t\t: {self.policies[core].current_freq_khz / 1000:.3f}",
                        f"cache size\t: {self.spec.cache_l3_kb} KB",
                        f"physical id\t: 0",
                        f"siblings\t: {self.spec.total_threads}",
                        f"core id\t\t: {core}",
                        f"cpu cores\t: {self.spec.total_cores}",
                        f"bogomips\t: {self.spec.bogomips:.2f}",
                    ]
                )
            )
        return "\n\n".join(blocks) + "\n"

    def _render_meminfo(self) -> str:
        total_kb = self.memory.capacity_kb
        free_kb = int(total_kb * 0.92)
        return (
            f"MemTotal:       {total_kb} kB\n"
            f"MemFree:        {free_kb} kB\n"
            f"MemAvailable:   {free_kb} kB\n"
            f"Buffers:        {int(total_kb * 0.002)} kB\n"
            f"Cached:         {int(total_kb * 0.05)} kB\n"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SimulatedNode({self.hostname!r}, cores={self.spec.total_cores}, "
            f"running={len(self._running)})"
        )
