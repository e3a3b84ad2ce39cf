"""Calibrated node power model.

Structure (standard CMOS + platform accounting):

* **CPU power** = uncore + idle C-state power of parked cores + for each
  active core ``leak·V(f) + dyn·V(f)^2·f·u_eff`` + a per-core adder when
  both hardware threads are in use.  ``u_eff`` is the *effective switching
  activity*: memory-stalled cores clock-gate much of the pipeline, so a
  memory-bound code at high frequency draws less than ``V^2 f`` scaling
  alone would suggest.  Callers pass ``compute_fraction`` (achieved / peak
  FLOP rate) and the model maps it to ``u_eff`` through a stall floor.
* **System power** = platform base (PSU overhead, board, disks, NICs)
  + DRAM dynamic power proportional to achieved bandwidth + fan power that
  grows with CPU temperature + CPU power.

All constants live in :class:`PowerModelParams`.  The shipped defaults are
the output of :mod:`repro.analysis.calibration`, fitted so that the
simulated node reproduces the paper's Table 2 operating points
(216.6 W system / 120.4 W CPU at 32 cores @ 2.5 GHz; 190.1 W / 97.4 W at
32 cores @ 2.2 GHz) and the GFLOPS/W surface of Tables 4–6 in shape.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.cpu import CpuSpec, khz_to_ghz

__all__ = ["PowerModelParams", "PowerBreakdown", "PowerModel"]


@dataclass(frozen=True)
class PowerModelParams:
    """Free parameters of the node power model (calibration output)."""

    #: platform base: board, PSU conversion loss, storage, NIC (W)
    platform_base_w: float = 84.6884528938
    #: DRAM dynamic power per achieved GB/s (W per GB/s)
    mem_w_per_gbs: float = 0.0
    #: fan power slope above the fan knee (W per deg C)
    fan_w_per_c: float = 0.5735502873
    #: fan knee temperature (deg C)
    fan_knee_c: float = 40.0
    #: CPU uncore power: fabric, memory controllers, L3 (W)
    uncore_w: float = 42.1786876574
    #: per parked (idle) core C-state power (W)
    idle_core_w: float = 1.1556319433
    #: leakage coefficient: W per volt per active core (the fit drove this
    #: to ~0 — leakage is absorbed into the uncore/idle terms)
    leak_w_per_v: float = 0.0
    #: dynamic coefficient: W per (V^2 * GHz) per active core
    dyn_w_per_v2ghz: float = 1.9253320636
    #: extra power when a core runs two hardware threads (W per core)
    ht_core_adder_w: float = 0.0105975593
    #: effective-activity floor for fully memory-stalled cores
    stall_floor: float = 0.1


@dataclass(frozen=True)
class PowerBreakdown:
    """Instantaneous power split, all in watts."""

    platform_w: float
    dram_w: float
    fan_w: float
    uncore_w: float
    idle_cores_w: float
    active_cores_w: float

    @property
    def cpu_w(self) -> float:
        """Package power — what the paper's `CPU Power` sensor reports."""
        return self.uncore_w + self.idle_cores_w + self.active_cores_w

    @property
    def system_w(self) -> float:
        """Wall power — what `Total_Power` / the wattmeter reports."""
        return self.platform_w + self.dram_w + self.fan_w + self.cpu_w


class PowerModel:
    """Maps a node operating point to a :class:`PowerBreakdown`."""

    def __init__(self, spec: CpuSpec, params: PowerModelParams | None = None) -> None:
        self.spec = spec
        self.params = params or PowerModelParams()

    def effective_activity(self, compute_fraction: float) -> float:
        """Switching-activity factor in [stall_floor, 1] for an active core."""
        cf = min(max(compute_fraction, 0.0), 1.0)
        p = self.params
        return p.stall_floor + (1.0 - p.stall_floor) * cf

    def breakdown(
        self,
        active_cores: int,
        threads_per_core: int,
        freq_khz: float,
        *,
        compute_fraction: float = 1.0,
        bandwidth_gbs: float = 0.0,
        cpu_temp_c: float = 45.0,
        utilization: float = 1.0,
    ) -> PowerBreakdown:
        """Instantaneous power for the given operating point.

        Args:
            active_cores: cores allocated to running work.
            threads_per_core: 1 (no HT) or 2 (both siblings busy).
            freq_khz: the frequency active cores run at.
            compute_fraction: achieved / peak FLOP rate of the active cores
                (drives the stall model).
            bandwidth_gbs: achieved DRAM bandwidth.
            cpu_temp_c: current die temperature (drives fan power).
            utilization: busy fraction of the active cores in the current
                interval (1.0 while a job runs, < 1 for duty-cycled phases).
        """
        if active_cores < 0 or active_cores > self.spec.total_cores:
            raise ValueError(
                f"active_cores must be in [0, {self.spec.total_cores}], got {active_cores}"
            )
        if threads_per_core not in (1, 2):
            raise ValueError("threads_per_core must be 1 or 2")
        if not 0.0 <= utilization <= 1.0:
            raise ValueError(f"utilization must be in [0, 1], got {utilization}")
        p = self.params
        volt = self.spec.voltage(freq_khz)
        ghz = khz_to_ghz(freq_khz)
        act = self.effective_activity(compute_fraction) * utilization

        parked = self.spec.total_cores - active_cores
        idle_w = parked * p.idle_core_w
        # An active core keeps its baseline (idle_core_w) and adds leakage +
        # dynamic power on top, so activating a core can never *reduce*
        # package power (monotonicity property-tested in the suite).
        per_core = (
            p.idle_core_w
            + p.leak_w_per_v * volt
            + p.dyn_w_per_v2ghz * volt * volt * ghz * act
        )
        if threads_per_core == 2:
            per_core += p.ht_core_adder_w * utilization
        active_w = active_cores * per_core

        # Package power limit (RAPL-style): compute-heavy workloads would
        # otherwise exceed the part's TDP; real parts throttle.  The cap
        # never binds at the paper's HPCG operating points (<=120 W CPU on
        # a 180 W part) so the calibration is unaffected.
        uncapped_cpu = p.uncore_w + idle_w + active_w
        if uncapped_cpu > self.spec.tdp_watts and active_w > 0:
            active_w = max(0.0, self.spec.tdp_watts - p.uncore_w - idle_w)

        fan_w = p.fan_w_per_c * max(0.0, cpu_temp_c - p.fan_knee_c)
        dram_w = p.mem_w_per_gbs * max(0.0, bandwidth_gbs)
        return PowerBreakdown(
            platform_w=p.platform_base_w,
            dram_w=dram_w,
            fan_w=fan_w,
            uncore_w=p.uncore_w,
            idle_cores_w=idle_w,
            active_cores_w=active_w,
        )

    def idle_breakdown(self, cpu_temp_c: float = 40.0) -> PowerBreakdown:
        """Power with no work running (all cores parked)."""
        return self.breakdown(
            0, 1, self.spec.min_freq_khz, compute_fraction=0.0,
            bandwidth_gbs=0.0, cpu_temp_c=cpu_temp_c, utilization=0.0,
        )
