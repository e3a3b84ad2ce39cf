"""CPU specifications and the voltage/frequency operating curve.

Frequencies follow the Linux cpufreq convention and are expressed in **kHz**
everywhere a configuration is exchanged (the paper's JSON configurations use
``"frequency": 2200000``), while physics-facing code converts to GHz.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["VoltageCurve", "CpuSpec", "AMD_EPYC_7502P", "khz_to_ghz", "ghz_to_khz"]


@lru_cache(maxsize=4096)
def _interp_voltage(
    curve: "VoltageCurve", freq_khz: float
) -> float:
    """Memoised V(f) interpolation, shared across every user of a curve.

    The simulator samples power at the IPMI cadence, so one sweep point
    evaluates V(f) tens of thousands of times at a handful of distinct
    frequencies.  ``VoltageCurve`` is frozen (hashable) and cluster specs
    are shared module constants, so the cache keyed on ``(curve, f)``
    persists across sweep points — including inside forked
    ``SweepExecutor`` pool workers, which inherit and then keep growing
    one warm cache per worker instead of re-interpolating per point.
    """
    return float(np.interp(freq_khz, curve.freqs_khz, curve.volts))


def khz_to_ghz(freq_khz: float) -> float:
    """Convert a cpufreq kHz value to GHz."""
    return float(freq_khz) / 1e6


def ghz_to_khz(freq_ghz: float) -> int:
    """Convert GHz to the cpufreq integer kHz convention."""
    return int(round(float(freq_ghz) * 1e6))


@dataclass(frozen=True)
class VoltageCurve:
    """Piecewise-linear V(f) operating curve.

    Real parts ship a table of (frequency, voltage) operating points; the
    power model needs V at arbitrary f, so we interpolate linearly and clamp
    at the ends (no extrapolation below/above the defined P-states).
    """

    freqs_khz: tuple[float, ...]
    volts: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.freqs_khz) != len(self.volts):
            raise ValueError("freqs_khz and volts must have equal length")
        if len(self.freqs_khz) < 2:
            raise ValueError("a voltage curve needs at least two points")
        if list(self.freqs_khz) != sorted(self.freqs_khz):
            raise ValueError("freqs_khz must be ascending")
        if any(v <= 0 for v in self.volts):
            raise ValueError("voltages must be positive")

    def voltage(self, freq_khz: float) -> float:
        """Interpolated core voltage (volts) at ``freq_khz``."""
        return _interp_voltage(self, float(freq_khz))


@dataclass(frozen=True)
class CpuSpec:
    """Static description of a CPU package.

    Mirrors what the paper's Chronus discovers through ``lscpu`` and
    ``/sys/devices/system/cpu``: model name, core/thread topology and the
    list of available scaling frequencies.
    """

    model_name: str
    sockets: int
    cores_per_socket: int
    threads_per_core: int
    frequencies_khz: tuple[int, ...]
    voltage_curve: VoltageCurve
    tdp_watts: float
    vendor: str = "AuthenticAMD"
    family: int = 23
    model: int = 49
    stepping: int = 0
    cache_l3_kb: int = 131072
    bogomips: float = 5000.0

    def __post_init__(self) -> None:
        if self.sockets < 1 or self.cores_per_socket < 1:
            raise ValueError("sockets and cores_per_socket must be >= 1")
        if self.threads_per_core not in (1, 2, 4):
            raise ValueError(f"unsupported threads_per_core: {self.threads_per_core}")
        if not self.frequencies_khz:
            raise ValueError("at least one scaling frequency is required")
        if list(self.frequencies_khz) != sorted(self.frequencies_khz):
            raise ValueError("frequencies_khz must be ascending")

    @property
    def total_cores(self) -> int:
        """Physical cores across all sockets."""
        return self.sockets * self.cores_per_socket

    @property
    def total_threads(self) -> int:
        """Hardware threads (logical CPUs) across all sockets."""
        return self.total_cores * self.threads_per_core

    @property
    def min_freq_khz(self) -> int:
        return self.frequencies_khz[0]

    @property
    def max_freq_khz(self) -> int:
        return self.frequencies_khz[-1]

    def validate_frequency(self, freq_khz: int) -> int:
        """Return ``freq_khz`` if it is an advertised P-state, else raise."""
        if freq_khz not in self.frequencies_khz:
            raise ValueError(
                f"{freq_khz} kHz is not an available scaling frequency "
                f"(available: {list(self.frequencies_khz)})"
            )
        return freq_khz

    def nearest_frequency(self, freq_khz: float) -> int:
        """Snap an arbitrary kHz value to the nearest advertised P-state.

        A value exactly between two P-states snaps to the lower one, and so
        does NaN or an infinity (every distance compares equal).  Distances
        are taken in floating point, so this matches a numpy
        ``argmin(abs(freqs - f))`` bit for bit without building an array
        per call.
        """
        target = float(freq_khz)
        return min(self.frequencies_khz, key=lambda f: abs(f - target))

    def voltage(self, freq_khz: float) -> float:
        return self.voltage_curve.voltage(freq_khz)

    def core_ids(self) -> range:
        return range(self.total_cores)


#: The paper's evaluation CPU: AMD EPYC 7502P — 32 cores, 2 threads/core,
#: scaling frequencies {1.5, 2.2, 2.5} GHz (exactly the set Chronus reads
#: from ``scaling_available_frequencies`` in the paper's Figure 1).
#:
#: The voltage operating points are calibration outputs (see
#: repro.analysis.calibration): the measured per-core power jump between
#: 2.2 and 2.5 GHz in the paper's Table 2 implies a voltage-rich top
#: P-state, which the fit recovers.
AMD_EPYC_7502P = CpuSpec(
    model_name="AMD EPYC 7502P 32-Core Processor",
    sockets=1,
    cores_per_socket=32,
    threads_per_core=2,
    frequencies_khz=(1_500_000, 2_200_000, 2_500_000),
    voltage_curve=VoltageCurve(
        freqs_khz=(1_500_000.0, 2_200_000.0, 2_500_000.0),
        volts=(0.70, 1.0169, 1.45),
    ),
    tdp_watts=180.0,
)
