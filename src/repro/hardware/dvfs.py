"""Per-core DVFS: cpufreq policies and governors.

The paper compares against "Slurm's standard configuration, which is DVFS in
Performance mode" and against the related work's Linux *ondemand* baseline,
so the simulator implements the three governors that matter plus
``userspace`` (which is what ``--cpu-freq`` pinning effectively does):

* ``performance`` — always the policy's max frequency (the Slurm default).
* ``powersave``  — always the policy's min frequency.
* ``ondemand``   — steps up to max when utilization crosses ``up_threshold``
  (Linux default 80%), steps down one P-state when below the down threshold.
* ``userspace``  — honours an explicit setpoint.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.hardware.cpu import CpuSpec

__all__ = ["Governor", "CpufreqPolicy"]


class Governor(str, enum.Enum):
    """Linux cpufreq governor names used by the simulator."""

    PERFORMANCE = "performance"
    POWERSAVE = "powersave"
    ONDEMAND = "ondemand"
    USERSPACE = "userspace"

    @classmethod
    def parse(cls, name: str) -> "Governor":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown governor {name!r}; available: "
                f"{[g.value for g in cls]}"
            ) from None


@dataclass
class CpufreqPolicy:
    """The cpufreq policy of one core (``/sys/.../cpufreq/`` equivalent).

    ``scaling_min_freq``/``scaling_max_freq`` bound what any governor may
    pick — this is the knob `job_submit_eco` turns via Slurm's
    ``--cpu-freq=<min>[-<max>]`` job parameter.

    The clipped window (:meth:`allowed_freqs`) is computed when those
    bounds change, not on every governor decision, so applying a job's
    window to each core of an allocation, and resetting each core when
    the job ends, costs one filter per change of bounds.
    """

    spec: CpuSpec
    governor: Governor = Governor.PERFORMANCE
    scaling_min_freq: int = 0
    scaling_max_freq: int = 0
    userspace_setpoint: int = 0
    up_threshold: float = 0.80
    down_threshold: float = 0.40
    _current: int = field(default=0, repr=False)
    #: the clipped window and the (min, max) bounds it was computed for
    _window: tuple[int, ...] = field(default=(), init=False, repr=False, compare=False)
    _window_bounds: tuple[int, int] = field(default=(0, 0), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.scaling_min_freq == 0:
            self.scaling_min_freq = self.spec.min_freq_khz
        if self.scaling_max_freq == 0:
            self.scaling_max_freq = self.spec.max_freq_khz
        if self.userspace_setpoint == 0:
            self.userspace_setpoint = self.scaling_max_freq
        self._validate_bounds()
        self._current = self._resolve(utilization=0.0)

    def _validate_bounds(self) -> None:
        if self.scaling_min_freq > self.scaling_max_freq:
            raise ValueError(
                f"scaling_min_freq {self.scaling_min_freq} > "
                f"scaling_max_freq {self.scaling_max_freq}"
            )

    # ------------------------------------------------------------------
    @property
    def current_freq_khz(self) -> int:
        return self._current

    def allowed_freqs(self) -> list[int]:
        """Advertised P-states clipped to the scaling min/max window."""
        return list(self._allowed())

    def _allowed(self) -> tuple[int, ...]:
        bounds = (self.scaling_min_freq, self.scaling_max_freq)
        if bounds != self._window_bounds:
            lo, hi = bounds
            freqs = self.spec.frequencies_khz
            if not (lo <= freqs[0] and freqs[-1] <= hi):  # else every P-state fits
                freqs = tuple([f for f in freqs if lo <= f <= hi])
            if not freqs:
                # A window between two P-states: fall back to the nearest
                # state below the max bound, mirroring the kernel's clamping.
                freqs = (self.spec.nearest_frequency(hi),)
            self._window = freqs
            self._window_bounds = bounds
        return self._window

    def set_governor(self, governor: Governor | str) -> None:
        self.governor = Governor.parse(governor) if isinstance(governor, str) else governor
        self._current = self._resolve(utilization=0.0)

    def set_bounds(self, min_khz: Optional[int] = None, max_khz: Optional[int] = None) -> None:
        """Apply a ``--cpu-freq`` style window.

        Values are snapped to the nearest advertised P-state, like the
        kernel does when a requested frequency is not an exact P-state.
        """
        self.set_snapped_bounds(
            None if min_khz is None else self.spec.nearest_frequency(min_khz),
            None if max_khz is None else self.spec.nearest_frequency(max_khz),
        )

    def set_snapped_bounds(
        self, min_khz: Optional[int] = None, max_khz: Optional[int] = None
    ) -> None:
        """:meth:`set_bounds` for values already snapped to P-states.

        A node snaps a job's window once and applies it to every core of
        the allocation through this.
        """
        if min_khz is not None:
            self.scaling_min_freq = min_khz
        if max_khz is not None:
            self.scaling_max_freq = max_khz
        self._validate_bounds()
        self._current = self._clamp(self._current)

    def set_userspace(self, freq_khz: int) -> None:
        self.governor = Governor.USERSPACE
        self.userspace_setpoint = self.spec.nearest_frequency(freq_khz)
        self._current = self._clamp(self.userspace_setpoint)

    def reset(self) -> None:
        """Back to platform defaults (performance governor, full window)."""
        self.scaling_min_freq = self.spec.min_freq_khz
        self.scaling_max_freq = self.spec.max_freq_khz
        self.governor = Governor.PERFORMANCE
        self.userspace_setpoint = self.scaling_max_freq
        self._current = self._resolve(utilization=0.0)

    # ------------------------------------------------------------------
    def update(self, utilization: float) -> int:
        """Advance the governor one evaluation period.

        Args:
            utilization: [0, 1] busy fraction over the last period.

        Returns:
            The frequency (kHz) the core runs at for the next period.
        """
        if not 0.0 <= utilization <= 1.0:
            raise ValueError(f"utilization must be in [0, 1], got {utilization}")
        self._current = self._resolve(utilization)
        return self._current

    def _clamp(self, freq: int) -> int:
        allowed = self._allowed()
        if freq in allowed:
            return freq
        return min(allowed, key=lambda f: abs(f - freq))

    def _resolve(self, utilization: float) -> int:
        allowed = self._allowed()
        if self.governor is Governor.PERFORMANCE:
            return allowed[-1]
        if self.governor is Governor.POWERSAVE:
            return allowed[0]
        if self.governor is Governor.USERSPACE:
            return self._clamp(self.userspace_setpoint)
        # ondemand
        current = self._current if self._current in allowed else self._clamp(self._current or allowed[0])
        if utilization >= self.up_threshold:
            return allowed[-1]
        if utilization <= self.down_threshold:
            idx = allowed.index(current)
            return allowed[max(0, idx - 1)]
        return current
