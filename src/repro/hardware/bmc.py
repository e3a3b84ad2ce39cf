"""Baseboard Management Controller with IPMI-style sensors.

The paper samples ``Total_Power`` from the BMC over IPMI every 2–3 seconds
and validates it against a wattmeter, finding a 5.96% systematic gap
(Equation 1).  The simulated BMC therefore reports *miscalibrated* power:
a configurable systematic scale factor on the true wall power, plus sensor
quantisation (IPMI power sensors report integer watts) and small zero-mean
read noise.  The CPU power and temperature sensors behave likewise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


from repro.hardware.node import SimulatedNode
from repro.simkernel.random import RandomStreams

__all__ = ["SensorReading", "BoardManagementController"]


@dataclass(frozen=True)
class SensorReading:
    """One sampled sensor value."""

    time: float
    name: str
    value: float
    unit: str

    def render(self) -> str:
        """`ipmitool sdr` style line, e.g. ``Total_Power | 258 Watts``."""
        if self.unit == "Watts":
            return f"{self.name:<16} | {int(round(self.value))} Watts"
        if self.unit == "degrees C":
            return f"{self.name:<16} | {self.value:.0f} degrees C"
        return f"{self.name:<16} | {self.value:g} {self.unit}"


class BoardManagementController:
    """Out-of-band sensor access to one :class:`SimulatedNode`.

    Args:
        node: the monitored node.
        streams: random streams for sensor noise (``bmc:<hostname>``).
        power_scale: systematic scale on the node's model power.  The
            node's power model is calibrated in the *IPMI frame* (the
            paper's Tables 2/4-6 are IPMI measurements), so the default is
            1.0; the AC-side wattmeter is the one that reads higher
            (Equation 1).
        noise_w: std-dev of zero-mean gaussian read noise on power sensors.
    """

    SENSORS = ("Total_Power", "CPU_Power", "CPU_Temp")

    def __init__(
        self,
        node: SimulatedNode,
        streams: Optional[RandomStreams] = None,
        *,
        power_scale: float = 1.0,
        noise_w: float = 0.8,
        temp_noise_c: float = 0.3,
    ) -> None:
        if power_scale <= 0:
            raise ValueError("power_scale must be positive")
        self.node = node
        self.power_scale = power_scale
        self.noise_w = noise_w
        self.temp_noise_c = temp_noise_c
        streams = streams or RandomStreams(0)
        self._rng = streams.get(f"bmc:{node.hostname}")

    # ------------------------------------------------------------------
    def read_sensor(self, name: str) -> SensorReading:
        """Sample one sensor at the current simulated time."""
        now = self.node.sim.now
        if name == "CPU_Temp":
            value = self.node.cpu_temp_c + self._rng.normal(0.0, self.temp_noise_c)
            return SensorReading(now, name, round(value, 1), "degrees C")
        bd = self.node.instantaneous_power()
        if name == "Total_Power":
            value = bd.system_w * self.power_scale + self._rng.normal(0.0, self.noise_w)
            return SensorReading(now, name, max(0.0, round(value)), "Watts")
        if name == "CPU_Power":
            value = bd.cpu_w * self.power_scale + self._rng.normal(0.0, self.noise_w)
            return SensorReading(now, name, max(0.0, round(value)), "Watts")
        raise KeyError(f"unknown sensor {name!r}; available: {self.SENSORS}")

    def read_all(self) -> list[SensorReading]:
        return [self.read_sensor(name) for name in self.SENSORS]

    def sdr_list(self) -> str:
        """Text block equivalent to ``ipmitool sdr list``."""
        return "\n".join(r.render() for r in self.read_all()) + "\n"
