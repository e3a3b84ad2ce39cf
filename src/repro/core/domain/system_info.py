"""System identity: what ``lscpu`` discovery yields and what models key on.

The paper's Figure 1 log shows the exact shape::

    SystemInfo(cpu_name='AMD EPYC 7502P 32-Core Processor', cores=32,
               threads_per_core=2,
               frequencies=[1500000.0, 2200000.0, 2500000.0])
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.domain.chash import simple_hash

__all__ = ["SystemInfo"]


@dataclass(frozen=True)
class SystemInfo:
    """Hardware identity of one cluster node."""

    cpu_name: str
    cores: int
    threads_per_core: int
    frequencies: tuple[float, ...]
    ram_kb: int = 0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        if self.threads_per_core < 1:
            raise ValueError(
                f"threads_per_core must be >= 1, got {self.threads_per_core}"
            )
        if not self.frequencies:
            raise ValueError("a system must advertise at least one frequency")
        if list(self.frequencies) != sorted(self.frequencies):
            raise ValueError("frequencies must be ascending")

    # ------------------------------------------------------------------
    @property
    def max_frequency(self) -> int:
        return int(self.frequencies[-1])

    @property
    def min_frequency(self) -> int:
        return int(self.frequencies[0])

    def fingerprint(self) -> int:
        """Stable identity hash (the Python-side analogue of the plugin's
        cpuinfo+meminfo hash — same construction, Chronus-visible fields)."""
        text = (
            f"{self.cpu_name}|{self.cores}|{self.threads_per_core}|"
            f"{','.join(str(int(f)) for f in self.frequencies)}|{self.ram_kb}"
        )
        return simple_hash(text)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "cpu_name": self.cpu_name,
            "cores": self.cores,
            "threads_per_core": self.threads_per_core,
            "frequencies": list(self.frequencies),
            "ram_kb": self.ram_kb,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SystemInfo":
        return cls(
            cpu_name=str(data["cpu_name"]),
            cores=int(data["cores"]),
            threads_per_core=int(data["threads_per_core"]),
            frequencies=tuple(float(f) for f in data["frequencies"]),
            ram_kb=int(data.get("ram_kb", 0)),
        )

    def __str__(self) -> str:
        return (
            f"SystemInfo(cpu_name={self.cpu_name!r}, cores={self.cores}, "
            f"threads_per_core={self.threads_per_core}, "
            f"frequencies={[float(f) for f in self.frequencies]})"
        )
