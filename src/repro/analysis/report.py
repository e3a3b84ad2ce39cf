"""Savings report: what adopting the eco plugin is worth.

The paper motivates the work with operating cost and CO2 (the Vestas story,
the 2022 energy crisis).  This module turns a system's benchmark table into
the number an operator actually asks for: *if the eco plugin rewrites this
application's jobs, how many kWh / EUR / kgCO2 does this node save per
year at a given duty cycle?*

Exposed on the CLI as ``chronus report``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.tables import TextTable
from repro.core.domain.benchmark import BenchmarkResult
from repro.core.domain.configuration import Configuration
from repro.core.domain.errors import ChronusError

__all__ = ["SavingsReport"]

HOURS_PER_YEAR = 8766.0


@dataclass(frozen=True)
class SavingsReport:
    """Projected annual savings of eco-configured vs default jobs.

    The comparison is *work-normalised*: both configurations execute the
    same amount of application work, so the slower eco configuration is
    charged for its longer runtime (energy per unit work =
    ``avg_system_w / gflops``).
    """

    application: str
    default_config: Configuration
    best_config: Configuration
    default_gflops: float
    best_gflops: float
    default_w: float
    best_w: float
    duty_cycle: float
    price_eur_per_mwh: float
    carbon_g_per_kwh: float

    # ------------------------------------------------------------------
    @property
    def energy_per_gflop_default_j(self) -> float:
        return self.default_w / self.default_gflops

    @property
    def energy_per_gflop_best_j(self) -> float:
        return self.best_w / self.best_gflops

    @property
    def saving_fraction(self) -> float:
        """Fraction of energy saved per unit of work."""
        return 1.0 - self.energy_per_gflop_best_j / self.energy_per_gflop_default_j

    @property
    def performance_cost_fraction(self) -> float:
        """Throughput given up by the eco configuration."""
        return 1.0 - self.best_gflops / self.default_gflops

    @property
    def annual_kwh_saved(self) -> float:
        """kWh/year saved delivering the default configuration's annual
        work at the eco configuration's energy-per-work."""
        work = self.default_gflops * self.duty_cycle * HOURS_PER_YEAR * 3600.0
        joules_saved = work * (
            self.energy_per_gflop_default_j - self.energy_per_gflop_best_j
        )
        return joules_saved / 3.6e6

    @property
    def annual_eur_saved(self) -> float:
        return self.annual_kwh_saved / 1000.0 * self.price_eur_per_mwh

    @property
    def annual_kg_co2_saved(self) -> float:
        return self.annual_kwh_saved * self.carbon_g_per_kwh / 1000.0

    # ------------------------------------------------------------------
    @classmethod
    def from_benchmarks(
        cls,
        benchmarks: Sequence[BenchmarkResult],
        *,
        duty_cycle: float = 0.7,
        price_eur_per_mwh: float = 90.0,
        carbon_g_per_kwh: float = 300.0,
    ) -> "SavingsReport":
        """Build the report from one application's benchmark rows.

        The default configuration is the highest-GFLOP/s row (what the
        performance governor delivers); the eco configuration is the
        GFLOPS/W winner.
        """
        if not benchmarks:
            raise ChronusError("savings report needs benchmark data")
        if not 0.0 < duty_cycle <= 1.0:
            raise ValueError(f"duty_cycle must be in (0, 1], got {duty_cycle}")
        if price_eur_per_mwh < 0 or carbon_g_per_kwh < 0:
            raise ValueError("price and carbon intensity must be >= 0")
        apps = {b.application for b in benchmarks}
        if len(apps) != 1:
            raise ChronusError(
                f"savings report covers one application at a time, got {sorted(apps)}"
            )
        default = max(benchmarks, key=lambda b: b.gflops)
        best = max(benchmarks, key=lambda b: b.gflops_per_watt)
        return cls(
            application=default.application,
            default_config=default.configuration,
            best_config=best.configuration,
            default_gflops=default.gflops,
            best_gflops=best.gflops,
            default_w=default.avg_system_w,
            best_w=best.avg_system_w,
            duty_cycle=duty_cycle,
            price_eur_per_mwh=price_eur_per_mwh,
            carbon_g_per_kwh=carbon_g_per_kwh,
        )

    def render(self) -> str:
        table = TextTable(
            ["Quantity", "Default", "Eco", "Delta"],
            title=f"Eco savings report — {self.application} "
            f"(duty cycle {self.duty_cycle:.0%})",
        )
        table.add_row(
            "Configuration",
            self.default_config.to_json(),
            self.best_config.to_json(),
            "",
        )
        table.add_row(
            "GFLOP/s", f"{self.default_gflops:.3f}", f"{self.best_gflops:.3f}",
            f"-{self.performance_cost_fraction * 100:.1f}%",
        )
        table.add_row(
            "System power (W)", f"{self.default_w:.1f}", f"{self.best_w:.1f}",
            f"-{(1 - self.best_w / self.default_w) * 100:.1f}%",
        )
        table.add_row(
            "Energy per GFLOP (J)",
            f"{self.energy_per_gflop_default_j:.2f}",
            f"{self.energy_per_gflop_best_j:.2f}",
            f"-{self.saving_fraction * 100:.1f}%",
        )
        lines = [table.render(), ""]
        lines.append(
            f"Projected per node and year (at {self.price_eur_per_mwh:.0f} EUR/MWh, "
            f"{self.carbon_g_per_kwh:.0f} gCO2/kWh):"
        )
        lines.append(f"  energy saved : {self.annual_kwh_saved:,.0f} kWh")
        lines.append(f"  cost saved   : {self.annual_eur_saved:,.0f} EUR")
        lines.append(f"  CO2 avoided  : {self.annual_kg_co2_saved:,.0f} kg")
        return "\n".join(lines)
