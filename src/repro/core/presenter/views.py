"""CLI presentation helpers.

The paper's Figures 8/9 show the CLI listing available systems and models
when the user omits ``--system``/``--model``; these renderers produce
those listings.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.tables import TextTable
from repro.core.domain.benchmark import BenchmarkResult
from repro.core.domain.model import ModelMetadata
from repro.core.domain.system_info import SystemInfo

__all__ = [
    "render_systems_table",
    "render_models_table",
    "render_benchmark_row",
    "TelemetryView",
]


def render_systems_table(systems: Sequence[tuple[int, SystemInfo]]) -> str:
    """The "Available Systems" listing (paper Figure 8)."""
    table = TextTable(
        ["Id", "CPU", "Cores", "Threads/core", "Frequencies (kHz)"],
        title="Available Systems",
    )
    for sid, info in systems:
        table.add_row(
            sid,
            info.cpu_name,
            info.cores,
            info.threads_per_core,
            " ".join(str(int(f)) for f in info.frequencies),
        )
    if not systems:
        return "Available Systems\n(none — run `chronus benchmark` first)"
    return table.render() + "\n\nSpecify the system id with --system <id>"


def render_models_table(models: Sequence[ModelMetadata]) -> str:
    """The "Available Models" listing (paper Figure 9) + registry columns."""
    table = TextTable(
        ["Id", "Ver", "Stage", "Type", "System", "Application", "Points",
         "Parent", "Digest", "Blob path"],
        title="Available Models",
    )
    for m in models:
        table.add_row(
            m.model_id, m.version, m.stage, m.model_type, m.system_id,
            m.application, m.training_points,
            "-" if m.parent_id is None else m.parent_id,
            m.short_digest(), m.blob_path,
        )
    if not models:
        return "Available Models\n(none — run `chronus init-model` first)"
    return table.render() + "\n\nSpecify the model id with --model <id>"


class TelemetryView:
    """One-screen human summary of a telemetry snapshot.

    Input is the plain snapshot dict (live registry or reloaded from
    ``telemetry.json``); examples and benchmarks print ``render()`` so a
    run ends with its counters, gauges and latency quantiles visible.
    """

    def __init__(self, snapshot: dict) -> None:
        self.snapshot = snapshot

    @staticmethod
    def _label_suffix(labels: dict) -> str:
        if not labels:
            return ""
        inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        return "{" + inner + "}"

    def render(self) -> str:
        sections: list[str] = ["Telemetry snapshot"]
        counters = sorted(
            self.snapshot.get("counters", []), key=lambda c: c["name"]
        )
        gauges = sorted(self.snapshot.get("gauges", []), key=lambda g: g["name"])
        if counters or gauges:
            table = TextTable(["Metric", "Kind", "Value"])
            for c in counters:
                table.add_row(
                    c["name"] + self._label_suffix(c.get("labels", {})),
                    "counter",
                    c["value"],
                )
            for g in gauges:
                table.add_row(
                    g["name"] + self._label_suffix(g.get("labels", {})),
                    "gauge",
                    g["value"],
                )
            sections.append(table.render())
        histograms = sorted(
            self.snapshot.get("histograms", []), key=lambda h: h["name"]
        )
        if histograms:
            table = TextTable(
                ["Histogram", "Count", "Mean", "p50", "p95", "p99", "Max"]
            )
            for h in histograms:
                table.add_row(
                    h["name"] + self._label_suffix(h.get("labels", {})),
                    h["count"], h["mean"], h["p50"], h["p95"], h["p99"], h["max"],
                )
            sections.append(table.render())
        if len(sections) == 1:
            sections.append("(no metrics recorded)")
        return "\n\n".join(sections)

    def __str__(self) -> str:
        return self.render()


def render_benchmark_row(result: BenchmarkResult) -> str:
    """One-line progress report per finished configuration."""
    cfg = result.configuration
    return (
        f"cores={cfg.cores:>2} tpc={cfg.threads_per_core} "
        f"freq={cfg.frequency:>7} kHz | {result.gflops:7.4f} GFLOP/s | "
        f"{result.avg_system_w:6.1f} W | {result.gflops_per_watt:.5f} GFLOPS/W"
    )
