"""Slurm job-submit plugin framework and the eco plugin."""

from repro.slurm.plugins.base import (
    SLURM_SUCCESS,
    SLURM_ERROR,
    JobSubmitPlugin,
    PluginChain,
    PluginInvocation,
)
from repro.slurm.plugins.eco import JobSubmitEco

__all__ = [
    "SLURM_SUCCESS",
    "SLURM_ERROR",
    "JobSubmitPlugin",
    "PluginChain",
    "PluginInvocation",
    "JobSubmitEco",
]
