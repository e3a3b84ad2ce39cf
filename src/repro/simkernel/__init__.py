"""Discrete-event simulation kernel.

Every time-dependent substrate in this reproduction (the Slurm controller,
the simulated node's DVFS/thermal state, the BMC sampling loop, Chronus'
benchmark polling) is driven by one shared :class:`~repro.simkernel.engine.Simulator`
instance.  The kernel is deliberately minimal: a monotonic simulated clock, a
stable priority queue of timestamped events, periodic event helpers and named
random-number streams so experiments are reproducible bit-for-bit.
"""

from repro.simkernel.engine import Event, EventQueue, SimClock, Simulator
from repro.simkernel.random import RandomStreams

__all__ = [
    "Event",
    "EventQueue",
    "SimClock",
    "Simulator",
    "RandomStreams",
]
