"""``repro.faults`` — scriptable fault injection for chaos testing.

Nothing in the repo could *prove* degradation is graceful; this package
makes failure a first-class, reproducible input.  Production code is
compiled with cheap hooks (``faults.fire("ipmi.read")``) that are inert
no-ops until an injector is configured — via the ``CHRONUS_FAULTS``
environment variable (read at import, so sweep worker processes inherit
the same weather), the ``chronus faults`` CLI, or :func:`configure` in
tests.

See :mod:`repro.faults.injector` for the spec grammar and the list of
fault sites, :mod:`repro.faults.profiles` for named profiles, and
:mod:`repro.faults.scenarios` for the runnable chaos scenarios the
``chaos`` gate of ``scripts/gate.py`` runs.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.faults.injector import (
    SITES,
    FaultInjector,
    FaultRule,
    NullInjector,
    parse_spec,
)
from repro.faults.profiles import PROFILE_DESCRIPTIONS, PROFILES

__all__ = [
    "FaultInjector",
    "FaultRule",
    "NullInjector",
    "parse_spec",
    "SITES",
    "PROFILES",
    "PROFILE_DESCRIPTIONS",
    "configure",
    "active",
    "fire",
    "enabled",
    "reset",
]

ENV_VAR = "CHRONUS_FAULTS"

_injector: "FaultInjector | NullInjector" = NullInjector()


def configure(spec: Optional[str], *, seed: Optional[int] = None) -> None:
    """Install the active injector from a spec/profile string.

    ``None`` or an empty string disables injection.  ``seed`` overrides
    any ``seed=`` entry in the spec.
    """
    global _injector
    if not spec or not spec.strip():
        _injector = NullInjector()
        return
    rules, spec_seed = parse_spec(spec)
    if not rules:
        _injector = NullInjector()
        return
    _injector = FaultInjector(rules, seed=seed if seed is not None else spec_seed)


def active() -> "FaultInjector | NullInjector":
    return _injector


def enabled() -> bool:
    return _injector.enabled


def fire(site: str) -> bool:
    """The production hook: does the fault at ``site`` fire now?"""
    return _injector.fire(site)


def reset() -> None:
    """Disable injection (tests)."""
    global _injector
    _injector = NullInjector()


# sweep workers are separate processes: they re-read the env at import, so
# an exported CHRONUS_FAULTS applies the same weather across the pool
configure(os.environ.get(ENV_VAR))
