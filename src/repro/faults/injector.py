"""Deterministic fault injection for chaos testing.

A :class:`FaultInjector` holds a set of *rules*, one per fault **site** —
a named hook compiled into the production code (``ipmi.read``,
``predict.timeout``, ...).  Each rule fires with a probability drawn from
the injector's own seeded RNG, optionally capped at a total number of
firings, so a chaos run is exactly reproducible from ``(spec, seed)``.

The process holds one *active* injector; production hooks call the
module-level :func:`repro.faults.fire` which is a single attribute lookup
plus method call, and with no injector configured (the default
:class:`NullInjector`) the hook costs one no-op method call and consumes
no randomness — faults disabled means bit-identical behaviour.

Spec grammar (also accepted via ``CHRONUS_FAULTS``)::

    spec    := entry ("," entry)*
    entry   := SITE "=" PROB [":" LIMIT] | "seed" "=" INT | PROFILE
    example := "ipmi.read=0.2,predict.timeout=1:3,seed=42"

A bare profile name (see :mod:`repro.faults.profiles`) expands to its
spec string.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Mapping, Optional

from repro import telemetry

__all__ = ["FaultRule", "FaultInjector", "NullInjector", "parse_spec", "SITES"]


def _spec_error(message: str) -> Exception:
    # lazy: repro.faults is imported by repro.hardware.ipmi, which sits
    # below repro.core in the import graph — a module-level import of the
    # domain errors would be circular
    from repro.core.domain.errors import FaultSpecError

    return FaultSpecError(message)

#: every fault site the codebase exposes, with what firing it does
SITES: Mapping[str, str] = {
    "ipmi.read": "IPMI sensor read raises a transient IpmiReadError",
    "ipmi.nan": "IPMI power sensor returns NaN",
    "ipmi.spike": "IPMI power sensor returns a 100x spike",
    "predict.timeout": "chronus predict (slurm-config) raises PredictTimeoutError",
    "predict.garbage": "chronus predict answers a garbage line the response decoder refuses",
    "serve.shed": "prediction server admission control sheds the request (SHED)",
    "serve.slow": "prediction server stalls one batch past the plugin budget",
    "sqlite.busy": "repository write raises sqlite3.OperationalError (locked)",
    "sweep.crash": "sweep worker raises mid-point (simulated crash)",
    "ctld.crash": "slurmctld dies right after a durable journal append (ack lost)",
    "journal.torn_write": "slurmctld dies mid-append, tearing the journal tail",
    "peer.partition": "an HA peer misses one heartbeat (cut off from state-save)",
    "dep.release_crash": "slurmctld dies right after journaling a dependency release",
    "reschedule.storm": "slurmctld dies mid-requeue, right after the reschedule record",
    "restd.slowloris": "a restd client stalls mid-request (read timed out, 408)",
    "restd.bad_auth": "restd token verification fails closed (401 on a valid token)",
}


@dataclass
class FaultRule:
    """One site's firing behaviour."""

    site: str
    probability: float
    limit: Optional[int] = None
    fired: int = 0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise _spec_error(
                f"unknown fault site {self.site!r}; known: {sorted(SITES)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise _spec_error(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.limit is not None and self.limit < 1:
            raise _spec_error(f"fault limit must be >= 1, got {self.limit}")


def parse_spec(spec: str) -> "tuple[list[FaultRule], int]":
    """Parse a spec string into ``(rules, seed)``.

    Profile names are resolved through :mod:`repro.faults.profiles`
    (imported lazily to avoid a cycle).
    """
    from repro.faults.profiles import PROFILES

    rules: list[FaultRule] = []
    seed = 0
    for raw_entry in spec.split(","):
        entry = raw_entry.strip()
        if not entry:
            continue
        if entry in PROFILES:
            profile_rules, _ = parse_spec(PROFILES[entry])
            rules.extend(profile_rules)
            continue
        if "=" not in entry:
            raise _spec_error(
                f"cannot parse fault entry {entry!r}: expected SITE=PROB[:LIMIT], "
                f"seed=INT, or a profile name from {sorted(PROFILES)}"
            )
        key, _, value = entry.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "seed":
            try:
                seed = int(value)
            except ValueError:
                raise _spec_error(f"seed must be an integer, got {value!r}") from None
            continue
        limit: Optional[int] = None
        prob_part, _, limit_part = value.partition(":")
        if limit_part:
            try:
                limit = int(limit_part)
            except ValueError:
                raise _spec_error(
                    f"fault limit must be an integer, got {limit_part!r}"
                ) from None
        try:
            probability = float(prob_part)
        except ValueError:
            raise _spec_error(
                f"fault probability must be a number, got {prob_part!r}"
            ) from None
        rules.append(FaultRule(site=key, probability=probability, limit=limit))
    return rules, seed


class FaultInjector:
    """Active injector: seeded, thread-safe, telemetry-emitting."""

    enabled = True

    def __init__(self, rules: "list[FaultRule]", seed: int = 0) -> None:
        self._rules = {rule.site: rule for rule in rules}
        self.seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    @classmethod
    def from_spec(cls, spec: str) -> "FaultInjector":
        rules, seed = parse_spec(spec)
        return cls(rules, seed=seed)

    # ------------------------------------------------------------------
    def fire(self, site: str) -> bool:
        """Whether the fault at ``site`` fires now.

        Draws from the injector RNG only when a rule exists for the site;
        a site with no rule is always quiet and consumes no randomness.
        """
        rule = self._rules.get(site)
        if rule is None:
            return False
        with self._lock:
            if rule.limit is not None and rule.fired >= rule.limit:
                return False
            if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                return False
            rule.fired += 1
        telemetry.counter("faults_injected_total", {"site": site}).inc()
        return True

    def spec(self) -> str:
        """Round-trippable spec string for this injector."""
        parts = []
        for rule in self._rules.values():
            entry = f"{rule.site}={rule.probability:g}"
            if rule.limit is not None:
                entry += f":{rule.limit}"
            parts.append(entry)
        parts.append(f"seed={self.seed}")
        return ",".join(parts)

    def fired_counts(self) -> dict[str, int]:
        with self._lock:
            return {r.site: r.fired for r in self._rules.values() if r.fired}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultInjector({self.spec()!r})"


class NullInjector:
    """No faults configured: every hook is a cheap constant ``False``."""

    enabled = False
    seed = 0

    def fire(self, site: str) -> bool:
        return False

    def spec(self) -> str:
        return ""

    def fired_counts(self) -> dict[str, int]:
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "NullInjector()"
