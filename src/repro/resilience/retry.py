"""Bounded retries with exponential backoff and seeded jitter.

The jitter RNG is seeded per :meth:`RetryPolicy.call`, so a given policy
produces the same delay sequence every time — chaos tests that assert on
retry behaviour are reproducible, and the project's no-global-RNG rule
holds (nothing here touches ``random``'s module state).  It is built at a
call's first retry, so the calls that succeed at once (nearly all of them:
every IPMI sample goes through here) seed nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type

from repro import telemetry

__all__ = ["RetryPolicy"]

ExcTypes = Tuple[Type[BaseException], ...]


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to try an operation and how long to pause between.

    Attempt ``k`` (1-based) failing transiently pauses for
    ``min(base_delay_s * multiplier**(k-1), max_delay_s) * (1 + jitter*u)``
    with ``u`` drawn from a :class:`random.Random` seeded with ``seed`` —
    deterministic, but still decorrelated across attempts.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.005
    max_delay_s: float = 0.5
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays cannot be negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    # ------------------------------------------------------------------
    def delays(self) -> list[float]:
        """The full jittered pause schedule (len == max_attempts - 1)."""
        rng = random.Random(self.seed)
        out = []
        for attempt in range(self.max_attempts - 1):
            base = min(self.base_delay_s * self.multiplier**attempt, self.max_delay_s)
            out.append(base * (1.0 + self.jitter * rng.random()))
        return out

    def call(
        self,
        fn: Callable[[], object],
        *,
        op: str,
        retry_on: ExcTypes = (Exception,),
        permanent: ExcTypes = (),
        should_retry: Optional[Callable[[BaseException], bool]] = None,
        sleep: Optional[Callable[[float], None]] = None,
        on_retry: Optional[Callable[[BaseException, int], None]] = None,
    ):
        """Run ``fn`` with retries.

        Args:
            op: label for the ``retry_attempts_total`` counter.
            retry_on: exception types considered transient.
            permanent: exception types re-raised immediately even if they
                also match ``retry_on`` (checked first).
            should_retry: optional refinement — called with the exception;
                returning False re-raises immediately (e.g. only *locked*
                ``sqlite3.OperationalError``s are transient).
            sleep: pause callable; ``None`` retries immediately (the
                simulated BMC has no real recovery time to wait out).
            on_retry: observer called with ``(exc, attempt)`` before each
                retry — attempt is the 1-based attempt that just failed.
        """
        rng = None
        attempts = telemetry.counter("retry_attempts_total", {"op": op})
        delay = self.base_delay_s
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except permanent:
                raise
            except retry_on as exc:
                if should_retry is not None and not should_retry(exc):
                    raise
                if attempt >= self.max_attempts:
                    telemetry.counter(
                        "retry_exhausted_total", {"op": op}
                    ).inc()
                    raise
                attempts.inc()
                if on_retry is not None:
                    on_retry(exc, attempt)
                if rng is None:
                    rng = random.Random(self.seed)
                pause = min(delay, self.max_delay_s) * (1.0 + self.jitter * rng.random())
                if sleep is not None:
                    sleep(pause)
                delay *= self.multiplier
        raise AssertionError("unreachable")  # pragma: no cover
