"""Tests for repro.resilience: RetryPolicy, Deadline, CircuitBreaker."""

import random
from unittest import mock

import pytest

from repro import telemetry
from repro.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceededError,
    RetryPolicy,
)


@pytest.fixture(autouse=True)
def _fresh_registry():
    telemetry.set_registry(telemetry.MetricsRegistry())
    yield
    telemetry.set_registry(telemetry.MetricsRegistry())


class TestRetryPolicy:
    def test_success_first_try_calls_once(self):
        calls = []
        policy = RetryPolicy(max_attempts=3)
        result = policy.call(lambda: calls.append(1) or "ok", op="t")
        assert result == "ok"
        assert len(calls) == 1

    def test_retries_then_succeeds(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            return "done"

        policy = RetryPolicy(max_attempts=3)
        assert policy.call(flaky, op="t") == "done"
        assert len(attempts) == 3

    def test_exhaustion_reraises_last_error(self):
        policy = RetryPolicy(max_attempts=2)
        with pytest.raises(OSError, match="always"):
            policy.call(lambda: (_ for _ in ()).throw(OSError("always")), op="t")

    def test_permanent_errors_never_retried(self):
        attempts = []

        def denied():
            attempts.append(1)
            raise PermissionError("no")

        policy = RetryPolicy(max_attempts=5)
        with pytest.raises(PermissionError):
            policy.call(
                denied, op="t", retry_on=(OSError,), permanent=(PermissionError,)
            )
        assert len(attempts) == 1

    def test_should_retry_predicate(self):
        attempts = []

        def fatal():
            attempts.append(1)
            raise OSError("disk on fire")

        policy = RetryPolicy(max_attempts=5)
        with pytest.raises(OSError):
            policy.call(
                fatal, op="t", should_retry=lambda exc: "transient" in str(exc)
            )
        assert len(attempts) == 1

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=0.1, max_delay_s=0.3,
            multiplier=2.0, jitter=0.0,
        )
        assert policy.delays() == pytest.approx([0.1, 0.2, 0.3, 0.3])

    def test_jitter_is_deterministic_per_seed(self):
        a = RetryPolicy(max_attempts=4, jitter=0.5, seed=42)
        b = RetryPolicy(max_attempts=4, jitter=0.5, seed=42)
        c = RetryPolicy(max_attempts=4, jitter=0.5, seed=43)
        assert a.delays() == b.delays()
        assert a.delays() != c.delays()

    def test_call_sleeps_the_published_schedule(self):
        policy = RetryPolicy(max_attempts=3, jitter=0.5, seed=7)
        slept = []

        def always_fails():
            raise OSError("x")

        with pytest.raises(OSError):
            policy.call(always_fails, op="t", sleep=slept.append)
        assert slept == policy.delays()

    def test_jitter_rng_built_at_the_first_retry_only(self):
        policy = RetryPolicy(max_attempts=3, seed=7)
        with mock.patch("repro.resilience.retry.random.Random", wraps=random.Random) as built:
            assert policy.call(lambda: "ok", op="t") == "ok"
            assert built.call_count == 0
            flaky = iter([OSError("x"), OSError("y")])
            slept = []

            def recovers():
                exc = next(flaky, None)
                if exc is not None:
                    raise exc
                return "late"

            assert policy.call(recovers, op="t", sleep=slept.append) == "late"
        assert built.call_args_list == [mock.call(7)]
        assert slept == policy.delays()

    def test_telemetry_counters(self):
        policy = RetryPolicy(max_attempts=2)
        with pytest.raises(OSError):
            policy.call(lambda: (_ for _ in ()).throw(OSError("x")), op="myop")
        snap = telemetry.snapshot()
        retry = telemetry.find_metric(
            snap, "counters", "retry_attempts_total", {"op": "myop"}
        )
        exhausted = telemetry.find_metric(
            snap, "counters", "retry_exhausted_total", {"op": "myop"}
        )
        assert retry["value"] == 1
        assert exhausted["value"] == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)


class TestDeadline:
    def test_within_budget_returns_result(self):
        clock = iter([0.0, 0.01, 0.02]).__next__
        deadline = Deadline(1.0, clock=clock)
        assert deadline.run(lambda: "fast", op="t") == "fast"

    def test_pre_call_check_raises_when_expired(self):
        now = [0.0]
        deadline = Deadline(0.5, clock=lambda: now[0])
        now[0] = 1.0
        with pytest.raises(DeadlineExceededError):
            deadline.run(lambda: "late", op="t")

    def test_too_late_result_discarded(self):
        now = [0.0]
        deadline = Deadline(0.5, clock=lambda: now[0])

        def slow():
            now[0] = 2.0  # the call itself blows the budget
            return "stale"

        with pytest.raises(DeadlineExceededError):
            deadline.run(slow, op="t")

    def test_remaining_and_expired(self):
        now = [0.0]
        deadline = Deadline(1.0, clock=lambda: now[0])
        assert deadline.remaining() == pytest.approx(1.0)
        assert not deadline.expired
        now[0] = 1.5
        assert deadline.remaining() == 0.0
        assert deadline.expired

    def test_counts_exceeded_per_op(self):
        now = [10.0]
        deadline = Deadline(0.1, clock=lambda: now[0])
        now[0] = 11.0
        with pytest.raises(DeadlineExceededError):
            deadline.check(op="predict")
        snap = telemetry.snapshot()
        entry = telemetry.find_metric(
            snap, "counters", "deadline_exceeded_total", {"op": "predict"}
        )
        assert entry["value"] == 1

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(0.0)


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def make(self, **kw):
        clock = _FakeClock()
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("recovery_timeout_s", 10.0)
        return CircuitBreaker("test", clock=clock, **kw), clock

    def test_starts_closed_and_allows(self):
        breaker, _ = self.make()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_opens_at_failure_threshold(self):
        breaker, _ = self.make()
        for _ in range(2):
            breaker.record_failure()
            assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()

    def test_success_resets_failure_count(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_after_recovery_timeout(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        clock.now = 11.0
        assert breaker.allow()  # the probe
        assert breaker.state == BREAKER_HALF_OPEN

    def test_half_open_limits_probes(self):
        breaker, clock = self.make(half_open_max_probes=1)
        for _ in range(3):
            breaker.record_failure()
        clock.now = 11.0
        assert breaker.allow()
        assert not breaker.allow()  # second concurrent probe refused

    def test_probe_success_closes(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.now = 11.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_and_restarts_timer(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.now = 11.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        clock.now = 20.0  # only 9s since reopen: still open
        assert not breaker.allow()
        clock.now = 21.5
        assert breaker.allow()

    def test_call_wraps_and_short_circuits(self):
        breaker, _ = self.make(failure_threshold=1)
        with pytest.raises(RuntimeError):
            breaker.call(lambda: (_ for _ in ()).throw(RuntimeError("down")))
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "never runs")

    def test_state_gauge_and_transition_counter(self):
        breaker, _ = self.make(failure_threshold=1)
        breaker.record_failure()
        snap = telemetry.snapshot()
        gauge = telemetry.find_metric(
            snap, "gauges", "breaker_state", {"name": "test"}
        )
        assert gauge["value"] == 2  # open
        trans = telemetry.find_metric(
            snap, "counters", "breaker_transitions_total",
            {"name": "test", "to": "open"},
        )
        assert trans["value"] == 1
