"""Unit tests for the discrete-event engine."""

import pytest

from repro.simkernel.engine import EventQueue, SimClock, SimulationError, Simulator


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.5).now == 5.5

    def test_cannot_move_backwards(self):
        clock = SimClock(10.0)
        with pytest.raises(SimulationError):
            clock._advance_to(9.0)

    def test_advance_forward(self):
        clock = SimClock()
        clock._advance_to(3.0)
        assert clock.now == 3.0


class TestEventQueue:
    def test_pop_in_time_order(self):
        q = EventQueue()
        order = []
        q.push(3.0, lambda: order.append("c"))
        q.push(1.0, lambda: order.append("a"))
        q.push(2.0, lambda: order.append("b"))
        while (ev := q.pop()) is not None:
            ev.callback()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        q = EventQueue()
        q.push(1.0, lambda: None, name="first")
        q.push(1.0, lambda: None, name="second")
        assert q.pop().name == "first"
        assert q.pop().name == "second"

    def test_cancelled_events_skipped(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None, name="cancelled")
        q.push(2.0, lambda: None, name="kept")
        ev.cancel()
        assert q.pop().name == "kept"

    def test_len_excludes_cancelled(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert len(q) == 2
        ev.cancel()
        assert len(q) == 1

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None)
        q.push(5.0, lambda: None)
        ev.cancel()
        assert q.peek_time() == 5.0

    def test_rejects_non_finite_time(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.push(float("inf"), lambda: None)
        with pytest.raises(SimulationError):
            q.push(float("nan"), lambda: None)


class TestSimulator:
    def test_run_executes_all(self):
        sim = Simulator()
        fired = []
        sim.call_at(1.0, lambda: fired.append(1))
        sim.call_at(2.0, lambda: fired.append(2))
        assert sim.run() == 2
        assert fired == [1, 2]
        assert sim.now == 2.0

    def test_call_in_relative(self):
        sim = Simulator()
        sim.call_at(5.0, lambda: sim.call_in(3.0, lambda: None))
        sim.run()
        assert sim.now == 8.0

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.call_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(4.0, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_in(-1.0, lambda: None)

    def test_run_until_horizon(self):
        sim = Simulator()
        fired = []
        sim.call_at(1.0, lambda: fired.append(1))
        sim.call_at(10.0, lambda: fired.append(10))
        executed = sim.run(until=5.0)
        assert executed == 1
        assert fired == [1]
        assert sim.now == 5.0  # clock advanced to the horizon
        sim.run()
        assert fired == [1, 10]

    def test_run_until_advances_clock_even_with_no_events(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        fired = []
        def chain(n: int):
            fired.append(n)
            if n < 3:
                sim.call_in(1.0, lambda: chain(n + 1))
        sim.call_at(0.0, lambda: chain(0))
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0

    def test_stop_halts_loop(self):
        sim = Simulator()
        fired = []
        sim.call_at(1.0, lambda: (fired.append(1), sim.stop()))
        sim.call_at(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]
        assert len(sim.events) == 1

    def test_max_events_limit(self):
        sim = Simulator()
        for i in range(10):
            sim.call_at(float(i), lambda: None)
        assert sim.run(max_events=4) == 4

    def test_not_reentrant(self):
        sim = Simulator()
        captured = {}
        def inner():
            try:
                sim.run()
            except SimulationError as exc:
                captured["err"] = exc
        sim.call_at(1.0, inner)
        sim.run()
        assert "err" in captured

    def test_processed_events_counter(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: None)
        sim.call_at(2.0, lambda: None)
        sim.run()
        assert sim.processed_events == 2

    def test_peek_next_time(self):
        sim = Simulator()
        assert sim.peek_next_time() is None
        sim.call_at(7.0, lambda: None)
        assert sim.peek_next_time() == 7.0


class TestLiveCountAndCompaction:
    def test_len_counts_only_live(self):
        q = EventQueue()
        events = [q.push(float(i), lambda: None) for i in range(10)]
        assert len(q) == 10
        for ev in events[:4]:
            ev.cancel()
        assert len(q) == 6
        assert q.cancelled_pending == 4

    def test_double_cancel_is_idempotent(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert len(q) == 1

    def test_cancel_after_pop_does_not_corrupt(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        popped = q.pop()
        assert popped is ev
        ev.cancel()  # late cancel of an already-fired event: no effect
        assert len(q) == 1
        assert q.pop() is not None
        assert q.pop() is None

    def test_compaction_triggers_past_half_cancelled(self):
        q = EventQueue()
        events = [q.push(float(i), lambda: None) for i in range(100)]
        for ev in events[:60]:
            ev.cancel()
        # >50% of a >=64-entry heap is tombstones: one compaction happened
        # (at the 51st cancel); the few cancels after it stay lazily
        # tombstoned because the compacted heap is below the 64-entry floor
        assert q.compactions >= 1
        assert q.cancelled_pending < 60
        assert len(q) == 40

    def test_small_heaps_never_compact(self):
        q = EventQueue()
        events = [q.push(float(i), lambda: None) for i in range(10)]
        for ev in events:
            ev.cancel()
        assert q.compactions == 0

    def test_compaction_preserves_order_and_survivors(self):
        q = EventQueue()
        order = []
        events = []
        for i in range(128):
            events.append(q.push(float(i), lambda i=i: order.append(i)))
        for ev in events[::2]:  # cancel every even event...
            ev.cancel()
        events[1].cancel()  # ...plus one more, so tombstones exceed live
        assert q.compactions >= 1
        sim = Simulator()
        sim.events = q
        sim.run()
        assert order == list(range(3, 128, 2))

    def test_explicit_compact_noop_when_clean(self):
        q = EventQueue()
        q.push(1.0, lambda: None)
        q.compact()
        assert q.compactions == 0


class TestDaemonEvents:
    """call_every tickers are daemons: they never keep a run alive."""

    def test_call_every_fires_on_interval(self):
        sim = Simulator()
        ticks = []
        sim.call_every(1.0, lambda: ticks.append(sim.now))
        sim.call_at(3.5, lambda: None)  # foreground work defines the horizon
        sim.run()
        assert ticks == [1.0, 2.0, 3.0]

    def test_unbounded_run_stops_when_only_daemons_remain(self):
        sim = Simulator()
        sim.call_every(1.0, lambda: None)
        sim.run()  # must terminate: no foreground events at all
        assert sim.now == 0.0

    def test_daemons_fire_during_bounded_run(self):
        sim = Simulator()
        ticks = []
        sim.call_every(2.0, lambda: ticks.append(sim.now))
        sim.run(until=7.0)
        assert ticks == [2.0, 4.0, 6.0]
        assert sim.now == 7.0

    def test_repeating_event_cancel(self):
        sim = Simulator()
        ticks = []
        ticker = sim.call_every(1.0, lambda: ticks.append(sim.now))
        sim.call_at(1.5, ticker.cancel)
        sim.call_at(5.0, lambda: None)
        sim.run()
        assert ticks == [1.0]
        assert ticker.fired == 1

    def test_live_foreground_excludes_daemons(self):
        q = EventQueue()
        q.push(1.0, lambda: None, daemon=True)
        q.push(2.0, lambda: None)
        assert len(q) == 2
        assert q.live_foreground == 1

    def test_daemon_keeps_ticking_between_sparse_foreground(self):
        sim = Simulator()
        ticks = []
        sim.call_every(1.0, lambda: ticks.append(sim.now))
        sim.call_at(10.5, lambda: None)
        sim.run()
        assert len(ticks) == 10

    def test_nonpositive_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_every(0.0, lambda: None)
