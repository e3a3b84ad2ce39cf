"""Core discrete-event engine: clock, events and the simulator loop.

The engine follows the classic calendar-queue structure: callers schedule
callbacks at absolute or relative simulated times; :meth:`Simulator.run`
pops events in timestamp order (ties broken by insertion order, so the
simulation is deterministic) and advances the clock to each event's time.

Simulated time is a float number of seconds since simulation start.  Nothing
in the engine sleeps on the wall clock; a 20-minute HPCG run elapses in the
microseconds it takes to drain its events.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import telemetry

__all__ = [
    "SimClock",
    "Event",
    "EventQueue",
    "RepeatingEvent",
    "Simulator",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (e.g. scheduling in the past)."""


class SimClock:
    """Monotonic simulated clock.

    The clock only ever moves forward; it is advanced exclusively by the
    :class:`Simulator` event loop.  Components hold a reference to the clock
    and read :attr:`now` when they need a timestamp.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def _advance_to(self, t: float) -> None:
        if t < self._now:
            raise SimulationError(
                f"clock cannot move backwards: {t} < {self._now}"
            )
        self._now = t

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimClock(now={self._now:.3f})"


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Events order by ``(time, seq)``.  ``seq`` is a global insertion counter so
    two events at the same timestamp fire in the order they were scheduled,
    which keeps multi-component simulations deterministic.
    """

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    name: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)
    #: daemon events (heartbeats, lease monitors) keep firing while real
    #: work exists but never keep the simulation alive on their own — like
    #: daemon threads, ``run()`` with no horizon stops once only daemons
    #: remain, so an HA pair's heartbeat loop cannot wedge run_until_idle
    daemon: bool = field(default=False, compare=False)
    #: weak reference to the owning queue while the event is still heaped;
    #: lets ``cancel`` keep the queue's live/cancelled counts exact without
    #: a heap scan, and being weak forms no cycle with the queue's heap
    queue: "Optional[weakref.ref[EventQueue]]" = field(
        default=None, compare=False, repr=False
    )

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        queue = self.queue() if self.queue is not None else None
        if queue is not None:
            queue._note_cancel(self)


#: below this heap size compaction is never worth the rebuild
_COMPACT_MIN_HEAP = 64


class EventQueue:
    """Binary-heap event queue with lazy cancellation.

    ``__len__`` is O(1): a live counter is maintained on push/pop/cancel
    instead of scanning the heap.  When more than half of the heaped
    entries are cancelled tombstones the heap is compacted in one O(n)
    rebuild, bounding both memory and the log-factor every subsequent
    push/pop pays for dead weight.
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()
        self._live = 0  # non-cancelled events still heaped
        self._live_daemon = 0  # non-cancelled daemon events still heaped
        self._cancelled = 0  # cancelled tombstones still heaped
        self.compactions = 0
        self._ref = weakref.ref(self)  # what each heaped event points back with

    def __len__(self) -> int:
        return self._live

    @property
    def live_foreground(self) -> int:
        """Live non-daemon events — the count that keeps ``run()`` going."""
        return self._live - self._live_daemon

    @property
    def cancelled_pending(self) -> int:
        """Cancelled tombstones still occupying heap slots (diagnostics)."""
        return self._cancelled

    def _note_cancel(self, ev: "Event") -> None:
        self._live -= 1
        if ev.daemon:
            self._live_daemon -= 1
        self._cancelled += 1
        if (
            self._cancelled > self._live
            and len(self._heap) >= _COMPACT_MIN_HEAP
        ):
            self.compact()

    def compact(self) -> None:
        """Drop cancelled tombstones and re-heapify the survivors."""
        if not self._cancelled:
            return
        for ev in self._heap:
            if ev.cancelled:
                ev.queue = None
        self._heap = [ev for ev in self._heap if not ev.cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0
        self.compactions += 1
        telemetry.counter("sim_event_compactions_total").inc()

    def push(
        self,
        time: float,
        callback: Callable[[], None],
        name: str = "",
        daemon: bool = False,
    ) -> Event:
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite, got {time!r}")
        ev = Event(
            time=time, seq=next(self._counter), callback=callback, name=name,
            daemon=daemon, queue=self._ref,
        )
        heapq.heappush(self._heap, ev)
        self._live += 1
        if daemon:
            self._live_daemon += 1
        return ev

    def pop(self) -> Optional[Event]:
        """Pop the earliest non-cancelled event, or None if empty."""
        while self._heap:
            ev = heapq.heappop(self._heap)
            ev.queue = None
            if not ev.cancelled:
                self._live -= 1
                if ev.daemon:
                    self._live_daemon -= 1
                return ev
            self._cancelled -= 1
        return None

    def peek_time(self) -> Optional[float]:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap).queue = None
            self._cancelled -= 1
        return self._heap[0].time if self._heap else None


class RepeatingEvent:
    """A self-rescheduling periodic callback (see :meth:`Simulator.call_every`).

    Each firing schedules the next occurrence ``interval`` seconds later
    until :meth:`cancel` is called.  By default occurrences are daemon
    events, so a heartbeat loop never keeps an otherwise-idle simulation
    alive.
    """

    __slots__ = ("_sim", "interval", "callback", "name", "daemon", "_event", "fired")

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        callback: Callable[[], None],
        name: str = "",
        daemon: bool = True,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"repeat interval must be positive: {interval}")
        # both weak: the simulator's heap holds the pending occurrence,
        # whose callback holds this object; only a running simulator fires it
        self._sim = weakref.ref(sim)
        self.interval = float(interval)
        self.callback = callback
        self.name = name
        self.daemon = daemon
        self.fired = 0
        self._event: "Optional[weakref.ref[Event]]" = None
        self._schedule(sim)

    def _schedule(self, sim: "Simulator") -> None:
        self._event = weakref.ref(
            sim.events.push(
                sim.now + self.interval, self._fire, self.name, daemon=self.daemon
            )
        )

    @property
    def cancelled(self) -> bool:
        return self._event is None

    def _fire(self) -> None:
        if self._event is None:
            return
        # reschedule first: the callback may cancel() us or raise
        self._schedule(self._sim())
        self.fired += 1
        self.callback()

    def cancel(self) -> None:
        """Stop the cycle; the pending occurrence is tombstoned."""
        if self._event is not None:
            pending = self._event()
            if pending is not None:
                pending.cancel()
            self._event = None


class Simulator:
    """The event loop tying a clock and an event queue together.

    Typical use::

        sim = Simulator()
        sim.call_at(10.0, lambda: print("t=10"))
        sim.call_in(5.0, lambda: print("t=5"))
        sim.run()            # drains all events
        sim.now              # -> 10.0

    ``run(until=...)`` executes events up to and including ``until`` and then
    advances the clock to ``until`` even if the queue empties earlier, which
    is what fixed-horizon experiment drivers want.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.clock = SimClock(start)
        self.events = EventQueue()
        self._running = False
        self._stopped = False
        self._event_count = 0

    # ------------------------------------------------------------------
    # scheduling API
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (for tests and diagnostics)."""
        return self._event_count

    def call_at(self, time: float, callback: Callable[[], None], name: str = "") -> Event:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} before now={self.now}"
            )
        return self.events.push(time, callback, name)

    def call_in(self, delay: float, callback: Callable[[], None], name: str = "") -> Event:
        """Schedule ``callback`` ``delay`` seconds from now (delay >= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.events.push(self.now + delay, callback, name)

    def call_every(
        self,
        interval: float,
        callback: Callable[[], None],
        name: str = "",
        daemon: bool = True,
    ) -> RepeatingEvent:
        """Schedule ``callback`` every ``interval`` seconds, starting one
        interval from now.

        Daemon by default: periodic housekeeping (HA heartbeats, lease
        monitors) runs while foreground work exists but does not keep
        ``run()`` spinning forever once the real event queue drains.
        """
        return RepeatingEvent(self, interval, callback, name, daemon=daemon)

    def stop(self) -> None:
        """Request the currently-running loop to stop after this event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Drain events; returns the number of events executed.

        Args:
            until: inclusive horizon.  Events scheduled later stay queued.
                The clock is left at ``max(now, until)`` when given.
            max_events: safety valve for runaway simulations.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        # handles fetched once per run(): the per-event cost of telemetry is
        # one perf_counter pair + one observe (a no-op when disabled)
        lag_hist = telemetry.histogram("sim_event_lag_seconds")
        run_started = time.perf_counter()
        try:
            while not self._stopped:
                if max_events is not None and executed >= max_events:
                    break
                if until is None and self.events.live_foreground == 0:
                    # only daemon events (heartbeats etc.) remain: an
                    # unbounded run is done, like a process whose last
                    # non-daemon thread exited
                    break
                t = self.events.peek_time()
                if t is None:
                    break
                if until is not None and t > until:
                    break
                ev = self.events.pop()
                assert ev is not None
                self.clock._advance_to(ev.time)
                cb_started = time.perf_counter()
                ev.callback()
                lag_hist.observe(time.perf_counter() - cb_started)
                executed += 1
                self._event_count += 1
            if until is not None and until > self.now and not self._stopped:
                self.clock._advance_to(until)
        finally:
            self._running = False
            if executed:
                telemetry.counter("sim_events_total").inc(executed)
                telemetry.histogram("sim_run_seconds").observe(
                    time.perf_counter() - run_started
                )
        return executed

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run until the event queue is empty."""
        return self.run(max_events=max_events)

    def peek_next_time(self) -> Optional[float]:
        return self.events.peek_time()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self.now:.3f}, pending={len(self.events)})"
