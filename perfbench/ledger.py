"""Per-layer self-time ledger for the traced benchmark run.

Spans are recorded from outside the program: :meth:`Ledger.wrap` replaces a
public method on an object the benchmark itself built with a timed wrapper,
so no file under ``src/`` changes and the untraced runs execute the shipped
code untouched.

A layer's *self time* is its span's duration minus the spans nested inside
it, so the self times of one traced round partition its wall time.  Spans
live on one stack shared by every thread: the workloads drive the system
with a single synchronous caller, so a daemon thread only ever works while
the caller is blocked on it (the predict RPC, the HTTP round trip) and
spans nest strictly in time.  A span that closes out of order means two
layers overlapped, which would break that partition; it is recorded in
:attr:`Ledger.errors` and fails the traced run.
"""

from __future__ import annotations

import contextlib
import math
import re
import threading
import time
from collections import defaultdict

__all__ = ["GENERATOR", "LAYERS", "Ledger", "percentile"]

#: layer names, shared with the in-program spans a later change adds
LAYERS = (
    "restd.http",
    "restd.gateway",
    "ctld.submit",
    "plugins.eco",
    "predict.wire",
    "predict.queue",
    "predict.batch",
    "statesave.append",
    "sched.backfill",
    "sched.pass",
    "ctld.complete",
    "node.workload",
    "engine.dispatch",
    "dbd.pump",
    "sweep.run",
    "model.fit",
)

#: layers that run before the timed phase; every other span counts only
#: while a timed phase is open
SETUP_LAYERS = ("sweep.run", "model.fit")

#: the generator's own work (request bodies, response parsing) in a round
GENERATOR = "bench.generator"

_JOB_DONE = re.compile(r"job\d+-done$")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _callback_layer(event_name: str) -> "str | None":
    """The layer an engine callback belongs to, by its event name."""
    if event_name.startswith("sched-pass"):
        return "sched.pass"
    if _JOB_DONE.match(event_name):
        return "ctld.complete"
    # any other callback (the dbd pump's timer) is an anonymous frame: its
    # own time is unattributed, the layers it calls are wrapped themselves
    return None


class Ledger:
    """Self-time spans, counters and the timed-phase wall of a traced round."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stack: list[list] = []  # open frames: [name, start, child_s]
        #: layer -> self time of every span it recorded (seconds)
        self.spans: "dict[str, list[float]]" = defaultdict(list)
        self.counters: "dict[str, float]" = defaultdict(float)
        self.errors: list[str] = []
        #: whether spans closing now fall inside a timed phase
        self.timed = False
        self.timed_wall_s = 0.0
        #: self time of named frames closed inside timed phases
        self.attributed_s = 0.0
        self._restore: list = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def begin(self, name: "str | None") -> list:
        frame = [name, time.perf_counter(), 0.0]
        with self._lock:
            self._stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        now = time.perf_counter()
        duration = now - frame[1]
        with self._lock:
            if not self._stack or self._stack[-1] is not frame:
                self.errors.append(f"span {frame[0]!r} closed out of order")
                if frame in self._stack:
                    self._stack.remove(frame)
                return
            self._stack.pop()
            if self._stack:
                self._stack[-1][2] += duration
            if frame[0] is not None and (self.timed or frame[0] in SETUP_LAYERS):
                own = duration - frame[2]
                self.spans[frame[0]].append(own)
                if self.timed:
                    self.attributed_s += own

    @contextlib.contextmanager
    def span(self, name: "str | None"):
        """Context manager recording one span."""
        frame = self.begin(name)
        try:
            yield
        finally:
            self.end(frame)

    def timed_call(self, fn, name: "str | None"):
        """``fn`` wrapped in a span named ``name``."""

        def timed(*args, **kwargs):
            frame = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(frame)

        return timed

    def wrap(self, obj, attr: str, name: str) -> None:
        """Time ``obj.attr`` (an instance's bound method) as layer ``name``."""
        setattr(obj, attr, self.timed_call(getattr(obj, attr), name))

    def trace_engine(self, sim) -> None:
        """Time ``Simulator.run`` and every event callback it dispatches.

        ``engine.dispatch`` is the run's wall minus all callback time: each
        callback gets its own frame, named by its layer or anonymous.
        """
        self.wrap(sim, "run", "engine.dispatch")
        push = sim.events.push

        def traced_push(when, callback, name="", daemon=False):
            callback = self.timed_call(callback, _callback_layer(name))
            return push(when, callback, name, daemon)

        sim.events.push = traced_push

    # ------------------------------------------------------------------
    # counts patched onto classes and modules (restored by close)
    # ------------------------------------------------------------------
    def count_calls(self, owner, attr: str, counter: str, *, seconds: bool = False):
        """Add one (or, with ``seconds``, its duration) per call of ``owner.attr``.

        For entry points that are not methods of an object the benchmark
        built (``JournalRecord.decode``, ``os.fsync``).  The attribute is
        restored by :meth:`close`.
        """
        original = vars(owner)[attr]
        fn = getattr(owner, attr)
        counters = self.counters

        def counted(*args, **kwargs):
            if not seconds:
                counters[counter] += 1
                return fn(*args, **kwargs)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counters[counter] += time.perf_counter() - started

        setattr(owner, attr, staticmethod(counted) if isinstance(owner, type) else counted)
        self._restore.append((owner, attr, original))

    def close(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------
    def layer_metrics(self) -> "dict[str, tuple[float, str]]":
        """``<layer>.count/.total_s/.p50_ms/.p99_ms`` for every layer."""
        out = {}
        for layer in LAYERS:
            own = self.spans.get(layer, [])
            out[f"{layer}.count"] = (float(len(own)), "count")
            out[f"{layer}.total_s"] = (sum(own, 0.0), "s")
            out[f"{layer}.p50_ms"] = (percentile(own, 0.50) * 1e3, "ms")
            out[f"{layer}.p99_ms"] = (percentile(own, 0.99) * 1e3, "ms")
        return out

    def generator_s(self) -> float:
        """The generator's own time inside timed phases."""
        return sum(self.spans.get(GENERATOR, ()), 0.0)

    def unattributed_s(self) -> float:
        """Timed wall not covered by a layer, the engine or the generator."""
        return self.timed_wall_s - self.attributed_s
