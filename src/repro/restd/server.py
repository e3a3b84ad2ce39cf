"""The REST daemon: TCP accept loop + simulated-clock pump.

:class:`RestdServer` is a thin transport shell — everything semantic
lives in :class:`~repro.restd.gateway.RestGateway`.  Per connection it
loops HTTP/1.1 requests (keep-alive) through the gateway, honours the
``restd.slowloris`` fault site (an injected stalled read, answered 408
like a real one), and renders parse failures as the standard error
envelope before hanging up.

:class:`SimPump` solves the clock problem: the cluster is a
discrete-event simulation, but REST clients are real processes polling
over real sockets.  The pump advances the simulation in small steps on a
background thread, taking the gateway lock for each step so handlers
never observe a half-stepped controller.  ``pause()`` / ``resume()``
freeze the simulated world — the smoke test pauses, SIGKILLs the leader,
and can then deterministically observe 503 + ``Retry-After`` before the
backup's lease-expiry takeover is allowed to happen.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Any, Callable, Optional

from repro import faults, telemetry
from repro.restd.gateway import RestGateway
from repro.restd.http import HttpConnection, HttpError, render_response
from repro.serving.transport import SocketDaemon

__all__ = ["RestdServer", "SimPump"]

#: statuses whose envelope is marked retryable when rendered at the
#: transport layer (the gateway marks its own)
_TRANSIENT_STATUSES = (408, 429, 503, 504)


class RestdServer(SocketDaemon):
    """HTTP/1.1 daemon on a TCP socket, one thread per connection."""

    thread_name = "chronus-restd-accept"

    def __init__(
        self,
        gateway: RestGateway,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        read_timeout_s: float = 5.0,
        log: Optional[Callable[[str], None]] = None,
        max_requests: Optional[int] = None,
    ) -> None:
        super().__init__(log=log, max_requests=max_requests)
        self.gateway = gateway
        self.host = host
        self.port = port
        self.read_timeout_s = read_timeout_s

    # ------------------------------------------------------------------
    def _bind(self) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen(64)
        sock.settimeout(0.2)  # so the accept loop can notice stop
        self.port = sock.getsockname()[1]
        return sock

    @property
    def address(self) -> "tuple[str, int]":
        """Bound ``(host, port)`` — valid once :meth:`start` returns."""
        return (self.host, self.port)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _listening_message(self) -> str:
        return f"restd: listening on {self.url}"

    # ------------------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        telemetry.counter("restd_connections_total").inc()
        try:
            with conn:
                conn.settimeout(self.read_timeout_s)
                reader = HttpConnection(conn)
                while True:
                    try:
                        if faults.fire("restd.slowloris"):
                            # injected stalled read: same observable
                            # outcome as a real slow client
                            telemetry.counter("restd_slowloris_total").inc()
                            raise HttpError(
                                408,
                                "TIMEOUT",
                                "client stalled mid-request (injected slowloris)",
                            )
                        request = reader.read_request()
                    except HttpError as exc:
                        # the stream is poisoned (or timed out): answer
                        # the envelope and hang up
                        conn.sendall(self._render_http_error(exc))
                        return
                    if request is None:
                        return  # clean EOF between requests
                    with self._answering(self.gateway.handle, request) as response:
                        keep = request.keep_alive and not self._should_stop()
                        conn.sendall(
                            render_response(
                                response.status,
                                response.encoded_body(),
                                content_type=response.content_type,
                                extra_headers=response.headers,
                                keep_alive=keep,
                            )
                        )
                    if not keep:
                        return
        except (OSError, ValueError):
            # a client hanging up mid-request is its problem
            telemetry.counter("restd_connection_errors_total").inc()

    def _render_http_error(self, exc: HttpError) -> bytes:
        envelope = {
            "error": exc.code,
            "message": exc.message,
            "retryable": exc.status in _TRANSIENT_STATUSES,
        }
        headers = {}
        if exc.status in _TRANSIENT_STATUSES:
            headers["Retry-After"] = f"{self.gateway.retry_after_s:g}"
        return render_response(
            exc.status,
            json.dumps(envelope).encode("utf-8"),
            extra_headers=headers,
            keep_alive=False,
        )


class SimPump:
    """Advances a discrete-event simulation for real-time clients.

    Each tick takes ``lock`` (the gateway's) and runs the simulation
    forward by ``step_s`` simulated seconds, so REST handlers and the
    event loop never interleave mid-step.  Between ticks it sleeps
    ``interval_s`` wall seconds — the wall:sim ratio is a free choice,
    tests crank it.
    """

    def __init__(
        self,
        sim: Any,
        lock: "threading.RLock | threading.Lock",
        *,
        step_s: float = 1.0,
        interval_s: float = 0.01,
        on_step: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.sim = sim
        self.lock = lock
        self.step_s = step_s
        self.interval_s = interval_s
        #: called with the new sim time after each step, still under the
        #: lock — smoke tests hang lease heartbeats and dbd pumps here
        self.on_step = on_step
        self._thread: "threading.Thread | None" = None
        self._stopping = threading.Event()
        self._running = threading.Event()  # cleared = paused
        self._running.set()
        self.steps = 0

    # ------------------------------------------------------------------
    def start(self) -> "SimPump":
        self._thread = threading.Thread(
            target=self._run, name="chronus-sim-pump", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        self._running.set()  # a paused pump must still notice stop
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def pause(self) -> None:
        """Freeze simulated time (takeovers, completions, leases)."""
        self._running.clear()

    def resume(self) -> None:
        self._running.set()

    @property
    def paused(self) -> bool:
        return not self._running.is_set()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stopping.is_set():
            if not self._running.wait(timeout=0.05):
                continue
            if self._stopping.is_set():
                return
            with self.lock:
                target = self.sim.now + self.step_s
                self.sim.run(until=target)
                self.steps += 1
                if self.on_step is not None:
                    self.on_step(self.sim.now)
            time.sleep(self.interval_s)
