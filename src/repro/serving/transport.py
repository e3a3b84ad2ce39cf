"""Transports: how callers reach a :class:`ChronusServer`.

Two implementations behind the same handler:

* :class:`LocalTransport` — an in-process
  :class:`~repro.core.application.interfaces.PredictionProvider` that
  calls the server directly.  This is what ``job_submit_eco`` uses by
  default: tier-1 tests stay hermetic (no sockets, no daemon, and —
  until ``server.start()`` — no threads), yet exercise the exact
  admission/batching/protocol path production traffic takes.
* :class:`UnixSocketTransport` / :class:`UnixSocketServer` — ``chronus/2``
  JSON lines over a Unix domain socket, one request per ``\\n``-terminated
  line, one answer per line.  ``chronus serve`` runs the daemon side; the
  client side is what a real C plugin (or a remote head node) would link
  against.

A transport never interprets predictions; it moves messages.  All
decoding happens in :meth:`ChronusServer.handle_wire`, so a client over
the socket gets the same answer as one in-process.

The daemon reads lines through one reused per-connection buffer
(``recv_into``, no ``makefile`` layer): a request is sliced out of the
buffer and handed to ``json.loads`` as UTF-8 bytes — no per-request
bytes→str decode round-trip.  A line may be at most
:data:`MAX_LINE_BYTES` long, newline included; past that the daemon
answers ``INVALID`` and hangs up, so a client that never sends a newline
cannot grow the buffer without bound.
"""

from __future__ import annotations

import contextlib
import os
import socket
import threading
from typing import TYPE_CHECKING, Callable, Optional, Union

from repro import telemetry
from repro.core.domain.errors import ProtocolError
from repro.serving.protocol import (
    ErrorResponse,
    PredictRequest,
    PredictResponse,
    decode_response,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.server import ChronusServer

__all__ = [
    "LocalTransport",
    "SocketDaemon",
    "UnixSocketServer",
    "UnixSocketTransport",
    "MAX_LINE_BYTES",
]

Answer = Union[PredictResponse, ErrorResponse]

#: hard cap on one request line, newline included (16 MiB)
MAX_LINE_BYTES = 1 << 24
#: how long a stopping daemon waits for requests still being answered
DRAIN_TIMEOUT_S = 2.0


class _ConnReader:
    """Incremental wire reader over one reused buffer.

    ``recv_into`` fills the spare tail of a single ``bytearray``;
    complete messages are sliced out and consumed in place.  The buffer
    is compacted (slide-to-front) only when full and grows only when one
    message outsizes it — steady-state serving does zero per-request
    allocations beyond the payload slice handed to ``json.loads``.  The
    newline search resumes where the last one stopped, so a line that
    arrives in many pieces is scanned once, not once per piece.
    """

    __slots__ = ("_conn", "_buf", "_start", "_end", "_scanned")

    def __init__(self, conn: socket.socket, bufsize: int = 64 * 1024) -> None:
        self._conn = conn
        self._buf = bytearray(bufsize)
        self._start = 0  # first unconsumed byte
        self._end = 0  # first unfilled byte
        self._scanned = 0  # [_start, _scanned) holds no newline

    def _fill(self) -> bool:
        """Pull more bytes from the socket; ``False`` on EOF."""
        if self._start == self._end:
            self._start = self._end = self._scanned = 0
        elif self._end == len(self._buf):
            if self._start > 0:
                remaining = self._end - self._start
                self._buf[:remaining] = self._buf[self._start : self._end]
                self._scanned -= self._start
                self._start, self._end = 0, remaining
            elif len(self._buf) >= MAX_LINE_BYTES:
                raise ProtocolError(
                    f"request line exceeds the {MAX_LINE_BYTES}-byte cap "
                    "without a newline"
                )
            else:
                # one message larger than the buffer: double it (the
                # bigger buffer is then reused for the rest of the
                # connection)
                self._buf.extend(bytes(len(self._buf)))
        with memoryview(self._buf) as view:
            received = self._conn.recv_into(view[self._end :])
        if received == 0:
            return False
        self._end += received
        return True

    def next_message(self) -> "bytes | None":
        """The next complete non-blank line, stripped; None on EOF."""
        while True:
            newline = self._buf.find(b"\n", self._scanned, self._end)
            if newline >= 0:
                payload = bytes(
                    memoryview(self._buf)[self._start : newline]
                ).strip()
                self._start = self._scanned = newline + 1
                if payload:
                    return payload
                continue
            self._scanned = self._end
            if not self._fill():
                # EOF with an unterminated trailing line: still a message
                payload = bytes(
                    memoryview(self._buf)[self._start : self._end]
                ).strip()
                self._start = self._end
                return payload or None


class LocalTransport:
    """In-process provider: the eco plugin's default path to the server."""

    def __init__(self, server: "ChronusServer") -> None:
        self.server = server

    def predict(self, request: PredictRequest) -> Answer:
        return self.server.predict(request)


class SocketDaemon:
    """The accept-loop skeleton shared by every socket daemon.

    Subclasses supply :meth:`_bind` (the listening socket) and
    :meth:`_serve_connection` (one connection, already on its own
    thread); the base owns the lifecycle — eager bind on :meth:`start`
    so the bound address is readable immediately, a 0.2 s accept
    timeout so the loop notices :meth:`stop` (or a subclass's
    :meth:`_extra_stop` signal, e.g. a wire-initiated shutdown), an
    optional ``max_requests`` hard stop for smoke tests, and teardown
    via :meth:`_on_close`.  Handlers answer and reply to each request
    inside :meth:`_answering`, which counts it; :meth:`serve_forever`
    waits (for at most :data:`DRAIN_TIMEOUT_S`) for requests whose
    handler or reply is still running, so the count it returns includes
    the request whose answer stopped it, and that reply has been written.

    Both the chronus/2 Unix-socket daemons and the REST gateway's TCP
    daemon (:class:`repro.restd.server.RestdServer`) run on this base.
    """

    thread_name = "chronus-daemon-accept"

    def __init__(
        self,
        *,
        log: Optional[Callable[[str], None]] = None,
        max_requests: Optional[int] = None,
    ) -> None:
        self._log = log or (lambda msg: None)
        #: optional hard stop after N served requests (smoke tests)
        self.max_requests = max_requests
        self.requests_served = 0
        #: guards ``requests_served`` and the count of requests in flight
        self._requests = threading.Condition()
        self._in_flight = 0
        self._sock: "socket.socket | None" = None
        self._accept_thread: "threading.Thread | None" = None
        self._stopping = threading.Event()

    # hooks ------------------------------------------------------------
    def _bind(self) -> socket.socket:
        raise NotImplementedError

    def _serve_connection(self, conn: socket.socket) -> None:
        raise NotImplementedError

    def _listening_message(self) -> str:
        return f"{type(self).__name__}: listening"

    def _extra_stop(self) -> bool:
        """Subclass stop signal beyond :meth:`stop` / ``max_requests``."""
        return False

    def _on_close(self) -> None:
        """Post-close teardown (e.g. unlinking a Unix socket path)."""

    # lifecycle --------------------------------------------------------
    def serve_forever(self) -> int:
        """Blocking accept loop; returns the number of requests served."""
        if self._sock is None:
            self._sock = self._bind()
        self._log(self._listening_message())
        try:
            while not self._should_stop():
                try:
                    conn, _ = self._sock.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn,), daemon=True
                )
                thread.start()
        finally:
            self._close()
            with self._requests:
                self._requests.wait_for(lambda: self._in_flight == 0, timeout=DRAIN_TIMEOUT_S)
        return self.requests_served

    def start(self):
        """Bind now, then run :meth:`serve_forever` on a background
        thread — the caller can read the bound address on return."""
        if self._sock is None:
            self._sock = self._bind()
        self._accept_thread = threading.Thread(
            target=self.serve_forever, name=self.thread_name, daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None

    def _should_stop(self) -> bool:
        return (
            self._stopping.is_set()
            or self._extra_stop()
            or (
                self.max_requests is not None
                and self.requests_served >= self.max_requests
            )
        )

    @contextlib.contextmanager
    def _answering(self, handle: Callable, request):
        """Yield ``handle(request)`` for the caller to send in the block.

        The request is counted in ``requests_served`` once its handler
        returns, and stays in flight from before the handler runs until
        the block ends.  So an answer that stops the loop (a shutdown op,
        the ``max_requests``-th request) cannot make :meth:`serve_forever`
        return before that answer is counted and its reply written.
        """
        with self._requests:
            self._in_flight += 1
        try:
            answer = handle(request)
            with self._requests:
                self.requests_served += 1
            yield answer
        finally:
            with self._requests:
                self._in_flight -= 1
                self._requests.notify_all()

    def _close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
        self._on_close()


class UnixSocketServer(SocketDaemon):
    """JSON-lines daemon over a Unix domain socket.

    One thread per connection, one request per line.  The accept loop
    runs until :meth:`stop` or until a client sends ``{"op": "shutdown"}``
    (which trips the server's ``shutdown_requested`` event).
    """

    thread_name = "chronus-uds-accept"

    def __init__(
        self,
        server: "ChronusServer",
        socket_path: str,
        *,
        log: Optional[Callable[[str], None]] = None,
        max_requests: Optional[int] = None,
    ) -> None:
        super().__init__(log=log, max_requests=max_requests)
        self.server = server
        self.socket_path = socket_path

    # ------------------------------------------------------------------
    def _bind(self) -> socket.socket:
        # a stale socket file from a crashed daemon must not block restart
        try:
            os.unlink(self.socket_path)
        except FileNotFoundError:
            pass
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(self.socket_path)
        sock.listen(64)
        sock.settimeout(0.2)  # so the accept loop can notice stop/shutdown
        return sock

    def _listening_message(self) -> str:
        return f"serve: listening on {self.socket_path}"

    def _extra_stop(self) -> bool:
        return self.server.shutdown_requested.is_set()

    def _on_close(self) -> None:
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        telemetry.counter("serve_connections_total").inc()
        try:
            with conn:
                reader = _ConnReader(conn)
                while True:
                    try:
                        payload = reader.next_message()
                    except ProtocolError as exc:
                        # an over-long line poisons the stream; answer
                        # and hang up rather than guess where it ends
                        telemetry.counter("serve_protocol_errors_total").inc()
                        refusal = ErrorResponse(code="INVALID", message=str(exc))
                        conn.sendall(refusal.to_json().encode("utf-8") + b"\n")
                        return
                    if payload is None:
                        return
                    with self._answering(self.server.handle_wire, payload) as answer:
                        conn.sendall(answer.encode("utf-8") + b"\n")
                    if self.server.shutdown_requested.is_set():
                        return
                    if (
                        self.max_requests is not None
                        and self.requests_served >= self.max_requests
                    ):
                        return
        except (OSError, ValueError):
            # a client hanging up mid-line is its problem, not the daemon's
            telemetry.counter("serve_connection_errors_total").inc()


class UnixSocketTransport:
    """Client side of the ``chronus/2`` JSON-lines socket; a
    ``PredictionProvider``.

    Opens one connection per call — the plugin's calls are rare compared
    to the daemon's capacity, and a connection-per-predict client is what
    the C plugin would realistically be.
    """

    def __init__(self, socket_path: str, *, timeout_s: float = 5.0) -> None:
        self.socket_path = socket_path
        self.timeout_s = timeout_s

    # ------------------------------------------------------------------
    def _roundtrip(self, line: str) -> str:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout_s)
        try:
            sock.connect(self.socket_path)
            with sock.makefile("rwb") as stream:
                stream.write(line.encode("utf-8") + b"\n")
                stream.flush()
                answer = stream.readline()
            if not answer:
                raise ProtocolError(
                    f"server at {self.socket_path} closed without answering"
                )
            return answer.decode("utf-8").strip()
        finally:
            sock.close()

    # ------------------------------------------------------------------
    def predict(self, request: PredictRequest) -> Answer:
        return decode_response(self._roundtrip(request.to_json()))

    def request_raw(self, line: str) -> str:
        """Send a raw wire line (control ops, protocol tests)."""
        return self._roundtrip(line)

    def ping(self) -> dict:
        import json

        return json.loads(self._roundtrip('{"op": "ping"}'))

    def shutdown(self) -> dict:
        import json

        return json.loads(self._roundtrip('{"op": "shutdown"}'))
