"""TCP transport: newline-delimited JSON over a socket.

:class:`TcpQueryServer` fronts a :class:`~repro.server.service.QueryService`
with a plain socket protocol: one JSON request object per line, one JSON
response per line, in order (see :mod:`repro.server.protocol` for the
wire schema). Each accepted connection is served by its own thread;
requests on one connection are handled sequentially, so clients wanting
concurrency open several connections (the serving benchmark's load
generator opens one per simulated client).

The transport adds little to the serving policy — admission control,
deadlines, and shedding all live in the service. The transport itself
answers three things: a malformed line (``bad_request``), a line longer
than :data:`MAX_FRAME_BYTES` (``bad_request``, then the connection is
closed — a client that never sends a newline cannot grow the server's
memory) and a ``stats`` request, which returns the service registry's
telemetry snapshot *without* entering the admission queue (a saturated server must still
be observable). ``stop()`` drains the service (in-flight queries
finish, queued ones are rejected), closes the listener and all client
connections, and returns a :class:`StopReport`: socket errors on the
teardown path and connection threads that outlive the join timeout are
counted, logged to the registry's error log, and reported — not
silently dropped.
"""

from __future__ import annotations

import errno
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Set

from ..errors import ReproError
from .protocol import (
    ERR_BAD_REQUEST,
    ProtocolError,
    QueryResponse,
    STATUS_ERROR,
    STATUS_OK,
    StatsRequest,
    ErrorInfo,
    dump_line,
    load_line,
    parse_request,
)
from .service import QueryService

#: Errnos meaning "this socket is already gone" — expected races on the
#: teardown path, not failures (a handler thread closes its own socket;
#: a second ``stop()`` finds the listener closed).
_ALREADY_GONE = (errno.EBADF, errno.ENOTCONN, errno.EPIPE)

#: Longest request line the server reads, newline included (bytes).
MAX_FRAME_BYTES = 4 << 20

#: Seconds a connection refused for an oversized frame keeps discarding
#: what its client still sends, so the client reads the error reply
#: instead of a reset.
_LINGER_SECONDS = 1.0


@dataclass
class StopReport:
    """What :meth:`TcpQueryServer.stop` actually accomplished.

    ``errors`` lists teardown socket failures (also counted in the
    registry under ``tcp_stop_errors_total`` and logged to the error
    log); ``unjoined_threads`` names connection or accept threads still
    alive after the join timeout — a non-empty list means the timeout
    was too short or a handler is wedged, and the caller should know
    rather than exit believing the shutdown was clean.
    """

    drained: bool = True
    errors: List[str] = field(default_factory=list)
    unjoined_threads: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.drained and not self.errors and not self.unjoined_threads

    def to_dict(self) -> dict:
        return {
            "drained": self.drained,
            "clean": self.clean,
            "errors": list(self.errors),
            "unjoined_threads": list(self.unjoined_threads),
        }


class TcpQueryServer:
    """A threaded socket front end for one query service.

    Binds immediately (``port=0`` picks a free port — :attr:`address`
    has the real one); :meth:`start` launches the accept loop in a
    background thread, :meth:`serve_forever` runs it in the caller's
    thread (the ``python -m repro.server`` entry point does, until a
    signal asks it to stop).
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        backlog: int = 64,
    ) -> None:
        self.service = service
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._listener.bind((host, port))
        except OSError as exc:
            self._listener.close()
            raise ReproError(
                f"cannot bind query server to {host}:{port}: {exc}"
            ) from exc
        self._listener.listen(backlog)
        self.address = self._listener.getsockname()[:2]
        self._stopping = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_threads: Set[threading.Thread] = set()
        self._conns: Set[socket.socket] = set()
        self._lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------

    @property
    def host(self) -> str:
        return self.address[0]

    @property
    def port(self) -> int:
        return self.address[1]

    def start(self) -> "TcpQueryServer":
        """Run the accept loop in a background thread."""
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self.serve_forever, name="repro-accept", daemon=True
            )
            self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept connections until :meth:`stop` closes the listener."""
        while not self._stopping.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                break  # listener closed by stop()
            with self._lock:
                if self._stopping.is_set():
                    conn.close()
                    break
                self._conns.add(conn)
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(conn,),
                    name="repro-conn",
                    daemon=True,
                )
                self._conn_threads.add(thread)
            thread.start()

    def stop(self, timeout: Optional[float] = None) -> StopReport:
        """Graceful shutdown: drain the service (queued requests get
        structured ``shutting_down`` rejections, in-flight ones finish),
        then close the listener and every connection. Idempotent.

        Returns a :class:`StopReport`. Teardown socket errors are
        counted (``tcp_stop_errors_total``), logged to the registry's
        error log, and listed on the report; threads that outlive the
        join timeout are reported as ``unjoined_threads`` instead of
        being silently leaked.
        """
        report = StopReport()
        self._stopping.set()
        report.drained = self.service.shutdown(timeout)
        # Closing a listening socket does not wake a thread blocked in
        # accept() on Linux; shutdown() does there, and the dummy
        # connection covers platforms where shutdown() on a listener
        # raises instead (e.g. ENOTCONN on macOS).
        self._teardown(
            report, "listener_shutdown",
            lambda: self._listener.shutdown(socket.SHUT_RDWR),
            benign_errnos=_ALREADY_GONE,  # second stop(): already closed
        )
        # The wake-up connection is *expected* to fail once the
        # listener stops accepting — count it, but it is not an error.
        self._teardown(
            report, "wake_accept",
            lambda: socket.create_connection(
                self.address, timeout=0.5
            ).close(),
            expected=True,
        )
        self._teardown(report, "listener_close", self._listener.close)
        with self._lock:
            conns = list(self._conns)
            threads = list(self._conn_threads)
        for conn in conns:
            # A handler thread may close its own socket between the
            # snapshot above and this shutdown — that race is benign.
            self._teardown(
                report, "conn_shutdown",
                lambda c=conn: c.shutdown(socket.SHUT_RDWR),
                benign_errnos=_ALREADY_GONE,
            )
            self._teardown(report, "conn_close", conn.close)
        if self._accept_thread is not None:
            threads.append(self._accept_thread)
        for thread in threads:
            thread.join(timeout=timeout)
            if thread.is_alive():
                report.unjoined_threads.append(thread.name)
        if report.unjoined_threads:
            registry = self.service.registry
            registry.counter("tcp_unjoined_threads_total").inc(
                len(report.unjoined_threads)
            )
            registry.error_log.record(
                "tcp.stop",
                f"{len(report.unjoined_threads)} connection thread(s) "
                f"outlived the {timeout}s join timeout",
                threads=list(report.unjoined_threads),
            )
        return report

    def _teardown(
        self,
        report: StopReport,
        site: str,
        action,
        *,
        expected: bool = False,
        benign_errnos: tuple = (),
    ) -> None:
        """Run one teardown step, routing an ``OSError`` through the
        telemetry (counter + error log) instead of dropping it. Steps
        marked ``expected`` (the accept-loop wake-up, whose refusal
        means the listener is already down) and errnos in
        ``benign_errnos`` (socket already closed by its own handler, or
        by a previous ``stop``) are counted but neither logged nor
        listed as errors."""
        try:
            action()
        except OSError as exc:
            registry = self.service.registry
            registry.counter("tcp_stop_errors_total", site=site).inc()
            if not expected and exc.errno not in benign_errnos:
                message = f"{site}: {exc}"
                registry.error_log.record("tcp.stop", message)
                report.errors.append(message)

    def __enter__(self) -> "TcpQueryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- connections -----------------------------------------------------

    def _conn_error(self, site: str, exc: BaseException) -> None:
        """Route a per-connection socket failure through telemetry,
        mirroring what :meth:`_teardown` does for ``stop()``.

        Every occurrence is counted (``tcp_stop_errors_total{site=}``).
        Sockets that are *already gone* — closed under this thread by
        ``stop()``, surfacing as an ``_ALREADY_GONE`` errno or as the
        ``ValueError`` a closed file object raises — are expected races,
        counted but not logged. A genuine reset (ECONNRESET and kin) is
        the diagnosable case and lands in the error log."""
        registry = self.service.registry
        registry.counter("tcp_stop_errors_total", site=site).inc()
        if isinstance(exc, ValueError):
            return  # operation on a closed makefile object: stop() race
        if getattr(exc, "errno", None) in _ALREADY_GONE:
            return
        registry.error_log.record("tcp.conn", f"{site}: {exc}")

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            reader = conn.makefile("rb")
            writer = conn.makefile("wb")
            while True:
                line = reader.readline(MAX_FRAME_BYTES + 1)
                if not line:
                    break
                if len(line) > MAX_FRAME_BYTES:
                    self._refuse_frame(conn, writer)
                    break
                if not line.endswith(b"\n"):
                    # EOF inside a frame: the client closed mid-request.
                    self._conn_error(
                        "frame_truncated",
                        ProtocolError(
                            f"connection closed after {len(line)} bytes "
                            "of an unterminated frame"
                        ),
                    )
                    break
                if not line.strip():
                    continue
                response = self._handle_line(line)
                try:
                    writer.write(dump_line(response.to_wire()))
                    writer.flush()
                except (OSError, ValueError) as exc:
                    # Client went away mid-response: stop serving this
                    # connection, but leave a trace — a shard worker's
                    # reset here used to vanish without a counter.
                    self._conn_error("conn_write", exc)
                    break
        except (OSError, ValueError) as exc:
            # Read side failed (e.g. ECONNRESET): nothing to answer,
            # but the reset itself is diagnosable telemetry.
            self._conn_error("conn_read", exc)
        finally:
            with self._lock:
                self._conns.discard(conn)
                self._conn_threads.discard(threading.current_thread())
            try:
                conn.close()
            except OSError:
                pass

    def _refuse_frame(self, conn: socket.socket, writer) -> None:
        """Answer an oversized frame with ``bad_request``, then close
        the connection: send FIN and discard the rest of the frame for
        at most :data:`_LINGER_SECONDS`, reading nothing into memory."""
        message = f"request frame exceeds {MAX_FRAME_BYTES} bytes"
        self._conn_error("frame_oversized", ProtocolError(message))
        response = QueryResponse(
            id="",
            status=STATUS_ERROR,
            error=ErrorInfo(code=ERR_BAD_REQUEST, message=message),
        )
        try:
            writer.write(dump_line(response.to_wire()))
            writer.flush()
            conn.shutdown(socket.SHUT_WR)
        except (OSError, ValueError) as exc:
            self._conn_error("conn_write", exc)
            return
        deadline = time.monotonic() + _LINGER_SECONDS
        try:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                conn.settimeout(remaining)
                if not conn.recv(1 << 16):
                    break
        except OSError:
            pass  # timed out or reset: the reply is out either way

    def _handle_line(self, line: bytes) -> QueryResponse:
        try:
            request = parse_request(load_line(line))
        except ProtocolError as exc:
            return QueryResponse(
                id="",
                status=STATUS_ERROR,
                error=ErrorInfo(code=ERR_BAD_REQUEST, message=str(exc)),
            )
        if isinstance(request, StatsRequest):
            # Answered by the transport, bypassing admission: stats
            # must stay available when the queue is full or draining.
            self.service.registry.counter("stats_requests_total").inc()
            return QueryResponse(
                id=request.id,
                status=STATUS_OK,
                value=self.service.stats_snapshot(),
            )
        # Blocking in the connection thread keeps per-connection order;
        # cross-connection concurrency comes from the service's queue.
        return self.service.execute(request)
