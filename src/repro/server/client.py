"""Minimal blocking client for the TCP query server.

Speaks the newline-delimited JSON protocol of
:class:`~repro.server.tcp.TcpQueryServer`: one request per line, one
response per line, in order. One client holds one connection and is
*not* thread-safe — the serving benchmark's load generator opens one
client per simulated user, which is also how the server sees real
concurrency.

``connect_retry_window`` makes startup races benign: CI starts
``python -m repro.server`` in the background and the first client call
simply retries until the listener is up (or the window closes).
"""

from __future__ import annotations

import socket
import time
from typing import Any, Optional

from ..errors import ReproError
from .protocol import (
    ProtocolError,
    QueryRequest,
    QueryResponse,
    StatsRequest,
    dump_line,
    load_line,
)


class ServiceClient:
    """A blocking connection to one query server."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7653,
        *,
        timeout: Optional[float] = 30.0,
        connect_retry_window: float = 0.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        deadline = time.monotonic() + max(connect_retry_window, 0.0)
        while True:
            try:
                self._sock = socket.create_connection(
                    (host, port), timeout=timeout
                )
                break
            except OSError as exc:
                if time.monotonic() >= deadline:
                    raise ReproError(
                        f"cannot connect to query server at "
                        f"{host}:{port}: {exc}"
                    ) from exc
                time.sleep(0.1)
        self._reader = self._sock.makefile("rb")
        self._writer = self._sock.makefile("wb")

    def request(
        self,
        query: Any,
        *,
        strategy: str = "auto",
        workers: Optional[int] = None,
        deadline: Optional[float] = None,
        backend: Optional[str] = None,
        id: Optional[str] = None,
    ) -> QueryResponse:
        """Send one request and block for its response.

        ``query`` is a :class:`~repro.plan.ops.LogicalPlan` (sent as
        structural JSON plus its IR fingerprint) or a microbench spec
        dict. Legacy logical ``Query`` objects are in-process only and
        cannot cross the wire. ``backend`` pins the execution backend
        (``"instrumented"`` / ``"vectorized"``) instead of the
        server's default.
        """
        kwargs = {} if id is None else {"id": id}
        req = QueryRequest(
            query=query,
            strategy=strategy,
            workers=workers,
            deadline=deadline,
            backend=backend,
            **kwargs,
        )
        return self.call(req)

    def stats(self) -> dict:
        """Scrape the server's telemetry snapshot (a ``stats`` request).

        Returns the snapshot dict: counters, gauges, histograms, stat
        sources (plan cache, dataset cache, pool, service), the
        slow-query log, and the error log. Stats requests bypass the
        server's admission queue, so this works even under overload.
        """
        response = self.call(StatsRequest())
        if not response.ok:
            error = response.error
            detail = f"{error.code}: {error.message}" if error else "unknown"
            raise ReproError(f"stats request failed: {detail}")
        if not isinstance(response.value, dict):
            raise ReproError(
                "stats response carried no snapshot (is the server "
                "older than the stats protocol?)"
            )
        return response.value

    def call(self, request) -> QueryResponse:
        """Send a prepared :class:`QueryRequest` or
        :class:`StatsRequest`; return its response."""
        try:
            self._writer.write(dump_line(request.to_wire()))
            self._writer.flush()
            line = self._reader.readline()
        except (OSError, ValueError) as exc:
            raise ReproError(
                f"connection to {self.host}:{self.port} failed: {exc}"
            ) from exc
        if not line:
            raise ReproError(
                f"server at {self.host}:{self.port} closed the connection"
            )
        try:
            return QueryResponse.from_wire(load_line(line))
        except ProtocolError as exc:
            raise ReproError(f"bad response from server: {exc}") from exc

    def close(self) -> None:
        for closeable in (self._writer, self._reader, self._sock):
            try:
                closeable.close()
            except (OSError, ValueError):  # pragma: no cover
                pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
