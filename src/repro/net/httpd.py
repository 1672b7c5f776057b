"""Minimal asyncio HTTP endpoint for metrics and admin.

Each live-runtime process exposes a tiny HTTP/1.1 server:

* ``GET /metrics``  — Prometheus text format (the existing
  :func:`repro.obs.exporters.to_prometheus_text` over the process's
  metrics registry);
* ``GET /healthz``  — liveness;
* ``GET /shutdown`` — graceful stop;
* ``GET /reconfig?write=W`` — (manager only) run a live two-phase quorum
  reconfiguration.

Deliberately not a web framework: one request per connection, GET only,
no keep-alive — just enough for ``curl``, a Prometheus scraper and the
live-smoke harness.  A matching :func:`http_get` client keeps the
loadgen/orchestrator dependency-free too.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

#: A route handler: ``(query) -> (status, content_type, body)``.
Handler = Callable[
    [Dict[str, str]], Awaitable[Tuple[int, str, str]]
]

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            500: "Internal Server Error"}

_MAX_REQUEST_BYTES = 16 * 1024


class MiniHttpServer:
    """One-shot-per-connection HTTP server over asyncio streams."""

    def __init__(
        self, host: str, port: int, routes: Dict[str, Handler]
    ) -> None:
        self._host = host
        self._port = port
        self._routes = dict(routes)
        self._server: Optional[asyncio.AbstractServer] = None
        self.requests_served = 0

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port
        )
        sockets = self._server.sockets or []
        if self._port == 0 and sockets:
            self._port = sockets[0].getsockname()[1]

    @property
    def port(self) -> int:
        return self._port

    async def stop(self) -> None:
        # Claim the server before the first await so a concurrent stop()
        # cannot double-close it (check-then-act across an await).
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            if len(request_line) > _MAX_REQUEST_BYTES:
                return
            parts = request_line.decode("latin-1").split()
            if len(parts) != 3 or parts[0] != "GET":
                await self._respond(writer, 400, "text/plain", "GET only\n")
                return
            # Drain headers (ignored) until the blank line.
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            split = urlsplit(parts[1])
            handler = self._routes.get(split.path)
            if handler is None:
                await self._respond(writer, 404, "text/plain", "not found\n")
                return
            query = {
                key: values[-1]
                for key, values in parse_qs(split.query).items()
            }
            try:
                status, content_type, body = await handler(query)
            except Exception as exc:  # noqa: BLE001 - surface to the client
                status, content_type, body = (
                    500, "text/plain", f"error: {exc}\n"
                )
            await self._respond(writer, status, content_type, body)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        finally:
            self.requests_served += 1
            writer.close()

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter, status: int, content_type: str, body: str
    ) -> None:
        payload = body.encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}; charset=utf-8\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()


async def http_get(
    host: str, port: int, path: str, timeout: float = 5.0
) -> Tuple[int, str]:
    """Tiny HTTP client: ``(status, body)`` of one GET request."""

    async def _fetch() -> Tuple[int, str]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(
                f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
                "Connection: close\r\n\r\n".encode("latin-1")
            )
            await writer.drain()
            raw = await reader.read()
        finally:
            writer.close()
        head, _, body = raw.partition(b"\r\n\r\n")
        status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
        status = int(status_line.split()[1])
        return status, body.decode("utf-8", errors="replace")

    return await asyncio.wait_for(_fetch(), timeout=timeout)


__all__ = ["MiniHttpServer", "http_get", "Handler"]
