"""A keep-alive HTTP/1.1 client for the serving front end.

Raw asyncio (``open_connection`` + hand-rolled HTTP/1.1 parsing) for
the same reason the server is: the standard library has no asyncio HTTP
client, and the protocol subset a client of
:class:`~repro.serve.http.PenguinServer` needs is ten lines.
The end-to-end benchmark's HTTP workload and the serve tests issue
their requests through :func:`http_request`.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Tuple

__all__ = ["http_request"]


async def http_request(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    body: Optional[bytes] = None,
    host: str = "localhost",
) -> Tuple[int, bytes]:
    """One keep-alive HTTP/1.1 request on an open connection."""
    payload = body or b""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Content-Type: application/json\r\n"
        f"Connection: keep-alive\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + payload)
    await writer.drain()

    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split(b" ", 2)[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("latin-1").partition(":")
        if key.strip().lower() == "content-length":
            length = int(value.strip())
    body_bytes = await reader.readexactly(length) if length else b""
    return status, body_bytes
