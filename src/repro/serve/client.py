"""A tiny blocking client for the matching service.

The tests, the smoke probes, and ``repro serve --probe`` use this: one
plain socket per request (``Connection: close``), read to EOF, parse.
It deliberately mirrors the service's own framing rules — JSON bodies
carry ``Content-Length``; the NDJSON sweep stream is EOF-delimited —
so a response is simply "everything until the socket closes".  The
keep-alive path lives in :mod:`repro.serve.loadgen`, which is the one
place connection reuse actually matters.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass

__all__ = ["Response", "request"]


@dataclass
class Response:
    """One parsed response: status, headers, raw body."""

    status: int
    headers: dict[str, str]
    body: bytes

    def json(self) -> object:
        return json.loads(self.body.decode("utf-8"))

    def lines(self) -> list[str]:
        """The body split into non-empty lines (for NDJSON streams)."""
        return [line for line in self.body.decode("utf-8").split("\n") if line]


def request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: object = None,
    *,
    timeout: float = 30.0,
    headers: dict[str, str] | None = None,
) -> Response:
    """Issue one request and read the complete response.

    ``body`` is JSON-encoded when it is not already ``bytes``/``None``.
    A connection closed before any response byte raises
    :class:`ConnectionError`.
    """
    if body is None:
        payload = b""
    elif isinstance(body, bytes):
        payload = body
    else:
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
    lines = [
        f"{method} {path} HTTP/1.1",
        f"Host: {host}:{port}",
        "Connection: close",
    ]
    if payload:
        lines.append("Content-Type: application/json")
        lines.append(f"Content-Length: {len(payload)}")
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(head + payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    if not raw:
        raise ConnectionError(f"{method} {path}: connection closed without a response")
    header_blob, _, rest = raw.partition(b"\r\n\r\n")
    header_lines = header_blob.decode("latin-1").split("\r\n")
    status = int(header_lines[0].split()[1])
    parsed: dict[str, str] = {}
    for line in header_lines[1:]:
        name, _, value = line.partition(":")
        parsed[name.strip().lower()] = value.strip()
    if "content-length" in parsed:
        rest = rest[: int(parsed["content-length"])]
    return Response(status=status, headers=parsed, body=rest)
